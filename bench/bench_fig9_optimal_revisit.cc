// Figure 9 — the freshness-optimal revisit frequency as a function of a
// page's change frequency: it first rises, peaks, then *falls* to zero
// (the paper's counter-intuitive result from [CGM99b]). Also reports
// the freshness gain of the optimal policy over uniform and
// proportional allocations for a web-like rate mix — the 10%-23%
// improvement the paper cites.
//
// Exits 1 unless the curve rises, then falls to zero, and the rate mix
// orders freshness optimal >= uniform >= proportional. The gain over
// uniform is printed against the paper's band but not gated.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "freshness/revisit_optimizer.h"
#include "util/table.h"

int main() {
  using namespace webevo;
  using freshness::RateGroup;
  using freshness::RevisitOptimizer;

  bench::Banner(
      "Figure 9: change frequency vs optimal revisit frequency",
      "optimal f rises with lambda up to a threshold, then decreases; "
      "optimisation buys 10-23% freshness");

  // Dense lambda grid, equal page mass per group; budget = one visit
  // per page per month on average.
  std::vector<RateGroup> grid;
  for (double rate = 1.0 / 256.0; rate <= 16.0; rate *= 1.25) {
    grid.push_back({rate, 1.0});
  }
  const double budget = static_cast<double>(grid.size()) / 30.0;
  auto alloc = RevisitOptimizer::Optimize(grid, budget);
  if (!alloc.ok()) {
    std::printf("optimizer failed: %s\n",
                alloc.status().ToString().c_str());
    return 1;
  }

  std::vector<double> xs, ys;
  const std::vector<double>& f = alloc->frequency;
  std::size_t peak = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    xs.push_back(static_cast<double>(i));  // log-spaced lambda axis
    ys.push_back(f[i]);
    if (f[i] > f[peak]) peak = i;
  }
  const double peak_f = f[peak];
  // Rises to an interior peak, then falls, abandoning the fastest pages.
  bool rises_then_falls = peak > 0 && peak + 1 < f.size() && f.back() == 0.0;
  for (std::size_t i = 1; i < f.size(); ++i) {
    rises_then_falls &= i <= peak ? f[i] >= f[i - 1] : f[i] <= f[i - 1];
  }
  std::printf("optimal revisit frequency vs change frequency "
              "(lambda log-spaced %.4f..%.0f /day):\n%s\n",
              grid.front().rate, grid.back().rate,
              AsciiChart(xs, ys, 0.0, peak_f * 1.05).c_str());

  TablePrinter curve({"lambda (/day)", "interval (days)",
                      "optimal f (/day)", "page freshness"});
  for (std::size_t i = 0; i < grid.size(); i += 4) {
    curve.AddRow({TablePrinter::Fmt(grid[i].rate, 4),
                  TablePrinter::Fmt(1.0 / grid[i].rate, 1),
                  TablePrinter::Fmt(alloc->frequency[i], 4),
                  TablePrinter::Fmt(RevisitOptimizer::FreshnessAt(
                      grid[i].rate, alloc->frequency[i]))});
  }
  std::printf("%s\n", curve.ToString().c_str());

  // Policy comparison on the measured-web rate mix (Figure 2a masses).
  std::vector<RateGroup> web_mix = {
      {12.0, 23.0},          // "changed every visit" (sub-daily)
      {1.0 / 3.5, 15.0},     // 1 day - 1 week
      {1.0 / 15.0, 16.0},    // 1 week - 1 month
      {1.0 / 60.0, 16.0},    // 1 - 4 months
      {1.0 / 600.0, 30.0},   // effectively static
  };
  const double web_budget = 100.0 / 30.0;  // monthly sweep
  auto optimal = RevisitOptimizer::Optimize(web_mix, web_budget);
  auto uniform = RevisitOptimizer::Uniform(web_mix, web_budget);
  auto proportional =
      RevisitOptimizer::Proportional(web_mix, web_budget);
  if (!optimal.ok() || !uniform.ok() || !proportional.ok()) {
    std::printf("policy evaluation failed\n");
    return 1;
  }
  TablePrinter policies({"policy", "freshness", "vs uniform"});
  policies.AddRow({"uniform (fixed frequency)",
                   TablePrinter::Fmt(uniform->freshness), "--"});
  policies.AddRow(
      {"proportional to change rate",
       TablePrinter::Fmt(proportional->freshness),
       TablePrinter::Percent(
           proportional->freshness / uniform->freshness - 1.0)});
  policies.AddRow({"optimal [CGM99b]",
                   TablePrinter::Fmt(optimal->freshness),
                   TablePrinter::Percent(
                       optimal->freshness / uniform->freshness - 1.0)});
  std::printf("policy comparison on the Figure 2(a) rate mix "
              "(budget: every page monthly on average):\n%s\n",
              policies.ToString().c_str());
  std::printf("paper: optimisation improves freshness by 10%%-23%%; "
              "proportional can *lose* to uniform (p1/p2 example).\n");
  const double gain = optimal->freshness / uniform->freshness - 1.0;
  std::printf("optimal gain over uniform: %.1f%% (not gated)\n", 100.0 * gain);

  const bool ordered = optimal->freshness >= uniform->freshness &&
                       uniform->freshness >= proportional->freshness;
  std::printf("gate: curve rises then falls to 0: %s\n",
              rises_then_falls ? "yes" : "NO");
  std::printf("gate: optimal >= uniform >= proportional: %s\n",
              ordered ? "yes" : "NO");
  return rises_then_falls && ordered ? 0 : 1;
}
