// Figure 10 / Section 5 — the two "reasonable" crawler designs head to
// head on the same evolving web: the incremental crawler (steady,
// in-place, variable frequency, with RankingModule refinement) against
// the periodic crawler (batch, shadowing, fixed frequency). Reports the
// axes of Figure 10: freshness, peak network/server load, and how
// quickly new pages are brought into the collection.

#include <cstdio>

#include "bench/bench_common.h"
#include "crawler/incremental_crawler.h"
#include "crawler/periodic_crawler.h"
#include "simweb/simulated_web.h"
#include "util/table.h"

namespace {

using namespace webevo;

struct Outcome {
  double freshness = 0.0;
  double peak_rate = 0.0;
  double avg_rate = 0.0;
  double new_page_latency = -1.0;
  uint64_t crawls = 0;
  bool ok = false;
};

constexpr double kHorizon = 150.0;
constexpr double kCycle = 30.0;

simweb::WebConfig SharedWeb() {
  simweb::WebConfig wc = bench::StudyWeb(0.12, 2000);
  return wc;
}

Outcome RunIncremental(std::size_t capacity) {
  simweb::SimulatedWeb web(SharedWeb());
  crawler::IncrementalCrawlerConfig config;
  config.collection_capacity = capacity;
  config.crawl_rate_pages_per_day = static_cast<double>(capacity) / kCycle;
  crawler::IncrementalCrawler crawler(&web, config);
  Outcome out;
  out.ok = crawler.Bootstrap(0.0).ok() && crawler.RunUntil(kHorizon).ok();
  if (!out.ok) return out;
  out.freshness = crawler.tracker().TimeAverage(2 * kCycle, kHorizon);
  out.peak_rate = crawler.crawl_pool().AggregateTraffic().PeakDailyRate();
  out.avg_rate = crawler.crawl_pool().AggregateTraffic().AverageDailyRate();
  out.crawls = crawler.stats().crawls;
  if (crawler.stats().new_page_latency_days.count() > 0) {
    out.new_page_latency = crawler.stats().new_page_latency_days.mean();
  }
  return out;
}

Outcome RunPeriodic(std::size_t capacity) {
  simweb::SimulatedWeb web(SharedWeb());
  crawler::PeriodicCrawlerConfig config;
  config.collection_capacity = capacity;
  config.cycle_days = kCycle;
  config.crawl_window_days = 7.0;
  config.shadowing = true;
  crawler::PeriodicCrawler crawler(&web, config);
  Outcome out;
  out.ok = crawler.Bootstrap(0.0).ok() && crawler.RunUntil(kHorizon).ok();
  if (!out.ok) return out;
  out.freshness = crawler.tracker().TimeAverage(2 * kCycle, kHorizon);
  out.peak_rate = crawler.crawl_pool().AggregateTraffic().PeakDailyRate();
  out.avg_rate = crawler.crawl_pool().AggregateTraffic().AverageDailyRate();
  out.crawls = crawler.stats().crawls;
  // A periodic crawler indexes a page created right after a crawl only
  // in the *next* cycle: expected latency ~ half a cycle plus the wait
  // for the swap — report the structural bound.
  out.new_page_latency = kCycle / 2.0 + 7.0;
  return out;
}

}  // namespace

int main() {
  bench::Banner(
      "Figure 10 / Section 5: incremental vs periodic crawler",
      "incremental: high freshness, low peak load, timely new pages; "
      "periodic: simpler, shielded collection");

  const auto capacity =
      static_cast<std::size_t>(2000 * bench::ScaleFromEnv());
  std::printf("collection: %zu pages; both crawlers sweep once per %.0f "
              "days; %.0f simulated days\n\n",
              capacity, kCycle, kHorizon);

  Outcome inc = RunIncremental(capacity);
  Outcome per = RunPeriodic(capacity);
  if (!inc.ok || !per.ok) {
    std::printf("simulation failed\n");
    return 1;
  }

  TablePrinter table({"metric", "incremental (steady, in-place, "
                                "variable freq)",
                      "periodic (batch, shadowing, fixed freq)"});
  table.AddRow({"freshness (steady state)",
                TablePrinter::Fmt(inc.freshness),
                TablePrinter::Fmt(per.freshness)});
  table.AddRow({"peak load (pages/day)",
                TablePrinter::Fmt(inc.peak_rate, 0),
                TablePrinter::Fmt(per.peak_rate, 0)});
  table.AddRow({"average load (pages/day)",
                TablePrinter::Fmt(inc.avg_rate, 0),
                TablePrinter::Fmt(per.avg_rate, 0)});
  table.AddRow({"new-page latency (days)",
                TablePrinter::Fmt(inc.new_page_latency, 1),
                TablePrinter::Fmt(per.new_page_latency, 1) +
                    " (structural bound)"});
  table.AddRow({"total fetches",
                TablePrinter::Fmt(static_cast<int64_t>(inc.crawls)),
                TablePrinter::Fmt(static_cast<int64_t>(per.crawls))});
  std::printf("%s\n", table.ToString().c_str());

  std::printf(
      "expected shape (paper): incremental wins freshness by exploiting\n"
      "variable revisit frequency and immediate in-place updates, at a\n"
      "peak load ~window/cycle = 4x lower; the periodic crawler's only\n"
      "wins are implementation simplicity and collection availability.\n");
  return 0;
}
