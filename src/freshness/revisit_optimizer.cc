#include "freshness/revisit_optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace webevo::freshness {
namespace {

// Marginal-value kernel g(x) = 1 - e^{-x} - x e^{-x}, increasing from
// g(0) = 0 to g(inf) = 1. dF/df = g(lambda / f) / lambda. e^{-x} is
// taken once: the compiler cannot merge two calls, because exp may set
// errno.
double G(double x) {
  const double e = std::exp(-x);
  return 1.0 - e - x * e;
}

// Bisects [lo, hi] for the boundary of a monotone predicate: each step
// moves lo up to the midpoint when `below(mid)` holds, else hi down to
// it, and the midpoint of the final interval is returned. A step whose
// midpoint equals the end it would move leaves the interval unchanged,
// and since the interval is the loop's whole state, so would every
// later step. Stopping there returns exactly the bits the full 200
// steps would, after 60-75 steps instead of 200: the interval stops
// shrinking once its ends are adjacent doubles.
template <typename Below>
double Bisect(double lo, double hi, Below below) {
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    double& end = below(mid) ? lo : hi;
    if (end == mid) break;
    end = mid;
  }
  return 0.5 * (lo + hi);
}

// Inverse of G on (0, 1) by bisection. g is strictly increasing, so
// this is well defined; [1e-12, 745] narrows to adjacent doubles within
// the step cap (745 keeps e^{-x} above the denormal range).
double InverseG(double y) {
  const double lo = 1e-12, hi = 745.0;
  if (y <= G(lo)) return lo;
  if (y >= G(hi)) return hi;
  return Bisect(lo, hi, [y](double x) { return G(x) < y; });
}

Status ValidateInput(const std::vector<RateGroup>& groups, double budget) {
  if (groups.empty()) return Status::InvalidArgument("no rate groups");
  if (budget <= 0.0) return Status::InvalidArgument("budget must be > 0");
  for (const auto& g : groups) {
    if (g.rate < 0.0) return Status::InvalidArgument("negative rate");
    if (g.weight <= 0.0) return Status::InvalidArgument("weight must be > 0");
  }
  return Status::Ok();
}

// Optimal frequency of a single page with rate `lambda` at multiplier
// `mu`: 0 if the page is not worth visiting, else lambda / g^{-1}(mu *
// lambda).
double FrequencyAt(double lambda, double mu) {
  if (lambda <= 0.0) return 0.0;  // never changes: a visit buys nothing
  double y = mu * lambda;
  if (y >= 1.0) return 0.0;  // marginal value below mu everywhere
  return lambda / InverseG(y);
}

double TotalVisits(const std::vector<RateGroup>& groups, double mu) {
  double total = 0.0;
  for (const auto& g : groups) total += g.weight * FrequencyAt(g.rate, mu);
  return total;
}

}  // namespace

double RevisitOptimizer::FrequencyAtMultiplier(double rate,
                                               double multiplier) {
  return FrequencyAt(rate, multiplier);
}

double RevisitOptimizer::FreshnessAt(double rate, double frequency) {
  if (rate <= 0.0) return 1.0;
  if (frequency <= 0.0) return 0.0;
  double x = rate / frequency;
  if (x < 1e-8) return 1.0 - x / 2.0 + x * x / 6.0;
  return (1.0 - std::exp(-x)) / x;
}

StatusOr<double> RevisitOptimizer::EvaluateFreshness(
    const std::vector<RateGroup>& groups,
    const std::vector<double>& frequency) {
  if (groups.size() != frequency.size()) {
    return Status::InvalidArgument("frequency size mismatch");
  }
  double total_weight = 0.0, sum = 0.0;
  for (size_t i = 0; i < groups.size(); ++i) {
    total_weight += groups[i].weight;
    sum += groups[i].weight * FreshnessAt(groups[i].rate, frequency[i]);
  }
  if (total_weight <= 0.0) return Status::InvalidArgument("zero weight");
  return sum / total_weight;
}

StatusOr<Allocation> RevisitOptimizer::Optimize(
    const std::vector<RateGroup>& groups, double budget) {
  Status st = ValidateInput(groups, budget);
  if (!st.ok()) return st;

  bool any_positive = false;
  for (const auto& g : groups) any_positive |= g.rate > 0.0;
  Allocation alloc;
  alloc.frequency.assign(groups.size(), 0.0);
  if (!any_positive) {
    // Nothing ever changes; freshness is 1 with no visits at all.
    alloc.freshness = 1.0;
    return alloc;
  }

  // TotalVisits(mu) decreases monotonically from +inf (mu -> 0) to 0
  // (mu >= 1/min positive rate); bisect for the budget.
  double hi = 0.0;
  for (const auto& g : groups) {
    if (g.rate > 0.0) hi = std::max(hi, 1.0 / g.rate);
  }
  double lo = hi;
  while (TotalVisits(groups, lo) < budget) {
    lo /= 2.0;
    if (lo < 1e-300) break;
  }
  const double mu = Bisect(lo, hi, [&](double m) {
    return TotalVisits(groups, m) > budget;
  });
  for (size_t i = 0; i < groups.size(); ++i) {
    alloc.frequency[i] = FrequencyAt(groups[i].rate, mu);
  }
  alloc.multiplier = mu;
  alloc.freshness = *EvaluateFreshness(groups, alloc.frequency);
  return alloc;
}

StatusOr<Allocation> RevisitOptimizer::Uniform(
    const std::vector<RateGroup>& groups, double budget) {
  Status st = ValidateInput(groups, budget);
  if (!st.ok()) return st;
  double total_weight = 0.0;
  for (const auto& g : groups) total_weight += g.weight;
  Allocation alloc;
  alloc.frequency.assign(groups.size(), budget / total_weight);
  alloc.freshness = *EvaluateFreshness(groups, alloc.frequency);
  return alloc;
}

StatusOr<Allocation> RevisitOptimizer::Proportional(
    const std::vector<RateGroup>& groups, double budget) {
  Status st = ValidateInput(groups, budget);
  if (!st.ok()) return st;
  double weighted_rate = 0.0;
  for (const auto& g : groups) weighted_rate += g.weight * g.rate;
  Allocation alloc;
  alloc.frequency.assign(groups.size(), 0.0);
  if (weighted_rate <= 0.0) {
    alloc.freshness = 1.0;
    return alloc;
  }
  for (size_t i = 0; i < groups.size(); ++i) {
    alloc.frequency[i] = budget * groups[i].rate / weighted_rate;
  }
  alloc.freshness = *EvaluateFreshness(groups, alloc.frequency);
  return alloc;
}

}  // namespace webevo::freshness
