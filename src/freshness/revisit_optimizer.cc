#include "freshness/revisit_optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

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
constexpr double kLo = 1e-12, kHi = 745.0;

double InverseG(double y) {
  if (y <= G(kLo)) return kLo;
  if (y >= G(kHi)) return kHi;
  return Bisect(kLo, kHi, [y](double x) { return G(x) < y; });
}

// InverseG for one rate group across the multiplier search, which asks
// for nearby y again and again. The bisection for y is kept as a path
// of halvings. Every path starts from the same interval and each step's
// midpoint depends only on the decisions before it, so Start(y) keeps
// the steps of the current path that y decides the same way, with G
// already known at their midpoints, and Advance bisects on from there.
// A finished path ends where InverseG's bisection ends, so its value is
// InverseG(y), bit for bit; an unfinished one brackets that value.
class InverseGPath {
 public:
  void Start(double y) {
    y_ = y;
    fixed_ = y <= g_lo_ || y >= g_hi_;
    if (fixed_) return;
    std::size_t kept = 0;
    while (kept < steps_.size() &&
           (steps_[kept].g < y) == steps_[kept].below) {
      ++kept;
    }
    if (kept < steps_.size()) {
      lo_ = steps_[kept].lo;
      hi_ = steps_[kept].hi;
      done_ = false;
      steps_.resize(kept);
    }
  }

  // Makes up to `halvings` more steps (each one exp), fewer once done.
  void Advance(int halvings) {
    for (; !fixed_ && !done_ && halvings > 0; --halvings) {
      const double mid = 0.5 * (lo_ + hi_);
      const double g = G(mid);
      const bool below = g < y_;
      steps_.push_back(Step{lo_, hi_, g, below});
      // Bisect's step and its 200-step cap.
      double& end = below ? lo_ : hi_;
      done_ = end == mid || steps_.size() == 200;
      if (end != mid) end = mid;
    }
  }

  bool done() const { return fixed_ || done_; }

  // An interval holding InverseG(y); a single point once done.
  std::pair<double, double> Bracket() const {
    if (fixed_) {
      const double x = y_ <= g_lo_ ? kLo : kHi;
      return {x, x};
    }
    if (done_) return {0.5 * (lo_ + hi_), 0.5 * (lo_ + hi_)};
    return {lo_, hi_};
  }

 private:
  // One halving: the interval it split, G at its midpoint, its decision.
  struct Step {
    double lo;
    double hi;
    double g;
    bool below;
  };

  const double g_lo_ = G(kLo);
  const double g_hi_ = G(kHi);
  std::vector<Step> steps_;
  double y_ = 0.0;
  bool fixed_ = false;
  // The interval after the last step, and whether the path has ended.
  double lo_ = kLo;
  double hi_ = kHi;
  bool done_ = false;
};

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
// lambda), the inverse taken by `inverse_g`.
template <typename InverseGFn>
double FrequencyAt(double lambda, double mu, InverseGFn&& inverse_g) {
  if (lambda <= 0.0) return 0.0;  // never changes: a visit buys nothing
  double y = mu * lambda;
  if (y >= 1.0) return 0.0;  // marginal value below mu everywhere
  return lambda / inverse_g(y);
}

double FrequencyAt(double lambda, double mu) {
  return FrequencyAt(lambda, mu, InverseG);
}

// How the total visits at multiplier `mu`, the sum over groups of
// weight * FrequencyAt(rate, mu), compare with `budget`: -1, 0 or 1.
// Division, products and sums all round monotonically, so the sums over
// the ends of each group's bracket bound the exact total; the paths
// advance a few halvings at a time until the bounds settle the
// comparison, which takes full precision only near the solution.
int CompareTotalVisits(const std::vector<RateGroup>& groups, double mu,
                       double budget, std::vector<InverseGPath>& paths) {
  constexpr int kHalvingsPerRound = 2;
  // The groups whose frequency takes an inverse (FrequencyAt's cases).
  std::vector<std::size_t> solving;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (groups[i].rate > 0.0 && mu * groups[i].rate < 1.0) {
      paths[i].Start(mu * groups[i].rate);
      solving.push_back(i);
    }
  }
  while (true) {
    double low = 0.0, high = 0.0;
    for (std::size_t i = 0; i < groups.size(); ++i) {
      const auto [x_lo, x_hi] = paths[i].Bracket();
      low += groups[i].weight *
             FrequencyAt(groups[i].rate, mu, [&](double) { return x_hi; });
      high += groups[i].weight *
              FrequencyAt(groups[i].rate, mu, [&](double) { return x_lo; });
    }
    if (low > budget) return 1;
    if (high < budget) return -1;
    bool done = true;
    for (std::size_t i : solving) {
      paths[i].Advance(kHalvingsPerRound);
      done &= paths[i].done();
    }
    if (done && low == high) return 0;
  }
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
  std::vector<InverseGPath> paths(groups.size());
  double lo = hi;
  while (CompareTotalVisits(groups, lo, budget, paths) < 0) {
    lo /= 2.0;
    if (lo < 1e-300) break;
  }
  const double mu = Bisect(lo, hi, [&](double m) {
    return CompareTotalVisits(groups, m, budget, paths) > 0;
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
