#ifndef WEBEVO_ESTIMATOR_CHANGE_ESTIMATOR_H_
#define WEBEVO_ESTIMATOR_CHANGE_ESTIMATOR_H_

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace webevo::estimator {

/// Interface for estimating a page's Poisson change rate from repeated
/// visits, the statistic the paper's UpdateModule maintains to decide
/// revisit frequency (Section 5.3, [CGM99a]).
///
/// Estimators consume *observations*: "the page was visited
/// `interval_days` after its previous visit, and its checksum
/// did / did not differ". Keying observations on the inter-visit
/// interval (rather than absolute time) lets one estimator instance
/// aggregate statistics over any unit — a page, a directory, or a whole
/// site, as the paper discusses for site-level statistics.
class ChangeEstimator {
 public:
  virtual ~ChangeEstimator() = default;

  /// Records one visit outcome. `interval_days` must be positive;
  /// non-positive intervals are ignored (a repeat visit at the same
  /// instant carries no rate information).
  virtual void RecordObservation(double interval_days, bool changed) = 0;

  /// Current point estimate of the change rate (changes per day).
  /// 0 while no change has ever been detected.
  virtual double EstimatedRate() const = 0;

  /// Convenience: mean change interval in days (+infinity if the rate
  /// estimate is 0).
  double EstimatedInterval() const {
    double r = EstimatedRate();
    return r > 0.0 ? 1.0 / r : std::numeric_limits<double>::infinity();
  }

  /// Number of observations recorded since construction/Reset.
  virtual int64_t observation_count() const = 0;

  /// Clears all state.
  virtual void Reset() = 0;

  /// Deep copy (estimators are small value-like objects).
  virtual std::unique_ptr<ChangeEstimator> Clone() const = 0;

  /// Short name for tables ("naive", "EP", "EB", "ratio").
  virtual std::string Name() const = 0;

  /// Flat numeric snapshot of the estimator's state, for durable
  /// checkpoints (see crawler/snapshot.h). Integer counts are stored as
  /// doubles — exact, since observation counts stay far below 2^53.
  virtual std::vector<double> SaveState() const = 0;

  /// Restores a SaveState() snapshot taken from an estimator of the
  /// same concrete type; InvalidArgument if the vector does not match.
  virtual Status RestoreState(const std::vector<double>& state) = 0;
};

/// Available estimator implementations.
enum class EstimatorKind {
  kNaive,      ///< X changes / T days of monitoring (Section 3.1)
  kPoissonCi,  ///< EP: MLE with confidence interval (Section 5.3)
  kBayesian,   ///< EB: posterior over frequency classes (Section 5.3)
  kRatio,      ///< bias-corrected -log((n-X+.5)/(n+.5))/mean-interval
  kLastModified,  ///< EL: quiet-tail MLE from Last-Modified headers
};

/// True when a SaveState double is a valid stored count: finite,
/// non-negative, and exactly representable (<= 2^53). RestoreState
/// implementations must check this before casting to an integer —
/// snapshot integrity is only verified after the state is parsed, so
/// corrupt values (negative, huge, NaN) reach these casts, and an
/// out-of-range double-to-int conversion is undefined behaviour.
inline bool ValidStoredCount(double v) {
  return v >= 0.0 && v <= 9007199254740992.0;  // 2^53; rejects NaN too
}

/// Creates a fresh estimator of the given kind with default parameters.
std::unique_ptr<ChangeEstimator> MakeEstimator(EstimatorKind kind);

const char* EstimatorKindName(EstimatorKind kind);
/// The inverse of EstimatorKindName; InvalidArgument listing the valid
/// names for any other string.
StatusOr<EstimatorKind> ParseEstimatorKind(const std::string& name);

}  // namespace webevo::estimator

#endif  // WEBEVO_ESTIMATOR_CHANGE_ESTIMATOR_H_
