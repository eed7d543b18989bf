#include "estimator/change_estimator.h"

#include "estimator/bayesian_estimator.h"
#include "estimator/last_modified_estimator.h"
#include "estimator/naive_estimator.h"
#include "estimator/poisson_ci_estimator.h"
#include "estimator/ratio_estimator.h"

namespace webevo::estimator {

std::unique_ptr<ChangeEstimator> MakeEstimator(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kNaive:
      return std::make_unique<NaiveEstimator>();
    case EstimatorKind::kPoissonCi:
      return std::make_unique<PoissonCiEstimator>();
    case EstimatorKind::kBayesian:
      return std::make_unique<BayesianEstimator>();
    case EstimatorKind::kRatio:
      return std::make_unique<RatioEstimator>();
    case EstimatorKind::kLastModified:
      return std::make_unique<LastModifiedEstimator>();
  }
  return std::make_unique<NaiveEstimator>();
}

const char* EstimatorKindName(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kNaive:
      return "naive";
    case EstimatorKind::kPoissonCi:
      return "EP";
    case EstimatorKind::kBayesian:
      return "EB";
    case EstimatorKind::kRatio:
      return "ratio";
    case EstimatorKind::kLastModified:
      return "EL";
  }
  return "?";
}

StatusOr<EstimatorKind> ParseEstimatorKind(const std::string& name) {
  std::string valid;
  for (EstimatorKind kind :
       {EstimatorKind::kNaive, EstimatorKind::kPoissonCi,
        EstimatorKind::kBayesian, EstimatorKind::kRatio,
        EstimatorKind::kLastModified}) {
    if (name == EstimatorKindName(kind)) return kind;
    valid += std::string(valid.empty() ? "" : ", ") + EstimatorKindName(kind);
  }
  return Status::InvalidArgument("unknown estimator '" + name +
                                 "' (valid: " + valid + ")");
}

}  // namespace webevo::estimator
