#ifndef WEBEVO_FRESHNESS_ANALYTIC_H_
#define WEBEVO_FRESHNESS_ANALYTIC_H_

#include <vector>

#include "util/status.h"

namespace webevo::freshness {

/// Closed-form freshness results under the paper's Poisson change model
/// (Section 4). All formulas assume a page changing as a Poisson process
/// with rate `lambda` (changes/day) and a crawler that revisits it once
/// per `period` days; `crawl_window` is the fraction of the period a
/// batch-mode crawler is actively crawling (the paper's "first week of
/// every month" = period 30, window 7).
///
/// Derivations (a page synced at time u is fresh at t > u with
/// probability e^{-lambda (t-u)}):
///
///  - in-place (steady or batch): each page is synced once per period
///    and immediately visible, so its time-averaged freshness is
///    (1/T) integral_0^T e^{-lambda a} da = (1 - e^{-lambda T}) /
///    (lambda T) — independent of *when* in the period it is synced,
///    which is the paper's claim that steady and batch crawlers have
///    equal average freshness at equal average speed.
///  - steady + shadowing: pages crawled uniformly over the period into a
///    shadow space and swapped in at the period boundary; averaging the
///    staleness over both the crawl time and the serving time squares
///    the in-place factor: F = ((1 - e^{-lambda T}) / (lambda T))^2.
///  - batch + shadowing: pages crawled uniformly over the window w and
///    swapped at its end: F = (1 - e^{-lambda T})(1 - e^{-lambda w}) /
///    (lambda^2 T w).
///
/// With the paper's parameters (change interval 4 months, period 1
/// month, window 1 week ~ T/4) these evaluate to Table 2's
/// 0.88 / 0.88 / 0.77 / 0.86, and with the sensitivity scenario
/// (interval 1 month, window T/2) to the text's 0.63 / 0.50.

/// Time-averaged freshness of an in-place-updated collection (steady or
/// batch). Returns 1 for lambda <= 0. Requires period > 0.
double InPlaceFreshness(double lambda, double period);

/// Time-averaged freshness with a steady crawler and shadowing.
double SteadyShadowingFreshness(double lambda, double period);

/// Time-averaged freshness with a batch crawler and shadowing;
/// crawl_window in (0, period].
double BatchShadowingFreshness(double lambda, double period,
                               double crawl_window);

/// Time-averaged age (days a stale copy has been stale) of an in-place
/// collection: T/2 - 1/lambda + (1 - e^{-lambda T}) / (lambda^2 T).
double InPlaceAge(double lambda, double period);

/// --- Instantaneous freshness curves (Figures 7 and 8) ---------------

/// Which collection a curve describes under shadowing.
enum class CurveKind {
  kCurrentCollection,  ///< what users query
  kCrawlerCollection,  ///< the shadow space being (re)built
};

/// A sampled freshness trajectory.
struct FreshnessCurve {
  std::vector<double> time;       ///< days
  std::vector<double> freshness;  ///< expected freshness in [0, 1]
};

/// Parameters shared by the curve generators.
struct CurveSpec {
  double lambda = 0.1;       ///< page change rate per day
  double period = 30.0;      ///< revisit period T (days)
  double crawl_window = 7.0; ///< batch active window w (days)
  double horizon = 90.0;     ///< sample until this time
  int samples = 360;         ///< number of sample points
};

/// Figure 7(a): batch-mode crawler, in-place updates, cold start at 0.
/// Sawtooth: freshness climbs during each crawl window, decays
/// exponentially while the crawler is idle.
StatusOr<FreshnessCurve> BatchInPlaceCurve(const CurveSpec& spec);

/// Figure 7(b): steady crawler, in-place updates, cold start. Ramps up
/// during the first sweep and then holds the in-place average.
StatusOr<FreshnessCurve> SteadyInPlaceCurve(const CurveSpec& spec);

/// Figure 8(a): steady crawler with shadowing; pick which collection.
StatusOr<FreshnessCurve> SteadyShadowingCurve(const CurveSpec& spec,
                                              CurveKind kind);

/// Figure 8(b): batch crawler with shadowing; pick which collection.
StatusOr<FreshnessCurve> BatchShadowingCurve(const CurveSpec& spec,
                                             CurveKind kind);

/// Trapezoidal time-average of a curve over [from, to]; clamps to the
/// sampled range. Returns 0 for empty curves.
double CurveTimeAverage(const FreshnessCurve& curve, double from, double to);

}  // namespace webevo::freshness

#endif  // WEBEVO_FRESHNESS_ANALYTIC_H_
