#ifndef WEBEVO_CRAWLER_CRAWL_MODULE_H_
#define WEBEVO_CRAWLER_CRAWL_MODULE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "simweb/page.h"
#include "simweb/simulated_web.h"
#include "simweb/url.h"
#include "util/status.h"

namespace webevo::crawler {

/// Politeness and accounting configuration for the CrawlModule.
struct CrawlModuleConfig {
  /// Minimum delay between two requests to the same site, in days.
  /// The paper's own study waited "at least 10 seconds between requests
  /// to a single site" (10 s ~ 1.16e-4 days). 0 disables enforcement —
  /// appropriate for policy simulations where per-site pacing is not
  /// under study.
  double per_site_delay_days = 0.0;

  /// If true, a fetch violating the per-site delay fails with
  /// FailedPrecondition instead of being served; the caller should
  /// reschedule. If false the delay is tracked but not enforced.
  bool enforce_politeness = false;
};

/// The `CrawlModule` of Figure 12: performs fetches against the
/// (simulated) web, tracks politeness per site, and accounts traffic —
/// including the peak-vs-average crawl speed the paper's Section 4
/// argues makes steady crawlers friendlier than batch crawlers.
///
/// Multiple CrawlModules over one web model the paper's note that
/// "multiple CrawlModule's may run in parallel".
class CrawlModule {
 public:
  CrawlModule(simweb::SimulatedWeb* web, const CrawlModuleConfig& config)
      : web_(web), config_(config) {}

  /// Fetches `url` at time `t`. Propagates the web's classified
  /// outcome: NotFound for dead pages, Unavailable for transient
  /// failures (errors, outages, overload, dead sites), DeadlineExceeded
  /// for timeouts; FailedPrecondition when politeness is enforced and
  /// violated. Timeout and slow-response latency widens the site's
  /// polite window (the connection was held for that long).
  StatusOr<simweb::FetchResult> Crawl(const simweb::Url& url, double t);

  /// Earliest time a request to `site` is polite.
  double NextAllowedTime(uint32_t site) const;

  /// Appends every site this module has accessed, with its last access
  /// time, to `out` — the behavioural politeness state a checkpoint
  /// must carry so a restarted crawler does not hammer a site it hit
  /// moments before the save.
  void ExportPoliteness(
      std::vector<std::pair<uint32_t, double>>* out) const;

  /// Drops all politeness state (checkpoint restore starts clean).
  void ClearPoliteness() { last_access_.clear(); }

  /// Restores one site's last access time.
  void RestorePoliteness(uint32_t site, double last_access);

  /// The traffic ledger. Day buckets are *absolute* simulation days
  /// (bucket d counts fetches with floor(t) == d), so merging the
  /// modules' ledgers is a pure function of the fetch stream,
  /// independent of the site-to-module split.
  struct Traffic {
    uint64_t fetch_count = 0;  ///< failures too: a 404 costs a request
    uint64_t failure_count = 0;
    uint64_t politeness_rejections = 0;
    std::vector<uint64_t> fetches_per_day;
    double first_fetch_time = 0.0;
    double last_fetch_time = 0.0;
    bool any_fetch = false;

    void RecordFetch(double t);
    /// Counters and day buckets sum; the time bounds take their union.
    void Merge(const Traffic& other);
    /// Peak fetches within any single day, and the all-time average
    /// rate — the load numbers Figure 10 contrasts.
    double PeakDailyRate() const;
    double AverageDailyRate() const;
  };
  const Traffic& traffic() const { return traffic_; }

  /// Zeroes the traffic ledger (politeness state is untouched), for a
  /// checkpoint restore that installs a carried-over baseline.
  void ResetTraffic() { traffic_ = Traffic{}; }

 private:
  simweb::SimulatedWeb* web_;  // not owned
  CrawlModuleConfig config_;
  std::vector<double> last_access_;  // per site; grows on demand
  Traffic traffic_;
};

}  // namespace webevo::crawler

#endif  // WEBEVO_CRAWLER_CRAWL_MODULE_H_
