#ifndef WEBEVO_EXPERIMENT_MONITORING_EXPERIMENT_H_
#define WEBEVO_EXPERIMENT_MONITORING_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "experiment/page_stats.h"
#include "experiment/page_window.h"
#include "simweb/simulated_web.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace webevo::experiment {

/// Parameters of the monitoring campaign. Paper values: 270 sites
/// visited daily for ~128 days (Feb 17 - Jun 24, 1999) with a 3,000
/// page window per site.
struct MonitoringConfig {
  int num_days = 128;
  std::size_t window_size = 3000;
  double start_time = 0.0;
  /// Hour-of-day offset for the nightly crawl (the paper crawled 9PM -
  /// 6AM); purely cosmetic for the statistics but keeps visit times off
  /// integer boundaries.
  double visit_hour_fraction = 0.0;
  /// Threads that visit a day's site windows, capped at the host's
  /// hardware concurrency; 1 visits them inline. Every result (table,
  /// counters, web state) is identical at any value.
  int parallelism = 4;
};

/// Re-runs the paper's Sections 2-3 measurement procedure against a
/// simulated web: every day, visit every monitored site's page window
/// and record sightings and checksum changes into a PageStatsTable,
/// from which the Figure 2/4/5/6 analyses are derived.
///
/// A day visits its windows concurrently (each window fetches only its
/// own site's pages and links, all at the day's time), then records the
/// visits into the table on one thread. The table keeps each site's
/// rows in first-sighting order, so its contents and row order are the
/// serial run's at any parallelism.
class MonitoringExperiment {
 public:
  MonitoringExperiment(simweb::SimulatedWeb* web,
                       const MonitoringConfig& config);

  /// Runs the full campaign. Call once.
  Status Run();

  /// Runs a single day (0-based); exposed for incremental drivers and
  /// tests. Days must be run in order.
  Status RunDay(int day);

  const PageStatsTable& table() const { return table_; }
  const MonitoringConfig& config() const { return config_; }
  uint64_t total_fetches() const;
  int days_completed() const { return days_completed_; }

 private:
  simweb::SimulatedWeb* web_;  // not owned
  MonitoringConfig config_;
  std::vector<PageWindow> windows_;
  PageStatsTable table_;
  int days_completed_ = 0;
  // The visiting threads; null when the windows are visited inline.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace webevo::experiment

#endif  // WEBEVO_EXPERIMENT_MONITORING_EXPERIMENT_H_
