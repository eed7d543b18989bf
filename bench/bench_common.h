#ifndef WEBEVO_BENCH_BENCH_COMMON_H_
#define WEBEVO_BENCH_BENCH_COMMON_H_

// Shared plumbing for the table/figure reproduction benches.
//
// Every bench binary regenerates one table or figure of Cho &
// Garcia-Molina, "The Evolution of the Web and Implications for an
// Incremental Crawler" (VLDB 2000), printing the paper's reported
// numbers next to the measured ones. Scale with the WEBEVO_SCALE env
// var (default 1.0 = the bench's own default workload, which is already
// a scaled-down-but-faithful version of the paper's 720k-page study).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "experiment/monitoring_experiment.h"
#include "simweb/simulated_web.h"
#include "simweb/web_config.h"

namespace webevo::bench {

/// Workload multiplier from the WEBEVO_SCALE environment variable.
inline double ScaleFromEnv() {
  const char* raw = std::getenv("WEBEVO_SCALE");
  if (raw == nullptr) return 1.0;
  double scale = std::atof(raw);
  return scale > 0.0 ? scale : 1.0;
}

/// A non-negative number from the environment variable `name`:
/// `fallback` when unset, the value as written otherwise — 0 included.
/// Anything that does not parse completely as a finite number >= 0 is
/// a usage error: the bench exits with code 2 rather than silently run
/// a workload other than the one asked for.
inline double EnvOr(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  char* end = nullptr;
  const double value = std::strtod(raw, &end);
  if (end == raw || *end != '\0' || !std::isfinite(value) || value < 0.0) {
    std::fprintf(stderr, "%s=\"%s\": expected a finite number >= 0\n",
                 name, raw);
    std::exit(2);
  }
  return value;
}

/// The study population used by the measurement benches: the paper's
/// 270-site domain mix scaled to `base_fraction * ScaleFromEnv()` of
/// its size, with calibrated change/lifespan profiles.
inline simweb::WebConfig StudyWeb(double base_fraction,
                                  uint64_t seed = 19990217) {
  simweb::WebConfig config =
      simweb::WebConfig().Scaled(base_fraction * ScaleFromEnv());
  config.seed = seed;
  // Keep sites within the monitoring window (the paper's 3,000-page
  // window also covered most of its sites): pages then leave the
  // window only when they die, not from BFS reshuffling at the window
  // edge, which would otherwise dominate the lifespan statistics at
  // this reduced scale.
  config.max_site_size = 250;
  return config;
}

/// A completed monitoring campaign (web + experiment kept alive
/// together), shared by the Figure 2/4/5/6 benches.
struct Study {
  std::unique_ptr<simweb::SimulatedWeb> web;
  std::unique_ptr<experiment::MonitoringExperiment> experiment;
  int days = 0;
};

/// Runs the paper's daily page-window campaign: `days` days over the
/// calibrated study population (Section 2's procedure). The default
/// parameters monitor ~40 sites with a 300-page window for 128 days —
/// a ~1/7-scale replica of the 270-site, 3000-page-window original.
inline Study RunStudy(int days = 128, std::size_t window = 300,
                      double base_fraction = 0.15) {
  Study study;
  study.days = days;
  study.web =
      std::make_unique<simweb::SimulatedWeb>(StudyWeb(base_fraction));
  experiment::MonitoringConfig config;
  config.num_days = days;
  config.window_size = window;
  study.experiment = std::make_unique<experiment::MonitoringExperiment>(
      study.web.get(), config);
  std::printf("running the campaign: %u sites, %zu-page windows, %d "
              "daily visits...\n",
              study.web->num_sites(), window, days);
  Status st = study.experiment->Run();
  if (!st.ok()) {
    std::printf("campaign failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  std::printf("campaign done: %llu fetches, %zu pages sighted\n\n",
              static_cast<unsigned long long>(
                  study.experiment->total_fetches()),
              study.experiment->table().num_pages());
  return study;
}

/// Prints the standard bench banner.
inline void Banner(const char* experiment_id, const char* paper_claim) {
  std::printf("================================================\n");
  std::printf("%s\n", experiment_id);
  std::printf("paper: %s\n", paper_claim);
  std::printf("================================================\n\n");
}

}  // namespace webevo::bench

#endif  // WEBEVO_BENCH_BENCH_COMMON_H_
