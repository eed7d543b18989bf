#include "experiment/monitoring_experiment.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>

namespace webevo::experiment {

namespace {

std::vector<uint32_t> SiteSizes(const simweb::SimulatedWeb& web) {
  std::vector<uint32_t> sizes(web.num_sites());
  for (uint32_t s = 0; s < web.num_sites(); ++s) sizes[s] = web.site_size(s);
  return sizes;
}

}  // namespace

MonitoringExperiment::MonitoringExperiment(simweb::SimulatedWeb* web,
                                           const MonitoringConfig& config)
    : web_(web), config_(config), table_(SiteSizes(*web)) {
  windows_.reserve(web->num_sites());
  for (uint32_t s = 0; s < web->num_sites(); ++s) {
    windows_.emplace_back(s, config.window_size);
  }
  int threads = config.parallelism;
  const auto cores = static_cast<int>(std::thread::hardware_concurrency());
  if (cores > 0) threads = std::min(threads, cores);
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
}

Status MonitoringExperiment::RunDay(int day) {
  if (day != days_completed_) {
    return Status::FailedPrecondition("days must be run in order");
  }
  if (day >= config_.num_days) {
    return Status::OutOfRange("past the configured campaign length");
  }
  double t = config_.start_time + static_cast<double>(day) +
             config_.visit_hour_fraction;

  // Every fetch of the day is at `t`, and a window fetches only its own
  // site's pages, so the visits are independent: threads claim windows
  // from one cursor, in any order.
  std::vector<WindowVisit> visits(windows_.size());
  std::atomic<std::size_t> next{0};
  const std::function<void()> visit_windows = [&] {
    for (std::size_t s = next.fetch_add(1, std::memory_order_relaxed);
         s < windows_.size();
         s = next.fetch_add(1, std::memory_order_relaxed)) {
      visits[s] = windows_[s].Visit(*web_, t);
    }
  };
  web_->BeginConcurrentBatch(t);
  if (pool_ == nullptr) {
    visit_windows();
  } else {
    pool_->RunAndWait(std::vector<std::function<void()>>(
        static_cast<std::size_t>(pool_->size()), visit_windows));
  }
  web_->EndConcurrentBatch();

  // One thread records every visit. Each site's rows would come out in
  // the same order if the visiting threads recorded their own sites, but
  // their malloc arenas would then hold the rows and raise peak memory.
  for (std::size_t s = 0; s < windows_.size(); ++s) {
    const simweb::Domain domain = web_->site_domain(windows_[s].site());
    for (const Observation& obs : visits[s].pages) {
      table_.Record(domain, day, obs);
    }
  }
  ++days_completed_;
  return Status::Ok();
}

Status MonitoringExperiment::Run() {
  if (days_completed_ != 0) {
    return Status::FailedPrecondition("experiment already ran");
  }
  for (int day = 0; day < config_.num_days; ++day) {
    Status st = RunDay(day);
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

uint64_t MonitoringExperiment::total_fetches() const {
  uint64_t total = 0;
  for (const PageWindow& window : windows_) {
    total += window.total_fetches();
  }
  return total;
}

}  // namespace webevo::experiment
