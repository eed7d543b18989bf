#include "crawler/crawl_module.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace webevo::crawler {

StatusOr<simweb::FetchResult> CrawlModule::Crawl(const simweb::Url& url,
                                                 double t) {
  // A site the web lacks (a crafted checkpoint can name one) takes no
  // politeness slot: the web answers NotFound, and the crawler
  // tombstones the URL like any vanished page.
  if (url.site < web_->num_sites()) {
    if (config_.enforce_politeness && config_.per_site_delay_days > 0.0 &&
        url.site < last_access_.size() &&
        t < last_access_[url.site] + config_.per_site_delay_days) {
      ++traffic_.politeness_rejections;
      return Status::FailedPrecondition("politeness delay not elapsed");
    }
    if (url.site >= last_access_.size()) {
      last_access_.resize(url.site + 1,
                          -std::numeric_limits<double>::infinity());
    }
    last_access_[url.site] = t;
  }

  traffic_.RecordFetch(t);
  double latency_days = 0.0;
  auto result = web_->Resolve(url, t, &latency_days);
  if (!result.ok()) ++traffic_.failure_count;
  if (latency_days > 0.0) {
    // A slow response or a timeout ties up the connection: the polite
    // window for this site starts when the stall ends, not when the
    // request was issued. Only a site the web has stalls.
    last_access_[url.site] = t + latency_days;
  }
  return result;
}

void CrawlModule::ExportPoliteness(
    std::vector<std::pair<uint32_t, double>>* out) const {
  for (std::size_t site = 0; site < last_access_.size(); ++site) {
    if (last_access_[site] >
        -std::numeric_limits<double>::infinity()) {
      out->emplace_back(static_cast<uint32_t>(site), last_access_[site]);
    }
  }
}

void CrawlModule::RestorePoliteness(uint32_t site, double last_access) {
  if (site >= last_access_.size()) {
    last_access_.resize(site + 1,
                        -std::numeric_limits<double>::infinity());
  }
  last_access_[site] = last_access;
}

double CrawlModule::NextAllowedTime(uint32_t site) const {
  if (config_.per_site_delay_days <= 0.0 || site >= last_access_.size()) {
    return 0.0;
  }
  return last_access_[site] + config_.per_site_delay_days;
}

void CrawlModule::Traffic::RecordFetch(double t) {
  ++fetch_count;
  if (!any_fetch) {
    first_fetch_time = t;
    any_fetch = true;
  }
  last_fetch_time = std::max(last_fetch_time, t);
  // Absolute-day bucket: floor(t), so histograms from different
  // modules (and from a checkpoint baseline) sum exactly.
  auto day = static_cast<std::size_t>(std::max(0.0, std::floor(t)));
  if (day >= fetches_per_day.size()) fetches_per_day.resize(day + 1, 0);
  ++fetches_per_day[day];
}

void CrawlModule::Traffic::Merge(const Traffic& other) {
  fetch_count += other.fetch_count;
  failure_count += other.failure_count;
  politeness_rejections += other.politeness_rejections;
  if (other.fetches_per_day.size() > fetches_per_day.size()) {
    fetches_per_day.resize(other.fetches_per_day.size(), 0);
  }
  for (std::size_t d = 0; d < other.fetches_per_day.size(); ++d) {
    fetches_per_day[d] += other.fetches_per_day[d];
  }
  if (!other.any_fetch) return;
  first_fetch_time =
      any_fetch ? std::min(first_fetch_time, other.first_fetch_time)
                : other.first_fetch_time;
  last_fetch_time = any_fetch ? std::max(last_fetch_time, other.last_fetch_time)
                              : other.last_fetch_time;
  any_fetch = true;
}

double CrawlModule::Traffic::PeakDailyRate() const {
  uint64_t peak = 0;
  for (uint64_t day : fetches_per_day) peak = std::max(peak, day);
  return static_cast<double>(peak);
}

double CrawlModule::Traffic::AverageDailyRate() const {
  if (!any_fetch) return 0.0;
  double span = std::max(1.0, last_fetch_time - first_fetch_time);
  return static_cast<double>(fetch_count) / span;
}

}  // namespace webevo::crawler
