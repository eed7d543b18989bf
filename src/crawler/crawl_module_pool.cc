#include "crawler/crawl_module_pool.h"

#include <algorithm>

namespace webevo::crawler {

CrawlModulePool::CrawlModulePool(simweb::SimulatedWeb* web,
                                 const CrawlModuleConfig& config,
                                 int parallelism) {
  parallelism = std::max(1, parallelism);
  modules_.reserve(static_cast<std::size_t>(parallelism));
  for (int i = 0; i < parallelism; ++i) {
    modules_.push_back(std::make_unique<CrawlModule>(web, config));
  }
}

StatusOr<simweb::FetchResult> CrawlModulePool::Crawl(
    const simweb::Url& url, double t) {
  return modules_[ShardOf(url.site)]->Crawl(url, t);
}

double CrawlModulePool::NextAllowedTime(uint32_t site) const {
  return modules_[ShardOf(site)]->NextAllowedTime(site);
}

std::vector<std::pair<uint32_t, double>>
CrawlModulePool::ExportPoliteness() const {
  std::vector<std::pair<uint32_t, double>> records;
  for (const auto& m : modules_) m->ExportPoliteness(&records);
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return records;
}

void CrawlModulePool::RestorePoliteness(
    const std::vector<std::pair<uint32_t, double>>& records) {
  for (const auto& m : modules_) m->ClearPoliteness();
  for (const auto& [site, last_access] : records) {
    modules_[ShardOf(site)]->RestorePoliteness(site, last_access);
  }
}

CrawlModulePool::Traffic CrawlModulePool::AggregateTraffic() const {
  Traffic total = baseline_;
  for (const auto& m : modules_) total.Merge(m->traffic());
  return total;
}

void CrawlModulePool::RestoreTraffic(const Traffic& traffic) {
  for (const auto& m : modules_) m->ResetTraffic();
  baseline_ = traffic;
}

}  // namespace webevo::crawler
