#ifndef WEBEVO_CRAWLER_CRAWL_MODULE_POOL_H_
#define WEBEVO_CRAWLER_CRAWL_MODULE_POOL_H_

#include <memory>
#include <utility>
#include <vector>

#include "crawler/crawl_module.h"

namespace webevo::crawler {

/// A pool of CrawlModules — the paper's note that "multiple
/// CrawlModule's may run in parallel, depending on how fast we need to
/// crawl pages" (Section 5.3).
///
/// Requests are sharded by *site*, so each site's politeness state is
/// owned by exactly one module: parallelism multiplies aggregate
/// throughput without ever letting two workers hit one site
/// back-to-back. The pool itself is routing + accounting; the
/// ShardedCrawlEngine drives the modules from real worker threads,
/// partitioning each fetch batch with the same ShardOf mapping so a
/// module is only ever touched by its own shard's thread.
class CrawlModulePool {
 public:
  /// Creates `parallelism` modules (>= 1; clamped) sharing the web and
  /// configuration.
  CrawlModulePool(simweb::SimulatedWeb* web,
                  const CrawlModuleConfig& config, int parallelism);

  /// Routes the fetch to the module owning url.site; the result is
  /// resolved, not digested (CrawlModule::Crawl).
  StatusOr<simweb::FetchResult> Crawl(const simweb::Url& url, double t);

  /// Earliest polite time for `site` (per the owning module).
  double NextAllowedTime(uint32_t site) const;

  /// Every (site, last access time) pair across all modules, ascending
  /// by site — canonical at every shard count, since each site's
  /// politeness state lives in exactly one module.
  std::vector<std::pair<uint32_t, double>> ExportPoliteness() const;

  /// Replaces the pool's politeness state with `records`, routing each
  /// site to its owning module (the records may come from a pool with a
  /// different shard count).
  void RestorePoliteness(
      const std::vector<std::pair<uint32_t, double>>& records);

  int parallelism() const { return static_cast<int>(modules_.size()); }

  /// Shard index owning `site` — the same mapping the
  /// ShardedCrawlEngine partitions fetch batches with, so one worker
  /// thread is the sole caller of each module.
  std::size_t ShardOf(uint32_t site) const {
    return site % modules_.size();
  }

  /// The module that owns a site's politeness state.
  const CrawlModule& module_for_site(uint32_t site) const {
    return *modules_[ShardOf(site)];
  }

  /// Module by shard index (for per-shard accounting).
  const CrawlModule& module(std::size_t shard) const {
    return *modules_[shard];
  }

  /// The pool's canonical traffic aggregate: every module's ledger
  /// and any restored baseline, merged. It is identical at every
  /// parallelism, which is what lets checkpoints carry it (the
  /// "traffic" section) without breaking the N=1 / N=8 byte identity.
  using Traffic = CrawlModule::Traffic;
  Traffic AggregateTraffic() const;

  /// Checkpoint restore: zeroes every module's live ledger and installs
  /// `traffic` as the carried-over baseline, so post-restore aggregates
  /// cover the whole crawl. Politeness state is untouched.
  void RestoreTraffic(const Traffic& traffic);

 private:
  std::vector<std::unique_ptr<CrawlModule>> modules_;
  /// Carried-over aggregate from a checkpoint restore; zero-valued
  /// until RestoreTraffic installs one.
  Traffic baseline_;
};

}  // namespace webevo::crawler

#endif  // WEBEVO_CRAWLER_CRAWL_MODULE_POOL_H_
