// Serving-layer concurrency bench: sustained query throughput of the
// MVCC BatchView read path while the crawler is live.
//
// Two gates, both exercised by CI:
//   1. Determinism: the full chain of published view fingerprints must
//      be identical at 1 and 8 shards (exit non-zero on mismatch) —
//      the serving half of the repo's N = 1 vs N = 8 bit-identity
//      invariant.
//   2. Liveness: M reader threads hammer Acquire/Release while the
//      crawl loop runs; the bench exits non-zero unless every reader
//      completed a nonzero number of queries (a stuck reader or a
//      writer-starved registry fails the smoke).
//
// Each "query" acquires the latest view, scans its sites relation
// (the aggregate a dashboard would render), verifies the view is
// coherent, and releases — so the measured qps prices the whole
// reader contract, not just the refcount bump.
//
// Usage:
//   bench_serving_concurrency [readers...]        (default: 1 2 4 8)
// Env:
//   WEBEVO_SCALE   workload multiplier            (default 1.0)
//   WEBEVO_DAYS    virtual days to crawl per run  (default 12)

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "crawler/incremental_crawler.h"
#include "serving/batch_view.h"
#include "serving/view_registry.h"
#include "simweb/simulated_web.h"
#include "simweb/web_config.h"
#include "util/table.h"

namespace {

using namespace webevo;

crawler::IncrementalCrawlerConfig CrawlConfig(int shards, double scale) {
  crawler::IncrementalCrawlerConfig config;
  config.collection_capacity = static_cast<std::size_t>(1000 * scale);
  config.crawl_rate_pages_per_day =
      static_cast<double>(config.collection_capacity) / 2.0;
  config.freshness_sample_interval_days = 1.0;
  config.crawl_parallelism = shards;
  config.publish_view_every_batches = 1;
  config.crawl.per_site_delay_days = 1e-4;
  config.crawl.enforce_politeness = true;
  return config;
}

simweb::WebConfig Web(double scale) {
  simweb::WebConfig wc = simweb::WebConfig().Scaled(0.1 * scale);
  wc.seed = 19990217;
  wc.max_site_size = 250;
  return wc;
}

/// Runs the crawl at `shards` shards with no readers and returns the
/// registry's fingerprint chain — the determinism gate's probe.
uint64_t ChainAt(int shards, double scale, double days) {
  simweb::SimulatedWeb web(Web(scale));
  crawler::IncrementalCrawler crawl(&web, CrawlConfig(shards, scale));
  if (!crawl.Bootstrap(0.0).ok() || !crawl.RunUntil(days).ok()) {
    std::fprintf(stderr, "determinism run failed at %d shards\n",
                 shards);
    std::exit(2);
  }
  return crawl.views().fingerprint_chain();
}

struct ReaderResult {
  int readers = 0;
  uint64_t queries = 0;
  uint64_t min_per_reader = 0;
  double wall_seconds = 0.0;
  uint64_t views_published = 0;
  uint64_t views_destroyed = 0;
};

/// One crawl run with `readers` concurrent query threads.
ReaderResult RunWithReaders(int readers, double scale, double days) {
  simweb::SimulatedWeb web(Web(scale));
  crawler::IncrementalCrawler crawl(&web, CrawlConfig(2, scale));
  if (!crawl.Bootstrap(0.0).ok()) {
    std::fprintf(stderr, "bootstrap failed\n");
    std::exit(2);
  }
  // Publish the bootstrap state so readers have a view from t = 0.
  crawl.PublishViewNow();

  serving::ViewRegistry& registry = crawl.views();
  std::atomic<bool> stop{false};
  std::vector<uint64_t> counts(static_cast<std::size_t>(readers), 0);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(readers));
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&registry, &stop, &counts, r] {
      uint64_t queries = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        serving::ViewRef view = registry.AcquireRef();
        if (!view) continue;
        // The dashboard query: total pages and the hottest site by
        // mean change rate, off the immutable sites relation.
        uint64_t pages = 0;
        double hottest = 0.0;
        for (const serving::SiteRow& site : view->sites) {
          pages += site.pages;
          if (site.mean_est_rate > hottest) {
            hottest = site.mean_est_rate;
          }
        }
        if (pages != view->collection_size) {
          std::fprintf(stderr, "torn view: %llu pages vs size %llu\n",
                       static_cast<unsigned long long>(pages),
                       static_cast<unsigned long long>(
                           view->collection_size));
          std::exit(3);
        }
        ++queries;
      }
      counts[static_cast<std::size_t>(r)] = queries;
    });
  }

  auto start = std::chrono::steady_clock::now();
  if (!crawl.RunUntil(days).ok()) {
    std::fprintf(stderr, "crawl failed\n");
    std::exit(2);
  }
  double wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  stop.store(true);
  for (std::thread& thread : threads) thread.join();

  ReaderResult result;
  result.readers = readers;
  result.wall_seconds = wall;
  result.min_per_reader = ~0ull;
  for (uint64_t count : counts) {
    result.queries += count;
    if (count < result.min_per_reader) result.min_per_reader = count;
  }
  result.views_published = crawl.engine().stats().views_published;
  result.views_destroyed = registry.destroyed();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::ScaleFromEnv();
  const double days = bench::EnvOr("WEBEVO_DAYS", 12.0);
  std::vector<int> reader_counts;
  for (int i = 1; i < argc; ++i) {
    int n = std::atoi(argv[i]);
    if (n > 0) reader_counts.push_back(n);
  }
  if (reader_counts.empty()) reader_counts = {1, 2, 4, 8};

  std::printf("determinism gate: fingerprint chain at 1 vs 8 shards "
              "(%.1f days, scale %.2f)...\n",
              days, scale);
  const uint64_t chain1 = ChainAt(1, scale, days);
  const uint64_t chain8 = ChainAt(8, scale, days);
  if (chain1 != chain8) {
    std::printf("FAIL: view chains diverge (%016llx vs %016llx)\n",
                static_cast<unsigned long long>(chain1),
                static_cast<unsigned long long>(chain8));
    return 1;
  }
  std::printf("ok: chain %016llx at both shard counts\n\n",
              static_cast<unsigned long long>(chain1));

  webevo::TablePrinter table({"readers", "queries", "qps",
                              "min qps/reader", "views", "destroyed",
                              "crawl s"});
  bool starved = false;
  for (int readers : reader_counts) {
    ReaderResult r = RunWithReaders(readers, scale, days);
    if (r.min_per_reader == 0) starved = true;
    table.AddRow(
        {std::to_string(r.readers),
         std::to_string(r.queries),
         webevo::TablePrinter::Fmt(
             static_cast<double>(r.queries) / r.wall_seconds, 0),
         webevo::TablePrinter::Fmt(
             static_cast<double>(r.min_per_reader) / r.wall_seconds, 0),
         std::to_string(r.views_published),
         std::to_string(r.views_destroyed),
         webevo::TablePrinter::Fmt(r.wall_seconds, 2)});
  }
  std::printf("%s", table.ToString().c_str());
  if (starved) {
    std::printf("FAIL: a reader finished zero queries\n");
    return 1;
  }
  std::printf("ok: every reader made progress under the live crawl\n");
  return 0;
}
