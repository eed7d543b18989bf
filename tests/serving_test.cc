// Serving-layer tests: the ViewRegistry's MVCC acquire/release
// lifecycle (retention, deferred destruction, reader holds across
// many publishes, concurrent readers under a live writer — the TSan
// target), the published BatchView's byte-identity across shard
// counts, and the LoadCrawler contract (held views survive a restore
// unchanged; fresh acquires see the restored state).

#include <atomic>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "crawler/incremental_crawler.h"
#include "crawler/periodic_crawler.h"
#include "crawler/snapshot.h"
#include "serving/batch_view.h"
#include "serving/view_builder.h"
#include "serving/view_registry.h"
#include "simweb/simulated_web.h"
#include "simweb/web_config.h"
#include "util/hash.h"

namespace webevo::serving {
namespace {

std::unique_ptr<const BatchView> SyntheticView(uint64_t batch) {
  auto view = std::make_unique<BatchView>();
  view->crawler = "synthetic";
  view->batch = batch;
  // A reader-checkable invariant: a coherent view always satisfies
  // collection_size == 3 * batch (readers in the concurrency test
  // assert it to catch torn publishes).
  view->collection_size = 3 * batch;
  return view;
}

std::string ViewBytes(const BatchView& view) {
  std::ostringstream os;
  view.Serialize(os);
  return os.str();
}

// ------------------------------------------------------------ lifecycle

TEST(ViewRegistryTest, EmptyRegistryAcquiresNothing) {
  ViewRegistry registry(3);
  EXPECT_EQ(registry.Acquire(), nullptr);
  EXPECT_FALSE(registry.AcquireRef());
  EXPECT_EQ(registry.published(), 0u);
}

TEST(ViewRegistryTest, AcquireReturnsLatestPublish) {
  ViewRegistry registry(3);
  registry.Publish(SyntheticView(1));
  registry.Publish(SyntheticView(2));
  ViewRef view = registry.AcquireRef();
  ASSERT_TRUE(view);
  EXPECT_EQ(view->batch, 2u);
  EXPECT_EQ(registry.published(), 2u);
  EXPECT_EQ(registry.retired(), 0u);
}

TEST(ViewRegistryTest, RetentionRetiresExactlyTheOldest) {
  ViewRegistry registry(3);
  for (uint64_t i = 1; i <= 5; ++i) registry.Publish(SyntheticView(i));
  // K = 3: epochs 1 and 2 are retired, 3..5 retained.
  EXPECT_EQ(registry.retired(), 2u);
  EXPECT_EQ(registry.destroyed(), 2u);
  ViewRef view = registry.AcquireRef();
  ASSERT_TRUE(view);
  EXPECT_EQ(view->batch, 5u);
}

TEST(ViewRegistryTest, ReaderHoldsViewAcrossManyPublishes) {
  // A reader may hold a view across any number of batches — far more
  // than the retention K — and the view stays valid and unchanged
  // (destruction is deferred to the last Release, not retirement).
  ViewRegistry registry(2);
  registry.Publish(SyntheticView(1));
  const BatchView* held = registry.Acquire();
  ASSERT_NE(held, nullptr);
  const std::string before = ViewBytes(*held);
  for (uint64_t i = 2; i <= 12; ++i) registry.Publish(SyntheticView(i));
  // Epoch 1 was retired long ago but the held reference keeps it
  // alive; every *other* retired view is destroyed.
  EXPECT_EQ(registry.retired(), 10u);
  EXPECT_EQ(registry.destroyed(), 9u);
  EXPECT_EQ(held->batch, 1u);
  EXPECT_EQ(ViewBytes(*held), before);
  registry.Release(held);
  EXPECT_EQ(registry.destroyed(), 10u);
}

TEST(ViewRegistryTest, ClearRetiresButHeldReferencesSurvive) {
  ViewRegistry registry(4);
  registry.Publish(SyntheticView(1));
  registry.Publish(SyntheticView(2));
  ViewRef held = registry.AcquireRef();
  registry.Clear();
  EXPECT_EQ(registry.Acquire(), nullptr);
  EXPECT_EQ(registry.retired(), 2u);
  ASSERT_TRUE(held);
  EXPECT_EQ(held->batch, 2u);
  held.reset();
  EXPECT_EQ(registry.destroyed(), 2u);
}

TEST(ViewRegistryTest, FingerprintChainCoversEveryPublish) {
  ViewRegistry a(2);
  ViewRegistry b(2);
  for (uint64_t i = 1; i <= 6; ++i) {
    a.Publish(SyntheticView(i));
    b.Publish(SyntheticView(i));
  }
  EXPECT_NE(a.fingerprint_chain(), 0u);
  EXPECT_EQ(a.fingerprint_chain(), b.fingerprint_chain());
  ViewRegistry c(2);
  for (uint64_t i = 1; i <= 5; ++i) c.Publish(SyntheticView(i));
  EXPECT_NE(a.fingerprint_chain(), c.fingerprint_chain());
}

// The TSan target: M readers acquire/inspect/release in a tight loop
// while the single writer publishes far more views than the retention
// window holds. Run under -DWEBEVO_TSAN=ON this proves the epoch/pin
// protocol has no data race; in any build it proves no use-after-free
// and no torn view.
TEST(ViewRegistryTest, ConcurrentReadersUnderLiveWriter) {
  ViewRegistry registry(3);
  registry.Publish(SyntheticView(1));
  constexpr int kReaders = 4;
  constexpr uint64_t kPublishes = 3000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  // The writer starts once every reader has acquired a view, so the
  // publishes always race live readers. A reader whose assertion fails
  // before its first read still arrives, on its way out, so the writer
  // never waits for a reader that stopped.
  std::atomic<int> arrived{0};
  struct Arrival {
    std::atomic<int>& count;
    bool done = false;
    void Once() {
      if (!done) count.fetch_add(1);
      done = true;
    }
    ~Arrival() { Once(); }
  };
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&registry, &stop, &reads, &arrived] {
      Arrival arrival{arrived};
      uint64_t last_seen = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ViewRef view = registry.AcquireRef();
        ASSERT_TRUE(view);
        // Coherence: never a torn view, never time running backwards.
        ASSERT_EQ(view->collection_size, 3 * view->batch);
        ASSERT_GE(view->batch, last_seen);
        last_seen = view->batch;
        reads.fetch_add(1, std::memory_order_relaxed);
        arrival.Once();
      }
    });
  }
  while (arrived.load() < kReaders) std::this_thread::yield();
  for (uint64_t i = 2; i <= kPublishes; ++i) {
    registry.Publish(SyntheticView(i));
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(registry.published(), kPublishes);
  // Retirement stayed deterministic under concurrency: everything but
  // the retained window was retired.
  EXPECT_EQ(registry.retired(), kPublishes - 3);
}

// ------------------------------------------- determinism across shards

simweb::WebConfig SmallWeb() {
  simweb::WebConfig config = simweb::WebConfig().Scaled(0.03);
  config.seed = 20260808;
  config.min_site_size = 10;
  config.max_site_size = 40;
  return config;
}

crawler::IncrementalCrawlerConfig IncConfig(int parallelism) {
  crawler::IncrementalCrawlerConfig config;
  config.collection_capacity = 200;
  config.crawl_rate_pages_per_day = 120.0;
  config.crawl_parallelism = parallelism;
  config.publish_view_every_batches = 1;
  config.crawl.per_site_delay_days = 1e-3;
  config.crawl.enforce_politeness = true;
  return config;
}

crawler::PeriodicCrawlerConfig PerConfig(int parallelism) {
  crawler::PeriodicCrawlerConfig config;
  config.collection_capacity = 150;
  config.cycle_days = 4.0;
  config.crawl_window_days = 2.0;
  config.crawl_parallelism = parallelism;
  config.publish_view_every_batches = 1;
  return config;
}

TEST(BatchViewDeterminismTest, IncrementalViewsByteIdenticalAcrossShards) {
  std::string bytes[2];
  uint64_t chains[2];
  const int shard_counts[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    simweb::SimulatedWeb web(SmallWeb());
    crawler::IncrementalCrawler crawl(&web, IncConfig(shard_counts[i]));
    ASSERT_TRUE(crawl.Bootstrap(0.0).ok());
    ASSERT_TRUE(crawl.RunUntil(6.0).ok());
    ViewRef view = crawl.views().AcquireRef();
    ASSERT_TRUE(view);
    bytes[i] = ViewBytes(*view);
    // Fingerprint hashes the lines as it formats them; it must equal
    // the FNV-1a of the bytes Serialize writes.
    EXPECT_EQ(view->Fingerprint(), Fnv1a64(bytes[i]));
    chains[i] = crawl.views().fingerprint_chain();
    EXPECT_EQ(crawl.views().published(),
              crawl.engine().stats().views_published);
  }
  // Byte identity of the latest view AND chain identity over every
  // view ever published — N = 8 publishes the same sequence as N = 1.
  EXPECT_EQ(bytes[0], bytes[1]);
  EXPECT_EQ(chains[0], chains[1]);
  EXPECT_FALSE(bytes[0].empty());
}

TEST(BatchViewDeterminismTest, PeriodicViewsByteIdenticalAcrossShards) {
  std::string bytes[2];
  uint64_t chains[2];
  const int shard_counts[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    simweb::SimulatedWeb web(SmallWeb());
    crawler::PeriodicCrawler crawl(&web, PerConfig(shard_counts[i]));
    ASSERT_TRUE(crawl.Bootstrap(0.0).ok());
    ASSERT_TRUE(crawl.RunUntil(6.0).ok());
    ViewRef view = crawl.views().AcquireRef();
    ASSERT_TRUE(view);
    bytes[i] = ViewBytes(*view);
    // Fingerprint hashes the lines as it formats them; it must equal
    // the FNV-1a of the bytes Serialize writes.
    EXPECT_EQ(view->Fingerprint(), Fnv1a64(bytes[i]));
    chains[i] = crawl.views().fingerprint_chain();
  }
  EXPECT_EQ(bytes[0], bytes[1]);
  EXPECT_EQ(chains[0], chains[1]);
  EXPECT_FALSE(bytes[0].empty());
}

TEST(BatchViewDeterminismTest, ViewRowsAreInCanonicalOrder) {
  simweb::SimulatedWeb web(SmallWeb());
  crawler::IncrementalCrawler crawl(&web, IncConfig(2));
  ASSERT_TRUE(crawl.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawl.RunUntil(4.0).ok());
  ViewRef view = crawl.views().AcquireRef();
  ASSERT_TRUE(view);
  ASSERT_FALSE(view->pages.empty());
  simweb::UrlIdentityLess less;
  for (std::size_t i = 1; i < view->pages.size(); ++i) {
    EXPECT_TRUE(less(view->pages[i - 1].url, view->pages[i].url));
  }
  for (std::size_t i = 1; i < view->sites.size(); ++i) {
    EXPECT_LT(view->sites[i - 1].site, view->sites[i].site);
  }
  for (std::size_t i = 1; i < view->estimates.size(); ++i) {
    EXPECT_TRUE(less(view->estimates[i - 1].url, view->estimates[i].url));
  }
  // The summary carries the size the relations must agree with.
  EXPECT_EQ(view->pages.size(), view->collection_size);
  uint64_t site_pages = 0;
  for (const SiteRow& site : view->sites) site_pages += site.pages;
  EXPECT_EQ(site_pages, view->collection_size);
}

// ------------------------------------------------- restore (LoadCrawler)

TEST(ServingRestoreTest, HeldViewSurvivesRestoreAndFreshAcquireSeesIt) {
  simweb::SimulatedWeb web(SmallWeb());
  crawler::IncrementalCrawler crawl(&web, IncConfig(2));
  ASSERT_TRUE(crawl.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawl.RunUntil(3.0).ok());

  std::ostringstream checkpoint;
  ASSERT_TRUE(
      crawler::SaveCrawler(crawl, checkpoint, {.include_web = true})
          .ok());
  const uint64_t saved_batches = crawl.batches_completed();

  // Keep crawling past the checkpoint, holding a pre-restore view.
  ASSERT_TRUE(crawl.RunUntil(5.0).ok());
  ViewRef held = crawl.views().AcquireRef();
  ASSERT_TRUE(held);
  const std::string held_bytes = ViewBytes(*held);
  EXPECT_GT(held->batch, saved_batches);

  // Restore in place. The held reference must stay valid and
  // unchanged; a fresh acquire must see the *restored* state, not the
  // stale pre-restore history.
  std::istringstream in(checkpoint.str());
  ASSERT_TRUE(crawler::LoadCrawler(in, &crawl).ok());
  EXPECT_EQ(held_bytes, ViewBytes(*held));
  ViewRef fresh = crawl.views().AcquireRef();
  ASSERT_TRUE(fresh);
  EXPECT_EQ(fresh->batch, saved_batches);
  EXPECT_EQ(fresh->published_at, crawl.now());

  // The republished view matches what an uninterrupted builder would
  // produce from the same state.
  EXPECT_EQ(ViewBytes(*fresh), ViewBytes(*BuildBatchView(crawl)));
}

TEST(ServingRestoreTest, RestoredRunPublishesIdenticalViewChain) {
  // Bit-identical resume extends to the serving layer: run to day 6
  // uninterrupted vs checkpoint-at-3-then-resume — the final view
  // bytes match (chains diverge only by the restore's republish).
  simweb::SimulatedWeb web_a(SmallWeb());
  crawler::IncrementalCrawler uninterrupted(&web_a, IncConfig(1));
  ASSERT_TRUE(uninterrupted.Bootstrap(0.0).ok());
  ASSERT_TRUE(uninterrupted.RunUntil(6.0).ok());

  simweb::SimulatedWeb web_b(SmallWeb());
  crawler::IncrementalCrawler source(&web_b, IncConfig(1));
  ASSERT_TRUE(source.Bootstrap(0.0).ok());
  ASSERT_TRUE(source.RunUntil(3.0).ok());
  std::ostringstream checkpoint;
  ASSERT_TRUE(
      crawler::SaveCrawler(source, checkpoint, {.include_web = true})
          .ok());

  simweb::SimulatedWeb web_c(SmallWeb());
  crawler::IncrementalCrawler resumed(&web_c, IncConfig(1));
  std::istringstream in(checkpoint.str());
  ASSERT_TRUE(crawler::LoadCrawler(in, &resumed).ok());
  ASSERT_TRUE(resumed.RunUntil(6.0).ok());

  ViewRef a = uninterrupted.views().AcquireRef();
  ViewRef b = resumed.views().AcquireRef();
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  EXPECT_EQ(ViewBytes(*a), ViewBytes(*b));
}

TEST(ServingRestoreTest, RestoreWithoutPublishingLeavesRegistryEmpty) {
  simweb::SimulatedWeb web(SmallWeb());
  crawler::IncrementalCrawlerConfig config = IncConfig(1);
  crawler::IncrementalCrawler source(&web, config);
  ASSERT_TRUE(source.Bootstrap(0.0).ok());
  ASSERT_TRUE(source.RunUntil(2.0).ok());
  std::ostringstream checkpoint;
  ASSERT_TRUE(
      crawler::SaveCrawler(source, checkpoint, {.include_web = true})
          .ok());

  simweb::SimulatedWeb web_b(SmallWeb());
  config.publish_view_every_batches = 0;  // serving disabled
  crawler::IncrementalCrawler target(&web_b, config);
  std::istringstream in(checkpoint.str());
  ASSERT_TRUE(crawler::LoadCrawler(in, &target).ok());
  EXPECT_FALSE(target.views().AcquireRef());
}

}  // namespace
}  // namespace webevo::serving
