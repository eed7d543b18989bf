// Coverage for the sharded crawl engine stack: ThreadPool semantics,
// RunningStat::Merge, CrawlModulePool politeness isolation under the
// engine's shard partitioning, and the headline guarantee — simulation
// results are bit-identical no matter how many shards execute the
// fetches.

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "crawler/crawl_module_pool.h"
#include "crawler/eval.h"
#include "crawler/incremental_crawler.h"
#include "crawler/periodic_crawler.h"
#include "crawler/sharded_crawl_engine.h"
#include "crawler/snapshot.h"
#include "simweb/simulated_web.h"
#include "simweb/web_config.h"
#include "util/ledger.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace webevo::crawler {
namespace {

simweb::WebConfig SmallWeb(uint64_t seed) {
  simweb::WebConfig c;
  c.seed = seed;
  c.sites_per_domain = {5, 4, 2, 2};
  c.min_site_size = 20;
  c.max_site_size = 80;
  return c;
}

// --------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunAndWaitExecutesEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back([&counter] { ++counter; });
  }
  pool.RunAndWait(std::move(tasks));
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, RunAndWaitIsABarrier) {
  // Tasks of very different durations: RunAndWait must not return until
  // the slowest has finished.
  ThreadPool pool(3);
  std::atomic<int> finished{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back([&finished, i] {
      std::this_thread::sleep_for(std::chrono::milliseconds(i * 3));
      ++finished;
    });
  }
  pool.RunAndWait(std::move(tasks));
  EXPECT_EQ(finished.load(), 6);
}

TEST(ThreadPoolTest, SubmitRunsAsynchronouslyAndDrainsOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
  }  // destructor drains the queue
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ClampsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  std::atomic<bool> ran{false};
  pool.RunAndWait({[&ran] { ran = true; }});
  EXPECT_TRUE(ran.load());
}

// --------------------------------------------------------- RunningStat merge

TEST(RunningStatMergeTest, MatchesSequentialAccumulation) {
  Rng rng(17);
  RunningStat sequential;
  RunningStat shard_a, shard_b, shard_c;
  for (int i = 0; i < 3000; ++i) {
    double x = rng.Normal(3.0, 2.0);
    sequential.Add(x);
    (i % 3 == 0 ? shard_a : i % 3 == 1 ? shard_b : shard_c).Add(x);
  }
  RunningStat merged;
  merged.Merge(shard_a);
  merged.Merge(shard_b);
  merged.Merge(shard_c);
  EXPECT_EQ(merged.count(), sequential.count());
  EXPECT_NEAR(merged.mean(), sequential.mean(), 1e-9);
  EXPECT_NEAR(merged.variance(), sequential.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(merged.min(), sequential.min());
  EXPECT_DOUBLE_EQ(merged.max(), sequential.max());
}

TEST(RunningStatMergeTest, MergingEmptyIsIdentity) {
  RunningStat stat;
  stat.Add(1.0);
  stat.Add(5.0);
  RunningStat empty;
  stat.Merge(empty);
  EXPECT_EQ(stat.count(), 2);
  EXPECT_DOUBLE_EQ(stat.mean(), 3.0);
  empty.Merge(stat);
  EXPECT_EQ(empty.count(), 2);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

// ------------------------------------------------------ politeness isolation

TEST(ShardedEngineTest, SameSiteFetchesStayPoliteWithinOneBatch) {
  // Two fetches of one site inside a single parallel batch: the site's
  // owning module must serialise them and reject the second, for every
  // shard count.
  for (int shards : {1, 2, 8}) {
    simweb::SimulatedWeb web(SmallWeb(31));
    CrawlModuleConfig config;
    config.per_site_delay_days = 0.5;
    config.enforce_politeness = true;
    ShardedCrawlEngine engine(&web, config, shards);
    std::vector<PlannedFetch> batch;
    for (uint32_t s = 0; s < web.num_sites(); ++s) {
      batch.push_back({web.RootUrl(s), 0.0});
      batch.push_back({web.RootUrl(s), 0.1});  // within the delay
    }
    auto outcomes = engine.ExecuteBatch(batch);
    ASSERT_EQ(outcomes.size(), batch.size());
    for (std::size_t i = 0; i < outcomes.size(); i += 2) {
      EXPECT_TRUE(outcomes[i].ok()) << "shards=" << shards << " i=" << i;
      ASSERT_FALSE(outcomes[i + 1].ok());
      EXPECT_EQ(outcomes[i + 1].status().code(),
                StatusCode::kFailedPrecondition);
    }
    EXPECT_EQ(engine.pool().AggregateTraffic().politeness_rejections,
              web.num_sites());
  }
}

TEST(ShardedEngineTest, SiteOwnershipIsStableUnderTheShardMapping) {
  simweb::SimulatedWeb web(SmallWeb(32));
  CrawlModulePool pool(&web, {}, 5);
  for (uint32_t site = 0; site < web.num_sites(); ++site) {
    // Same module every time — politeness state has a single owner.
    const CrawlModule* owner = &pool.module_for_site(site);
    EXPECT_EQ(owner, &pool.module(pool.ShardOf(site)));
    EXPECT_EQ(pool.ShardOf(site), site % 5u);
  }
}

TEST(ShardedEngineTest, OutcomesComeBackInPlanOrder) {
  simweb::SimulatedWeb web(SmallWeb(33));
  ShardedCrawlEngine engine(&web, {}, 4);
  std::vector<PlannedFetch> batch;
  for (uint32_t s = 0; s < web.num_sites(); ++s) {
    batch.push_back({web.RootUrl(s), 0.25});
  }
  auto outcomes = engine.ExecuteBatch(batch);
  ASSERT_EQ(outcomes.size(), batch.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok());
    EXPECT_EQ(outcomes[i]->url, batch[i].url);
  }
  EXPECT_EQ(engine.stats().batches, 1u);
  EXPECT_EQ(engine.stats().fetches, batch.size());
  EXPECT_GT(engine.stats().busiest_shard_fetches.max(), 0.0);
  // Per-shard latency accumulators merged at the barrier: one sample
  // per fetch.
  EXPECT_EQ(engine.stats().fetch_latency_seconds.count(),
            static_cast<int64_t>(batch.size()));
  EXPECT_GE(engine.stats().fetch_latency_seconds.min(), 0.0);
}

TEST(ShardedEngineTest, BatchChecksumsEqualPerUrlFetch) {
  // Each shard digests its bodies together, in lanes, after its
  // resolves; at 16 KiB bodies every checksum must still be the one
  // Fetch gives URL by URL on a twin web. Spider traps put trap bodies
  // among the page bodies, and two batches days apart see changed
  // versions. Every shard owns far more than one lane group of URLs.
  for (int shards : {1, 4, 8}) {
    SCOPED_TRACE(testing::Message() << shards << " shards");
    simweb::WebConfig config = SmallWeb(71);
    config.page_body_bytes = 16384;
    config.adv_trap_site_prob = 0.3;
    config.adv_trap_links_per_fetch = 2;
    simweb::SimulatedWeb web(config);
    simweb::SimulatedWeb twin(config);
    ShardedCrawlEngine engine(&web, {}, shards);
    std::vector<simweb::Url> urls;
    for (uint32_t s = 0; s < web.num_sites(); ++s) {
      for (uint32_t slot = 0; slot < web.site_size(s); ++slot) {
        urls.push_back(simweb::Url{s, slot, 0});
      }
    }
    std::size_t digested = 0;
    std::size_t traps = 0;
    for (double t : {0.5, 9.5}) {
      std::vector<PlannedFetch> batch;
      for (const simweb::Url& url : urls) batch.push_back({url, t});
      auto outcomes = engine.ExecuteBatch(batch);
      ASSERT_EQ(outcomes.size(), batch.size());
      std::vector<simweb::Url> next;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        auto want = twin.Fetch(batch[i].url, t);
        ASSERT_EQ(outcomes[i].status(), want.status());
        if (!want.ok()) continue;
        EXPECT_EQ(outcomes[i]->checksum, want->checksum)
            << batch[i].url.ToString();
        EXPECT_EQ(outcomes[i]->version, want->version);
        ++digested;
        next.push_back(batch[i].url);
        for (const simweb::Url& link : want->links) {
          // Minted trap URLs join the next batch.
          if (link.slot >= web.site_size(link.site)) {
            next.push_back(link);
            ++traps;
          }
        }
      }
      urls = std::move(next);
    }
    EXPECT_GT(traps, 0u);
    EXPECT_GT(digested, 32u * static_cast<std::size_t>(shards));
    // One latency sample per fetch, digests included.
    EXPECT_EQ(engine.stats().fetch_latency_seconds.count(),
              static_cast<int64_t>(engine.stats().fetches));
  }
}

// ------------------------------------------------------- per-shard retry lane

TEST(ShardedEngineTest, RetryTimeIsCapturedAtTheAttemptNotBatchEnd) {
  // One site, three planned fetches: t=0 succeeds, t=0.1 is rejected
  // (within the 0.5-day delay), t=0.7 succeeds and pushes the site's
  // NextAllowedTime to 1.2. The retry lane must report 0.5 for the
  // rejected fetch — the polite time as of the attempt — not the
  // batch-end 1.2, at every shard count.
  for (int shards : {1, 4}) {
    simweb::SimulatedWeb web(SmallWeb(51));
    CrawlModuleConfig config;
    config.per_site_delay_days = 0.5;
    config.enforce_politeness = true;
    ShardedCrawlEngine engine(&web, config, shards);
    simweb::Url root = web.RootUrl(0);
    std::vector<PlannedFetch> batch = {
        {root, 0.0}, {root, 0.1}, {root, 0.7}};
    std::vector<double> retry_at;
    auto outcomes = engine.ExecuteBatch(batch, &retry_at);
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].ok());
    ASSERT_FALSE(outcomes[1].ok());
    EXPECT_EQ(outcomes[1].status().code(), StatusCode::kFailedPrecondition);
    EXPECT_TRUE(outcomes[2].ok());
    ASSERT_EQ(retry_at.size(), 3u);
    EXPECT_DOUBLE_EQ(retry_at[1], 0.5) << "shards=" << shards;
    EXPECT_DOUBLE_EQ(retry_at[2], 1.2);
    EXPECT_DOUBLE_EQ(engine.pool().NextAllowedTime(root.site), 1.2);
  }
}

// --------------------------------------------- sharded freshness measurement

TEST(ShardedEngineTest, ShardedMeasureIsBitIdenticalToSerialMeasure) {
  // Build a collection by fetching real pages, then let the web churn so
  // the measurement sees fresh, stale and dead entries.
  simweb::WebConfig wc = SmallWeb(61);
  wc.uniform_lifespan_days = 40.0;
  simweb::SimulatedWeb web(wc);
  Collection collection(10000);
  ShardedCrawlEngine engine(&web, {}, 1);
  std::vector<PlannedFetch> batch;
  for (uint32_t s = 0; s < web.num_sites(); ++s) {
    for (uint32_t slot = 0; slot < web.site_size(s); ++slot) {
      batch.push_back({simweb::Url{s, slot, 0}, 0.5});
    }
  }
  auto outcomes = engine.ExecuteBatch(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!outcomes[i].ok()) continue;
    CollectionEntry entry;
    entry.url = batch[i].url;
    entry.page = outcomes[i]->page;
    entry.version = outcomes[i]->version;
    entry.checksum = outcomes[i]->checksum;
    entry.crawled_at = 0.5;
    ASSERT_TRUE(collection.Upsert(std::move(entry)).ok());
  }
  ASSERT_GT(collection.size(), 100u);

  const double t = 30.0;  // well past many change/death events
  CollectionQuality serial = MeasureCollection(web, collection, t);
  EXPECT_GT(serial.size, 0u);
  EXPECT_GT(serial.dead, 0u);  // churn exercised the dead path
  EXPECT_GT(serial.fresh, 0u);
  EXPECT_GT(serial.mean_stale_age_days, 0.0);
  for (int shards : {2, 3, 8}) {
    ThreadPool threads(shards);
    CollectionQuality sharded =
        MeasureCollectionSharded(web, collection, t, threads, shards);
    // Bit-identical, doubles included: the canonical site-ordered
    // reduction makes the split invisible to the floating-point sums.
    EXPECT_EQ(sharded.freshness, serial.freshness) << "shards=" << shards;
    EXPECT_EQ(sharded.mean_stale_age_days, serial.mean_stale_age_days);
    EXPECT_EQ(sharded.size, serial.size);
    EXPECT_EQ(sharded.fresh, serial.fresh);
    EXPECT_EQ(sharded.dead, serial.dead);
  }
}

// ------------------------------------------------------ engine determinism

struct IncrementalFingerprint {
  CollectionQuality quality;
  IncrementalCrawler::Stats stats;
  ShardedCrawlEngine::Stats engine;
  std::size_t collection_size = 0;
  uint64_t web_fetches = 0;
  uint64_t web_not_found = 0;
  uint64_t pages_created = 0;
};

IncrementalFingerprint RunIncremental(int parallelism, uint64_t seed) {
  simweb::WebConfig wc = SmallWeb(seed);
  wc.uniform_lifespan_days = 25.0;  // churn exercises the dead-page path
  simweb::SimulatedWeb web(wc);
  IncrementalCrawlerConfig config;
  config.collection_capacity = 150;
  config.crawl_rate_pages_per_day = 60.0;
  config.crawl_parallelism = parallelism;
  // Longer than one crawl slot (1/60 day), so back-to-back same-site
  // slots — common during greedy fill — get rejected and retried.
  config.crawl.per_site_delay_days = 0.02;
  config.crawl.enforce_politeness = true;
  IncrementalCrawler crawler(&web, config);
  EXPECT_TRUE(crawler.Bootstrap(0.0).ok());
  EXPECT_TRUE(crawler.RunUntil(30.0).ok());
  IncrementalFingerprint fp;
  fp.quality = crawler.MeasureNow();
  fp.stats = crawler.stats();
  fp.engine = crawler.engine().stats();
  fp.collection_size = crawler.collection().size();
  fp.web_fetches = web.fetch_count();
  fp.web_not_found = web.not_found_count();
  fp.pages_created = web.OracleTotalPagesCreated();
  return fp;
}

void ExpectIdentical(const IncrementalFingerprint& a,
                     const IncrementalFingerprint& b) {
  // Bit-identical, not approximately equal: every double must match
  // exactly.
  EXPECT_EQ(a.quality.freshness, b.quality.freshness);
  EXPECT_EQ(a.quality.mean_stale_age_days, b.quality.mean_stale_age_days);
  EXPECT_EQ(a.quality.size, b.quality.size);
  EXPECT_EQ(a.quality.fresh, b.quality.fresh);
  EXPECT_EQ(a.quality.dead, b.quality.dead);
  // Every deterministic row of both ledgers.
  EXPECT_EQ(ledger::Diff(a.stats, b.stats), std::vector<std::string>{});
  EXPECT_EQ(ledger::Diff(a.engine, b.engine), std::vector<std::string>{});
  EXPECT_EQ(a.collection_size, b.collection_size);
  EXPECT_EQ(a.web_fetches, b.web_fetches);
  EXPECT_EQ(a.web_not_found, b.web_not_found);
  EXPECT_EQ(a.pages_created, b.pages_created);
}

TEST(ShardedEngineTest, PhaseTimingsCoverTheWholeBatchCycle) {
  simweb::SimulatedWeb web(SmallWeb(71));
  IncrementalCrawlerConfig config;
  config.collection_capacity = 100;
  config.crawl_rate_pages_per_day = 50.0;
  config.crawl_parallelism = 4;
  IncrementalCrawler crawler(&web, config);
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(5.0).ok());
  const ShardedCrawlEngine::Stats& stats = crawler.engine().stats();
  // Plan, fetch and apply carry one sample per non-empty batch; the
  // measure phase one per freshness sample.
  EXPECT_EQ(stats.plan_seconds.count(),
            static_cast<int64_t>(stats.batches));
  EXPECT_EQ(stats.fetch_seconds.count(),
            static_cast<int64_t>(stats.batches));
  EXPECT_EQ(stats.apply_seconds.count(),
            static_cast<int64_t>(stats.batches));
  EXPECT_GT(stats.fetch_seconds.count(), 0);
  EXPECT_GT(stats.measure_seconds.count(), 0);
  EXPECT_GE(stats.plan_seconds.min(), 0.0);
  EXPECT_GE(stats.measure_seconds.min(), 0.0);
}

TEST(ShardedEngineTest, HousekeepingTimingsCountEveryCall) {
  for (int shards : {1, 4}) {
    SCOPED_TRACE(shards);
    simweb::SimulatedWeb web(SmallWeb(72));
    IncrementalCrawlerConfig config;
    config.collection_capacity = 100;
    config.crawl_rate_pages_per_day = 50.0;
    config.crawl_parallelism = shards;
    IncrementalCrawler crawler(&web, config);
    ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
    ASSERT_TRUE(crawler.RunUntil(15.0).ok());
    const ShardedCrawlEngine::Stats& stats = crawler.engine().stats();
    // One sample per Rebalance() and one per refinement pass.
    EXPECT_GT(stats.rebalance_seconds.count(), 0);
    EXPECT_GT(stats.refine_seconds.count(), 0);
    EXPECT_EQ(stats.rebalance_seconds.count(),
              crawler.update_module().rebalance_count());
    EXPECT_EQ(stats.refine_seconds.count(),
              crawler.ranking_module().refinement_count());
    EXPECT_GE(stats.rebalance_seconds.min(), 0.0);
    EXPECT_GE(stats.refine_seconds.min(), 0.0);
  }
}

TEST(ShardedEngineTest, IncrementalCrawlIsIdenticalAcrossShardCounts) {
  IncrementalFingerprint serial = RunIncremental(1, 41);
  ASSERT_GT(serial.stats.crawls, 500u);
  ASSERT_GT(serial.stats.politeness_retries, 0u);  // contention exercised
  ExpectIdentical(serial, RunIncremental(8, 41));
  ExpectIdentical(serial, RunIncremental(3, 41));
}

// --------------------------------------------------- in-batch retries

TEST(ShardedEngineTest, PolitenessRetriesAreRetiredWithinTheBatch) {
  // Slots are 1/60 day apart but the polite delay is 0.05 days, so
  // back-to-back same-site slots collide; with day-long batch windows
  // (sample == rebalance == 1 day, refinement far away) the polite
  // window reopens well before the window closes, and the rejected
  // fetches must be refetched inside their own batch instead of
  // waiting for the next one.
  for (int shards : {1, 4}) {
    simweb::WebConfig wc = SmallWeb(83);
    wc.uniform_lifespan_days = 1e7;  // no deaths: retries only
    simweb::SimulatedWeb web(wc);
    IncrementalCrawlerConfig config;
    config.collection_capacity = 150;
    config.crawl_rate_pages_per_day = 60.0;
    config.freshness_sample_interval_days = 1.0;
    config.rebalance_interval_days = 1.0;
    config.refine_interval_days = 50.0;
    config.crawl_parallelism = shards;
    config.crawl.per_site_delay_days = 0.05;
    config.crawl.enforce_politeness = true;
    IncrementalCrawler crawler(&web, config);
    ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
    ASSERT_TRUE(crawler.RunUntil(10.0).ok());
    EXPECT_GT(crawler.stats().politeness_retries, 0u)
        << "shards=" << shards;
    // The regression guard: rejected URLs are fetched in-batch again.
    EXPECT_GT(crawler.stats().in_batch_retries, 0u) << "shards=" << shards;
    // Every crawl is either a slot fetch or an in-batch retry fetch;
    // the retry fetches really hit the web (rejections do not).
    EXPECT_EQ(web.fetch_count() + crawler.stats().politeness_retries,
              crawler.stats().crawls);
  }
}

TEST(ShardedEngineTest, MostShortDelayRejectionsRetireInBatch) {
  // The latency point of the feature: with a 0.05-day polite delay
  // inside day-long batch windows, the window nearly always reopens
  // in-batch, so the bulk of rejections must be retired by an in-batch
  // refetch rather than deferred a whole batch.
  simweb::WebConfig wc = SmallWeb(84);
  wc.uniform_lifespan_days = 1e7;
  simweb::SimulatedWeb web(wc);
  IncrementalCrawlerConfig config;
  config.collection_capacity = 150;
  config.crawl_rate_pages_per_day = 60.0;
  config.freshness_sample_interval_days = 1.0;
  config.rebalance_interval_days = 1.0;
  config.refine_interval_days = 50.0;
  config.crawl.per_site_delay_days = 0.05;
  config.crawl.enforce_politeness = true;
  IncrementalCrawler crawler(&web, config);
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(8.0).ok());
  ASSERT_GT(crawler.stats().politeness_retries, 0u);
  EXPECT_GT(2 * crawler.stats().in_batch_retries,
            crawler.stats().politeness_retries);
}

// ----------------------------------- snapshot bytes across shard counts

TEST(ShardedEngineTest, SnapshotBytesAreIdenticalAcrossShardCounts) {
  // The full apply + snapshot determinism case: run the same simulation
  // at 1 and 5 shards, snapshot collection, update module and frontier,
  // and require *byte-identical* files — records are canonically
  // ordered, so equal logical state means equal bytes. Then restore
  // the frontier at yet another shard count and require a bit-identical
  // pop order.
  auto snapshot_bytes = [](int parallelism) {
    simweb::WebConfig wc = SmallWeb(85);
    wc.uniform_lifespan_days = 25.0;
    simweb::SimulatedWeb web(wc);
    IncrementalCrawlerConfig config;
    config.collection_capacity = 150;
    config.crawl_rate_pages_per_day = 60.0;
    config.crawl_parallelism = parallelism;
    config.crawl.per_site_delay_days = 0.02;
    config.crawl.enforce_politeness = true;
    IncrementalCrawler crawler(&web, config);
    EXPECT_TRUE(crawler.Bootstrap(0.0).ok());
    EXPECT_TRUE(crawler.RunUntil(12.0).ok());
    std::ostringstream collection, update, frontier;
    EXPECT_TRUE(SaveCollection(crawler.collection(), collection).ok());
    EXPECT_TRUE(SaveUpdateModule(crawler.update_module(), update).ok());
    EXPECT_TRUE(SaveFrontier(crawler.coll_urls(), frontier).ok());
    return std::tuple{collection.str(), update.str(), frontier.str()};
  };
  auto serial = snapshot_bytes(1);
  auto sharded = snapshot_bytes(5);
  EXPECT_EQ(std::get<0>(serial), std::get<0>(sharded));
  EXPECT_EQ(std::get<1>(serial), std::get<1>(sharded));
  EXPECT_EQ(std::get<2>(serial), std::get<2>(sharded));

  // Round-trip: the restored frontier pops exactly like the live one.
  std::istringstream frontier_in(std::get<2>(serial));
  auto restored = LoadFrontier(frontier_in, 3);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::ostringstream again;
  ASSERT_TRUE(SaveFrontier(*restored, again).ok());
  EXPECT_EQ(again.str(), std::get<2>(serial));
}

TEST(ShardedEngineTest, PeriodicCrawlIsIdenticalAcrossShardCounts) {
  auto run = [](int parallelism) {
    simweb::WebConfig wc = SmallWeb(42);
    simweb::SimulatedWeb web(wc);
    PeriodicCrawlerConfig config;
    config.collection_capacity = 120;
    config.cycle_days = 10.0;
    config.crawl_window_days = 3.0;
    config.crawl_parallelism = parallelism;
    PeriodicCrawler crawler(&web, config);
    EXPECT_TRUE(crawler.Bootstrap(0.0).ok());
    EXPECT_TRUE(crawler.RunUntil(25.0).ok());
    return std::pair{std::tuple{crawler.MeasureNow().freshness,
                                crawler.MeasureNow().size,
                                crawler.cycles_completed(),
                                web.fetch_count(),
                                web.OracleTotalPagesCreated()},
                     crawler.stats()};
  };
  const auto serial = run(1);
  EXPECT_GT(serial.second.crawls, 200u);
  for (int shards : {4, 8}) {
    const auto sharded = run(shards);
    EXPECT_EQ(sharded.first, serial.first) << "shards=" << shards;
    EXPECT_EQ(ledger::Diff(sharded.second, serial.second),
              std::vector<std::string>{})
        << "shards=" << shards;
  }
}

// The load numbers Figure 10 contrasts come off the pool's aggregate
// traffic ledger, so they do not depend on how many modules shared the
// fetches — for either crawler.
TEST(ShardedEngineTest, AggregateTrafficIsIdenticalAcrossShardCounts) {
  auto incremental = [](int parallelism) {
    simweb::SimulatedWeb web(SmallWeb(43));
    IncrementalCrawlerConfig config;
    config.collection_capacity = 150;
    config.crawl_rate_pages_per_day = 60.0;
    config.crawl_parallelism = parallelism;
    IncrementalCrawler crawler(&web, config);
    EXPECT_TRUE(crawler.Bootstrap(0.0).ok());
    EXPECT_TRUE(crawler.RunUntil(20.0).ok());
    return crawler.crawl_pool().AggregateTraffic();
  };
  auto periodic = [](int parallelism) {
    simweb::SimulatedWeb web(SmallWeb(43));
    PeriodicCrawlerConfig config;
    config.collection_capacity = 120;
    config.cycle_days = 10.0;
    config.crawl_window_days = 3.0;
    config.crawl_parallelism = parallelism;
    PeriodicCrawler crawler(&web, config);
    EXPECT_TRUE(crawler.Bootstrap(0.0).ok());
    EXPECT_TRUE(crawler.RunUntil(20.0).ok());
    return crawler.crawl_pool().AggregateTraffic();
  };
  const CrawlModulePool::Traffic runs[][2] = {
      {incremental(1), incremental(4)}, {periodic(1), periodic(4)}};
  for (const auto& [serial, sharded] : runs) {
    EXPECT_GT(serial.fetch_count, 0u);
    EXPECT_EQ(sharded.fetch_count, serial.fetch_count);
    EXPECT_EQ(sharded.PeakDailyRate(), serial.PeakDailyRate());
    EXPECT_EQ(sharded.AverageDailyRate(), serial.AverageDailyRate());
  }
}

}  // namespace
}  // namespace webevo::crawler
