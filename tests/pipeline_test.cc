// Pipelined batch engine tests: the staged crawl loop (fetch+apply B
// with measure B-1 fused into B's fetch) must be an invisible
// optimisation.
// Pipelined and non-pipelined runs — at every shard count, under fault
// scenarios, through in-batch retry rounds, and across a mid-pipeline
// auto-checkpoint resume — produce byte-identical checkpoints and
// identical view fingerprint chains.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "crawler/incremental_crawler.h"
#include "crawler/periodic_crawler.h"
#include "crawler/sharded_crawl_engine.h"
#include "crawler/snapshot.h"
#include "simweb/simulated_web.h"
#include "simweb/web_config.h"

namespace webevo::crawler {
namespace {

simweb::WebConfig SmallWeb(uint64_t seed) {
  simweb::WebConfig config = simweb::WebConfig().Scaled(0.03);
  config.seed = seed;
  config.min_site_size = 10;
  config.max_site_size = 40;
  return config;
}

IncrementalCrawlerConfig IncConfig(int parallelism, bool pipeline) {
  IncrementalCrawlerConfig config;
  config.collection_capacity = 200;
  config.crawl_rate_pages_per_day = 120.0;
  config.crawl_parallelism = parallelism;
  config.pipeline = pipeline;
  config.crawl.per_site_delay_days = 1e-3;
  config.crawl.enforce_politeness = true;
  return config;
}

PeriodicCrawlerConfig PerConfig(int parallelism, bool pipeline) {
  PeriodicCrawlerConfig config;
  config.collection_capacity = 150;
  config.cycle_days = 4.0;
  config.crawl_window_days = 2.0;
  config.crawl_parallelism = parallelism;
  config.pipeline = pipeline;
  return config;
}

template <typename Crawler>
std::string CheckpointBytes(const Crawler& crawler) {
  CrawlerCheckpointOptions options;
  options.include_web = true;
  std::ostringstream out;
  Status saved = SaveCrawler(crawler, out, options);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  return out.str();
}

struct RunResult {
  std::string checkpoint;
  uint64_t view_chain = 0;
};

RunResult RunIncremental(const simweb::WebConfig& wc,
                         IncrementalCrawlerConfig config, double until) {
  config.publish_view_every_batches = 1;
  simweb::SimulatedWeb web(wc);
  IncrementalCrawler crawler(&web, config);
  EXPECT_TRUE(crawler.Bootstrap(0.0).ok());
  EXPECT_TRUE(crawler.RunUntil(until).ok());
  return {CheckpointBytes(crawler), crawler.views().fingerprint_chain()};
}

RunResult RunPeriodic(const simweb::WebConfig& wc,
                      const PeriodicCrawlerConfig& config, double until) {
  simweb::SimulatedWeb web(wc);
  PeriodicCrawler crawler(&web, config);
  EXPECT_TRUE(crawler.Bootstrap(0.0).ok());
  EXPECT_TRUE(crawler.RunUntil(until).ok());
  return {CheckpointBytes(crawler), 0};
}

// ------------------------------- pipelined == sequential, both crawlers

// The headline invariant, randomized over web seeds: at N in {1, 3, 8}
// the pipelined incremental crawler matches the N = 1 sequential run
// byte-for-byte, views included.
TEST(PipelineTest, IncrementalPipelinedMatchesSequential) {
  for (uint64_t seed : {101u, 202u, 303u}) {
    const simweb::WebConfig wc = SmallWeb(seed);
    const RunResult want = RunIncremental(wc, IncConfig(1, false), 8.0);
    ASSERT_FALSE(want.checkpoint.empty());
    for (int shards : {1, 3, 8}) {
      const RunResult got =
          RunIncremental(wc, IncConfig(shards, true), 8.0);
      EXPECT_EQ(got.checkpoint, want.checkpoint)
          << "seed=" << seed << " shards=" << shards;
      EXPECT_EQ(got.view_chain, want.view_chain)
          << "seed=" << seed << " shards=" << shards;
    }
  }
}

TEST(PipelineTest, PeriodicPipelinedMatchesSequential) {
  for (uint64_t seed : {404u, 505u}) {
    const simweb::WebConfig wc = SmallWeb(seed);
    const RunResult want = RunPeriodic(wc, PerConfig(1, false), 9.0);
    ASSERT_FALSE(want.checkpoint.empty());
    for (int shards : {1, 3, 8}) {
      const RunResult got = RunPeriodic(wc, PerConfig(shards, true), 9.0);
      EXPECT_EQ(got.checkpoint, want.checkpoint)
          << "seed=" << seed << " shards=" << shards;
    }
  }
}

// ------------------------------------------------- faults and retries

// Fault scenarios drive the apply barrier's hard cases — failure
// backoffs, quarantine walks (RescheduleSiteNotBefore) and lease
// revocations — and the identity must survive all of them.
TEST(PipelineTest, FaultScenariosStayByteIdenticalPipelined) {
  for (const char* scenario : {"transient10", "outage-storm",
                               "flash-crowd"}) {
    simweb::WebConfig wc = SmallWeb(777);
    ASSERT_TRUE(simweb::ApplyFaultScenario(scenario, &wc).ok());
    IncrementalCrawlerConfig config = IncConfig(1, false);
    config.fault_quarantine_threshold = 3;
    config.fault_quarantine_days = 1.0;
    config.fault_backoff_base_days = 0.25;
    const RunResult want = RunIncremental(wc, config, 8.0);
    for (int shards : {1, 8}) {
      IncrementalCrawlerConfig piped = config;
      piped.crawl_parallelism = shards;
      piped.pipeline = true;
      const RunResult got = RunIncremental(wc, piped, 8.0);
      EXPECT_EQ(got.checkpoint, want.checkpoint)
          << scenario << " shards=" << shards;
      EXPECT_EQ(got.view_chain, want.view_chain)
          << scenario << " shards=" << shards;
    }
  }
}

// In-batch politeness retry rounds run extra engine sub-batches after
// the fused measure has run; they must not break the identity.
TEST(PipelineTest, InBatchRetryRoundsStayIdenticalPipelined) {
  simweb::WebConfig wc = SmallWeb(888);
  wc.uniform_lifespan_days = 1e7;  // no deaths: retries dominate
  IncrementalCrawlerConfig config = IncConfig(1, false);
  config.collection_capacity = 150;
  config.crawl_rate_pages_per_day = 60.0;
  config.freshness_sample_interval_days = 1.0;
  config.rebalance_interval_days = 1.0;
  config.refine_interval_days = 50.0;
  config.crawl.per_site_delay_days = 0.05;

  std::string want;
  {
    simweb::SimulatedWeb web(wc);
    IncrementalCrawler crawler(&web, config);
    ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
    ASSERT_TRUE(crawler.RunUntil(8.0).ok());
    ASSERT_GT(crawler.stats().in_batch_retries, 0u);
    want = CheckpointBytes(crawler);
  }
  for (int shards : {1, 4}) {
    IncrementalCrawlerConfig piped = config;
    piped.crawl_parallelism = shards;
    piped.pipeline = true;
    simweb::SimulatedWeb web(wc);
    IncrementalCrawler crawler(&web, piped);
    ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
    ASSERT_TRUE(crawler.RunUntil(8.0).ok());
    EXPECT_GT(crawler.stats().in_batch_retries, 0u);
    EXPECT_EQ(CheckpointBytes(crawler), want) << "shards=" << shards;
  }
}

// ------------------------------------------------------ overlap ledger

// Pipelining must not change what the engine fetches: an engaged
// pipeline with zero overlap-ledger samples would mean the staged loop
// silently fell back to sequential execution.
TEST(PipelineTest, OverlapLedgerRecordsStagedWork) {
  simweb::WebConfig wc = SmallWeb(1212);
  simweb::SimulatedWeb web(wc);
  IncrementalCrawlerConfig config = IncConfig(2, true);
  config.freshness_sample_interval_days = 1.0;
  IncrementalCrawler crawler(&web, config);
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(10.0).ok());
  const ShardedCrawlEngine::Stats& stats = crawler.engine().stats();
  EXPECT_GT(stats.measure_overlap_seconds.count(), 0);
}

// ------------------------------------- mid-pipeline checkpoint resume

// An auto-checkpoint fires at a batch boundary of a pipelined run, and
// a crawler resumed from those bytes — even at another shard count —
// rejoins the uninterrupted trajectory exactly.
TEST(PipelineTest, MidPipelineAutoCheckpointResumeRejoins) {
  const simweb::WebConfig wc = SmallWeb(1313);
  const std::string path =
      testing::TempDir() + "/pipeline_auto_checkpoint.bin";

  IncrementalCrawlerConfig config = IncConfig(2, true);
  std::string want;
  {
    simweb::SimulatedWeb web(wc);
    IncrementalCrawler straight(&web, config);
    ASSERT_TRUE(straight.Bootstrap(0.0).ok());
    ASSERT_TRUE(straight.RunUntil(10.0).ok());
    want = CheckpointBytes(straight);
  }

  // Auto-checkpoint every 3 batches, stop mid-run: the newest file on
  // disk was written with batches still ahead of it — mid-pipeline.
  IncrementalCrawlerConfig auto_config = config;
  auto_config.checkpoint_every_batches = 3;
  auto_config.checkpoint_path = path;
  double saved_at = 0.0;
  {
    simweb::SimulatedWeb web(wc);
    IncrementalCrawler saver(&web, auto_config);
    ASSERT_TRUE(saver.Bootstrap(0.0).ok());
    ASSERT_TRUE(saver.RunUntil(6.0).ok());
    saved_at = saver.now();
    ASSERT_GT(saver.engine().stats().measure_overlap_seconds.count(), 0);
  }

  for (int load_shards : {1, 8}) {
    IncrementalCrawlerConfig load_config = config;
    load_config.crawl_parallelism = load_shards;
    simweb::SimulatedWeb web(wc);
    IncrementalCrawler resumed(&web, load_config);
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    Status loaded = LoadCrawler(in, &resumed);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    EXPECT_LE(resumed.now(), saved_at);
    ASSERT_TRUE(resumed.RunUntil(10.0).ok());
    EXPECT_EQ(CheckpointBytes(resumed), want)
        << "load at N=" << load_shards;
  }
  std::remove(path.c_str());
}

// Periodic crawler: a mid-run save/resume under the pipelined loop
// (deferred measure fused into the next cycle's window) rejoins too.
TEST(PipelineTest, PeriodicPipelinedMidRunResumeRejoins) {
  const simweb::WebConfig wc = SmallWeb(1414);
  const PeriodicCrawlerConfig config = PerConfig(2, true);

  simweb::SimulatedWeb web_a(wc);
  PeriodicCrawler straight(&web_a, config);
  ASSERT_TRUE(straight.Bootstrap(0.0).ok());
  ASSERT_TRUE(straight.RunUntil(9.0).ok());
  const std::string want = CheckpointBytes(straight);

  simweb::SimulatedWeb web_b(wc);
  PeriodicCrawler first_half(&web_b, config);
  ASSERT_TRUE(first_half.Bootstrap(0.0).ok());
  ASSERT_TRUE(first_half.RunUntil(5.0).ok());
  const std::string mid = CheckpointBytes(first_half);

  simweb::SimulatedWeb web_c(wc);
  PeriodicCrawler resumed(&web_c, config);
  std::istringstream mid_in(mid);
  Status loaded = LoadCrawler(mid_in, &resumed);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  ASSERT_TRUE(resumed.RunUntil(9.0).ok());
  EXPECT_EQ(CheckpointBytes(resumed), want);
}

}  // namespace
}  // namespace webevo::crawler
