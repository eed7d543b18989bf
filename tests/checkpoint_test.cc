// Whole-crawler checkpoint tests: SaveCrawler/LoadCrawler must make a
// restored crawler bit-identical to one that never stopped — across
// processes (fresh web restored from the web section), across shard
// counts, and under corruption.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crawler/incremental_crawler.h"
#include "crawler/periodic_crawler.h"
#include "crawler/snapshot.h"
#include "simweb/simulated_web.h"
#include "simweb/web_config.h"
#include "util/hash.h"
#include "util/ledger.h"

namespace webevo::crawler {
namespace {

simweb::WebConfig SmallWeb() {
  simweb::WebConfig config = simweb::WebConfig().Scaled(0.03);
  config.seed = 20260731;
  config.min_site_size = 10;
  config.max_site_size = 40;
  return config;
}

IncrementalCrawlerConfig IncConfig(int parallelism) {
  IncrementalCrawlerConfig config;
  config.collection_capacity = 200;
  config.crawl_rate_pages_per_day = 120.0;
  config.crawl_parallelism = parallelism;
  config.crawl.per_site_delay_days = 1e-3;
  config.crawl.enforce_politeness = true;
  return config;
}

PeriodicCrawlerConfig PerConfig(int parallelism) {
  PeriodicCrawlerConfig config;
  config.collection_capacity = 150;
  config.cycle_days = 4.0;
  config.crawl_window_days = 2.0;
  config.crawl_parallelism = parallelism;
  return config;
}

template <typename Crawler>
std::string CheckpointBytes(const Crawler& crawler,
                            bool include_web = true) {
  CrawlerCheckpointOptions options;
  options.include_web = include_web;
  std::ostringstream out;
  Status saved = SaveCrawler(crawler, out, options);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  return out.str();
}

// The headline guarantee: run A straight through; run B half way, save
// a checkpoint, restore it into a *fresh* crawler over a *fresh* web
// (the cross-process restart), finish the run — and the two final
// states must checkpoint to byte-identical files. Saves land on whole
// days, which sit on the freshness-sample grid (batch boundaries), as
// the checkpoint contract requires.
TEST(CheckpointTest, IncrementalResumeIsBitIdenticalAcrossProcesses) {
  simweb::SimulatedWeb web_a(SmallWeb());
  IncrementalCrawler straight(&web_a, IncConfig(2));
  ASSERT_TRUE(straight.Bootstrap(0.0).ok());
  ASSERT_TRUE(straight.RunUntil(10.0).ok());
  std::string want = CheckpointBytes(straight);

  simweb::SimulatedWeb web_b(SmallWeb());
  IncrementalCrawler first_half(&web_b, IncConfig(2));
  ASSERT_TRUE(first_half.Bootstrap(0.0).ok());
  ASSERT_TRUE(first_half.RunUntil(5.0).ok());
  std::string mid = CheckpointBytes(first_half);

  // "New process": nothing shared with first_half but the bytes.
  simweb::SimulatedWeb web_c(SmallWeb());
  IncrementalCrawler resumed(&web_c, IncConfig(2));
  std::istringstream mid_in(mid);
  Status loaded = LoadCrawler(mid_in, &resumed);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_DOUBLE_EQ(resumed.now(), first_half.now());
  EXPECT_EQ(ledger::Diff(resumed.stats(), first_half.stats()),
            std::vector<std::string>{});
  ASSERT_TRUE(resumed.RunUntil(10.0).ok());

  EXPECT_EQ(CheckpointBytes(resumed), want);
  EXPECT_EQ(ledger::Diff(resumed.stats(), straight.stats()),
            std::vector<std::string>{});
  EXPECT_EQ(resumed.MeasureNow().freshness, straight.MeasureNow().freshness);
  // The restored tracker carries the pre-checkpoint samples too.
  EXPECT_EQ(resumed.tracker().size(), straight.tracker().size());
}

// PR 3 invariant, extended to checkpoints: save at N = 8, load at
// N = 1 (and vice versa), continue, and stay bit-identical to the
// uninterrupted run — checkpoints are canonical, so even the files
// written by different shard counts in the same logical state match.
TEST(CheckpointTest, ResumeAcrossShardCounts) {
  simweb::SimulatedWeb web_a(SmallWeb());
  IncrementalCrawler straight(&web_a, IncConfig(1));
  ASSERT_TRUE(straight.Bootstrap(0.0).ok());
  ASSERT_TRUE(straight.RunUntil(8.0).ok());
  const std::string want = CheckpointBytes(straight);

  for (int save_shards : {1, 8}) {
    const int load_shards = save_shards == 8 ? 1 : 8;
    simweb::SimulatedWeb web_b(SmallWeb());
    IncrementalCrawler saver(&web_b, IncConfig(save_shards));
    ASSERT_TRUE(saver.Bootstrap(0.0).ok());
    ASSERT_TRUE(saver.RunUntil(4.0).ok());
    std::string mid = CheckpointBytes(saver);

    simweb::SimulatedWeb web_c(SmallWeb());
    IncrementalCrawler resumed(&web_c, IncConfig(load_shards));
    std::istringstream mid_in(mid);
    Status loaded = LoadCrawler(mid_in, &resumed);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    ASSERT_TRUE(resumed.RunUntil(8.0).ok());
    EXPECT_EQ(CheckpointBytes(resumed), want)
        << "save at N=" << save_shards << ", load at N=" << load_shards;
  }
}

// In-process restart over the *same* live web: the checkpoint may skip
// the web section entirely, because the web's state is exactly what
// the interrupted crawler left behind.
TEST(CheckpointTest, SameWebResumeWithoutWebSection) {
  simweb::SimulatedWeb web_a(SmallWeb());
  IncrementalCrawler straight(&web_a, IncConfig(4));
  ASSERT_TRUE(straight.Bootstrap(0.0).ok());
  ASSERT_TRUE(straight.RunUntil(10.0).ok());
  const std::string want = CheckpointBytes(straight, false);

  simweb::SimulatedWeb web_b(SmallWeb());
  std::string mid;
  {
    IncrementalCrawler first_half(&web_b, IncConfig(4));
    ASSERT_TRUE(first_half.Bootstrap(0.0).ok());
    ASSERT_TRUE(first_half.RunUntil(5.0).ok());
    mid = CheckpointBytes(first_half, false);
  }  // crawler gone; the web object survives the "restart"
  IncrementalCrawler resumed(&web_b, IncConfig(4));
  std::istringstream mid_in(mid);
  ASSERT_TRUE(LoadCrawler(mid_in, &resumed).ok());
  ASSERT_TRUE(resumed.RunUntil(10.0).ok());
  EXPECT_EQ(CheckpointBytes(resumed, false), want);
}

TEST(CheckpointTest, PeriodicResumeIsBitIdentical) {
  for (bool shadowing : {true, false}) {
    PeriodicCrawlerConfig config = PerConfig(2);
    config.shadowing = shadowing;

    simweb::SimulatedWeb web_a(SmallWeb());
    PeriodicCrawler straight(&web_a, config);
    ASSERT_TRUE(straight.Bootstrap(0.0).ok());
    ASSERT_TRUE(straight.RunUntil(9.0).ok());
    std::string want = CheckpointBytes(straight);

    simweb::SimulatedWeb web_b(SmallWeb());
    PeriodicCrawler first_half(&web_b, config);
    ASSERT_TRUE(first_half.Bootstrap(0.0).ok());
    ASSERT_TRUE(first_half.RunUntil(5.0).ok());
    std::string mid = CheckpointBytes(first_half);

    simweb::SimulatedWeb web_c(SmallWeb());
    PeriodicCrawler resumed(&web_c, config);
    std::istringstream mid_in(mid);
    Status loaded = LoadCrawler(mid_in, &resumed);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    EXPECT_EQ(resumed.cycles_completed(), first_half.cycles_completed());
    ASSERT_TRUE(resumed.RunUntil(9.0).ok());
    EXPECT_EQ(CheckpointBytes(resumed), want)
        << "shadowing=" << shadowing;
    EXPECT_EQ(ledger::Diff(resumed.stats(), straight.stats()),
              std::vector<std::string>{});
  }
}

TEST(CheckpointTest, RejectsKindMismatch) {
  simweb::SimulatedWeb web(SmallWeb());
  IncrementalCrawler crawler(&web, IncConfig(1));
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(2.0).ok());
  std::string bytes = CheckpointBytes(crawler);

  simweb::SimulatedWeb other_web(SmallWeb());
  PeriodicCrawler periodic(&other_web, PerConfig(1));
  std::istringstream in(bytes);
  Status st = LoadCrawler(in, &periodic);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, DetectsCorruptTruncatedAndTrailingContainers) {
  simweb::SimulatedWeb web(SmallWeb());
  IncrementalCrawler crawler(&web, IncConfig(2));
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(3.0).ok());
  const std::string bytes = CheckpointBytes(crawler);

  auto load_fails = [&](std::string payload) {
    simweb::SimulatedWeb fresh(SmallWeb());
    IncrementalCrawler target(&fresh, IncConfig(2));
    std::istringstream in(payload);
    Status st = LoadCrawler(in, &target);
    EXPECT_FALSE(st.ok());
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    }
  };

  // One flipped byte deep inside a section payload.
  std::string corrupted = bytes;
  std::size_t pos = corrupted.size() / 2;
  corrupted[pos] = corrupted[pos] == '7' ? '8' : '7';
  load_fails(corrupted);
  // A flipped byte in the section table (first table line, right after
  // the container header) must fail the header trailer.
  std::string bad_table = bytes;
  std::size_t first_nl = bytes.find('\n');
  ASSERT_NE(first_nl, std::string::npos);
  bad_table[first_nl + 3] ^= 1;
  load_fails(bad_table);
  // Truncation at several depths.
  load_fails(bytes.substr(0, bytes.size() / 2));
  load_fails(bytes.substr(0, bytes.size() - 3));
  load_fails(bytes.substr(0, 10));
  // Trailing garbage after a fully valid container.
  load_fails(bytes + "junk\n");
  // A failed load must leave the target untouched (still usable from
  // its pristine state).
  simweb::SimulatedWeb fresh(SmallWeb());
  IncrementalCrawler target(&fresh, IncConfig(2));
  std::istringstream in(corrupted);
  ASSERT_FALSE(LoadCrawler(in, &target).ok());
  ASSERT_TRUE(target.Bootstrap(0.0).ok());
  ASSERT_TRUE(target.RunUntil(1.0).ok());
}

TEST(CheckpointTest, RejectsCapacityMismatch) {
  simweb::SimulatedWeb web(SmallWeb());
  IncrementalCrawler crawler(&web, IncConfig(1));
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(2.0).ok());
  std::string bytes = CheckpointBytes(crawler);

  simweb::SimulatedWeb fresh(SmallWeb());
  IncrementalCrawlerConfig other = IncConfig(1);
  other.collection_capacity = 50;
  IncrementalCrawler target(&fresh, other);
  std::istringstream in(bytes);
  Status st = LoadCrawler(in, &target);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// Auto-checkpointing: every K completed batches RunUntil writes the
// container to the configured path (atomically); the file on disk is a
// valid checkpoint at some batch boundary, and resuming from it lands
// back on the uninterrupted trajectory.
TEST(CheckpointTest, AutoCheckpointCadenceAndResume) {
  const std::string path =
      ::testing::TempDir() + "/webevo_auto_checkpoint.ck";
  std::remove(path.c_str());

  IncrementalCrawlerConfig config = IncConfig(2);
  config.checkpoint_every_batches = 2;
  config.checkpoint_path = path;
  simweb::SimulatedWeb web(SmallWeb());
  IncrementalCrawler crawler(&web, config);
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(4.0).ok());
  ASSERT_GT(crawler.batches_completed(), 0u);

  simweb::SimulatedWeb fresh(SmallWeb());
  IncrementalCrawler resumed(&fresh, IncConfig(2));
  Status loaded = LoadCrawlerFromFile(path, &resumed);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_GT(resumed.batches_completed(), 0u);
  EXPECT_EQ(resumed.batches_completed() % 2, 0u);
  ASSERT_TRUE(resumed.RunUntil(8.0).ok());

  // The resumed run must rejoin the uninterrupted trajectory exactly.
  simweb::SimulatedWeb web_b(SmallWeb());
  IncrementalCrawler straight(&web_b, IncConfig(2));
  ASSERT_TRUE(straight.Bootstrap(0.0).ok());
  ASSERT_TRUE(straight.RunUntil(8.0).ok());
  EXPECT_EQ(CheckpointBytes(resumed), CheckpointBytes(straight));
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(CheckpointTest, FileRoundTripIsAtomicallyPublished) {
  const std::string path = ::testing::TempDir() + "/webevo_checkpoint.ck";
  simweb::SimulatedWeb web(SmallWeb());
  IncrementalCrawler crawler(&web, IncConfig(1));
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(2.0).ok());
  Status saved = SaveCrawlerToFile(crawler, path);
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  // The temp staging file must not survive a successful save.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.is_open());
  // And the published file must round-trip.
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), CheckpointBytes(crawler));
  simweb::SimulatedWeb fresh(SmallWeb());
  IncrementalCrawler resumed(&fresh, IncConfig(1));
  ASSERT_TRUE(LoadCrawlerFromFile(path, &resumed).ok());
  EXPECT_DOUBLE_EQ(resumed.now(), crawler.now());
  std::remove(path.c_str());
}

// The hot-site retry fix: a batch dominated by one site must retire
// its politeness retries in few rounds (multiple polite slots per site
// per round), and the rounds must land in the engine's ledger.
TEST(CheckpointTest, RetryRoundsAreRecordedAndDeterministic) {
  simweb::WebConfig wc = SmallWeb();
  simweb::SimulatedWeb web(wc);
  IncrementalCrawlerConfig config = IncConfig(1);
  // A long polite delay forces in-batch rejections.
  config.crawl.per_site_delay_days = 5e-3;
  IncrementalCrawler crawler(&web, config);
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(6.0).ok());
  const auto& stats = crawler.engine().stats();
  ASSERT_GT(stats.retry_rounds.count(), 0);
  // Determinism of the ledger across shard counts.
  simweb::SimulatedWeb web_b(wc);
  IncrementalCrawlerConfig config8 = config;
  config8.crawl_parallelism = 8;
  IncrementalCrawler sharded(&web_b, config8);
  ASSERT_TRUE(sharded.Bootstrap(0.0).ok());
  ASSERT_TRUE(sharded.RunUntil(6.0).ok());
  EXPECT_EQ(ledger::Diff(sharded.engine().stats(), stats),
            std::vector<std::string>{});
  EXPECT_EQ(ledger::Diff(sharded.stats(), crawler.stats()),
            std::vector<std::string>{});
}

// Pinned bytes of the periodic crawler's checkpoint (its own meta, the
// shadow collection, the BFS and seen lists, the requeue ledger and the
// traffic section) and of its published views, taken mid-cycle over a
// faulty web; they must match at N = 1 and N = 4.
TEST(CheckpointTest, PeriodicGoldenImageAndViewBytes) {
  constexpr uint64_t kImage = 0xe5dd1ffb06632492ULL;
  constexpr uint64_t kViewChain = 0x7b6a5999cfba1369ULL;
  simweb::WebConfig wc = SmallWeb();
  ASSERT_TRUE(simweb::ApplyFaultScenario("transient10", &wc).ok());
  for (int shards : {1, 4}) {
    SCOPED_TRACE(shards);
    PeriodicCrawlerConfig config = PerConfig(shards);
    config.shadowing = true;
    config.publish_view_every_batches = 1;
    simweb::SimulatedWeb web(wc);
    PeriodicCrawler crawler(&web, config);
    ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
    ASSERT_TRUE(crawler.RunUntil(9.0).ok());
    CrawlerCheckpointOptions options;
    options.module_traffic = true;
    std::ostringstream out;
    ASSERT_TRUE(SaveCrawler(crawler, out, options).ok());
    EXPECT_EQ(Fnv1a64(out.str()), kImage);
    EXPECT_EQ(crawler.views().fingerprint_chain(), kViewChain);
  }
}

// The capped breadth-first expansion: at capacity 40 each cycle's seen
// set fills to its 4 x capacity bound (160 URLs: 20 roots and 140
// links) partway through a batch, so which links join the frontier
// depends on their (slot, link) order. The run is the CLI's
// (webevo_sim crawl --crawler=periodic --scale=0.08 --capacity=40
// --cycle=4 --window=2 --days=10), and its image is pinned at every
// shard count.
TEST(CheckpointTest, PeriodicCappedExpansionBytes) {
  constexpr uint64_t kImage = 0x9b88a168e36fd628ULL;
  simweb::WebConfig wc = simweb::WebConfig().Scaled(0.08);
  wc.seed = 19990217;
  wc.max_site_size = 250;
  for (int shards : {1, 3, 8}) {
    SCOPED_TRACE(shards);
    PeriodicCrawlerConfig config;
    config.collection_capacity = 40;
    config.cycle_days = 4.0;
    config.crawl_window_days = 2.0;
    config.crawl_parallelism = shards;
    simweb::SimulatedWeb web(wc);
    PeriodicCrawler crawler(&web, config);
    ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
    ASSERT_TRUE(crawler.RunUntil(10.0).ok());
    std::ostringstream out;
    ASSERT_TRUE(SaveCrawler(crawler, out).ok());
    EXPECT_EQ(Fnv1a64(out.str()), kImage);
  }
}

}  // namespace
}  // namespace webevo::crawler
