// Incremental (base + delta-log) checkpoint tests: restoring the base
// image plus sealed delta segments must be byte-identical to restoring
// a full checkpoint taken at the same batch, at every shard count; the
// delta log must tolerate a torn tail; a restarted process must rebase
// on its first checkpoint; the optional traffic section must make a
// resumed run's accounting cover the whole crawl; and the full image,
// delta log and view bytes are pinned.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "crawler/crawl_module_pool.h"
#include "crawler/incremental_crawler.h"
#include "crawler/snapshot.h"
#include "simweb/simulated_web.h"
#include "simweb/web_config.h"
#include "storage/delta_log.h"
#include "util/hash.h"

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
  config.checkpoint_incremental = true;  // arms delta tracking
  return config;
}

std::string CheckpointBytes(const IncrementalCrawler& crawler,
                            bool module_traffic = false) {
  CrawlerCheckpointOptions options;
  options.module_traffic = module_traffic;
  std::ostringstream out;
  Status saved = SaveCrawler(crawler, out, options);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  return out.str();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::size_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return 0;
  return static_cast<std::size_t>(in.tellg());
}

// The headline guarantee: checkpoint incrementally at days 4, 6 and 8;
// a fresh process restored from base + sealed deltas must be
// byte-identical to one restored from a *full* checkpoint taken at
// day 8 — and to the never-stopped run — at N = 1 and N = 8.
TEST(IncrementalCheckpointTest, BaseAndDeltasMatchFullRestore) {
  for (int shards : {1, 8}) {
    const std::string inc_path =
        TempPath("inc_match_" + std::to_string(shards) + ".ckpt");
    const std::string full_path =
        TempPath("full_match_" + std::to_string(shards) + ".ckpt");

    simweb::SimulatedWeb web_a(SmallWeb());
    IncrementalCrawler saver(&web_a, IncConfig(shards));
    ASSERT_TRUE(saver.Bootstrap(0.0).ok());
    for (double day : {4.0, 6.0, 8.0}) {
      ASSERT_TRUE(saver.RunUntil(day).ok());
      Status ckpt = CheckpointIncremental(&saver, inc_path);
      ASSERT_TRUE(ckpt.ok()) << ckpt.ToString();
    }
    ASSERT_TRUE(SaveCrawlerToFile(saver, full_path).ok());

    // Day 4 wrote the base; days 6 and 8 appended sealed segments.
    auto log = storage::ReadDeltaLog(inc_path + ".deltas");
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_EQ(log->segments.size(), std::size_t{2});

    simweb::SimulatedWeb web_b(SmallWeb());
    IncrementalCrawler from_deltas(&web_b, IncConfig(shards));
    Status loaded = LoadCrawlerWithDeltasFromFile(inc_path, &from_deltas);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();

    simweb::SimulatedWeb web_c(SmallWeb());
    IncrementalCrawler from_full(&web_c, IncConfig(shards));
    ASSERT_TRUE(LoadCrawlerFromFile(full_path, &from_full).ok());

    EXPECT_DOUBLE_EQ(from_deltas.now(), saver.now());
    EXPECT_EQ(CheckpointBytes(from_deltas), CheckpointBytes(from_full))
        << "base+deltas restore diverged from full restore at N="
        << shards;

    // And both keep tracking the never-stopped run.
    ASSERT_TRUE(from_deltas.RunUntil(10.0).ok());
    ASSERT_TRUE(from_full.RunUntil(10.0).ok());
    ASSERT_TRUE(saver.RunUntil(10.0).ok());
    EXPECT_EQ(CheckpointBytes(from_deltas), CheckpointBytes(saver));
    EXPECT_EQ(CheckpointBytes(from_full), CheckpointBytes(saver));
  }
}

// Segments are canonical like full checkpoints: the delta log written
// by an N = 8 run is byte-identical to the one written by an N = 1 run
// checkpointing at the same days.
TEST(IncrementalCheckpointTest, DeltaLogIsCanonicalAcrossShardCounts) {
  std::string want_base;
  std::string want_deltas;
  for (int shards : {1, 8}) {
    const std::string path =
        TempPath("inc_canon_" + std::to_string(shards) + ".ckpt");
    simweb::SimulatedWeb web(SmallWeb());
    IncrementalCrawler crawler(&web, IncConfig(shards));
    ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
    for (double day : {3.0, 5.0, 7.0}) {
      ASSERT_TRUE(crawler.RunUntil(day).ok());
      ASSERT_TRUE(CheckpointIncremental(&crawler, path).ok());
    }
    std::ifstream base_in(path, std::ios::binary);
    std::ostringstream base;
    base << base_in.rdbuf();
    std::ifstream deltas_in(path + ".deltas", std::ios::binary);
    std::ostringstream deltas;
    deltas << deltas_in.rdbuf();
    if (want_base.empty()) {
      want_base = base.str();
      want_deltas = deltas.str();
      ASSERT_FALSE(want_deltas.empty());
    } else {
      EXPECT_EQ(base.str(), want_base);
      EXPECT_EQ(deltas.str(), want_deltas);
    }
  }
}

// O(dirty): once the collection is full and the run is steady, a
// per-checkpoint delta segment is a small fraction of the full image
// (the acceptance bound is < 20% on a < 10%-dirty workload; the
// closely-spaced checkpoints here dirty far less than that). Measured
// without the web section, which every segment carries whole: the
// freshness oracle's lazy change-process sampling moves nearly every
// site between samples. Same-process checkpoints skip the web exactly
// as snapshot.h documents.
TEST(IncrementalCheckpointTest, DeltaSegmentsAreSmall) {
  const std::string path = TempPath("inc_small.ckpt");
  CrawlerCheckpointOptions options;
  options.include_web = false;
  simweb::SimulatedWeb web(SmallWeb());
  IncrementalCrawler crawler(&web, IncConfig(2));
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  // Reach capacity / steady state, then rebase.
  ASSERT_TRUE(crawler.RunUntil(6.0).ok());
  ASSERT_TRUE(CheckpointIncremental(&crawler, path, options).ok());
  const std::size_t base_bytes = FileBytes(path);
  ASSERT_GT(base_bytes, std::size_t{0});

  // A quarter-day of steady crawling dirties only the pages touched.
  ASSERT_TRUE(crawler.RunUntil(6.25).ok());
  ASSERT_TRUE(CheckpointIncremental(&crawler, path, options).ok());
  const std::size_t delta_bytes = FileBytes(path + ".deltas");
  ASSERT_GT(delta_bytes, std::size_t{0});
  EXPECT_LT(delta_bytes * 5, base_bytes)
      << "delta segment is " << delta_bytes << "B against a "
      << base_bytes << "B base — not O(dirty)";
}

// A segment carries the web's image section: after each incremental
// checkpoint, the newest segment's "web" bytes are the "web" section a
// full checkpoint writes at that moment, also for a segment that
// follows no new batch. Without include_web neither the base nor any
// segment carries the web.
TEST(IncrementalCheckpointTest, SegmentWebSectionIsTheImages) {
  for (bool include_web : {true, false}) {
    SCOPED_TRACE(include_web ? "include_web" : "without the web");
    const std::string path =
        TempPath(include_web ? "inc_web_on.ckpt" : "inc_web_off.ckpt");
    CrawlerCheckpointOptions options;
    options.include_web = include_web;
    simweb::SimulatedWeb web(SmallWeb());
    IncrementalCrawler crawler(&web, IncConfig(2));
    ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
    for (double day : {2.0, 4.0, 6.0, 6.0}) {
      ASSERT_TRUE(crawler.RunUntil(day).ok());
      ASSERT_TRUE(CheckpointIncremental(&crawler, path, options).ok());
      auto log = storage::ReadDeltaLog(path + ".deltas");
      ASSERT_TRUE(log.ok()) << log.status().ToString();
      if (log->segments.empty()) continue;  // the base
      const std::string* segment_web =
          storage::FindSection(log->segments.back().sections, "web");
      if (!include_web) {
        EXPECT_EQ(segment_web, nullptr) << "day " << day;
        continue;
      }
      std::istringstream image(CheckpointBytes(crawler));
      auto container = ReadCheckpointContainer(image);
      ASSERT_TRUE(container.ok()) << container.status().ToString();
      const std::string* image_web =
          storage::FindSection(container->sections, "web");
      ASSERT_NE(image_web, nullptr);
      ASSERT_NE(segment_web, nullptr) << "day " << day;
      EXPECT_EQ(*segment_web, *image_web) << "day " << day;
    }
    EXPECT_EQ(storage::ReadDeltaLog(path + ".deltas")->segments.size(),
              std::size_t{3});
    std::ifstream base_in(path, std::ios::binary);
    auto base = ReadCheckpointContainer(base_in);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    EXPECT_EQ(storage::FindSection(base->sections, "web") != nullptr,
              include_web);
  }
}

// Crash between WAL append and seal: a torn (unsealed) tail after the
// last sealed segment is ignored, and the restore equals the one from
// the intact log.
TEST(IncrementalCheckpointTest, TornTailIsIgnoredOnResume) {
  const std::string path = TempPath("inc_torn.ckpt");
  simweb::SimulatedWeb web_a(SmallWeb());
  IncrementalCrawler saver(&web_a, IncConfig(2));
  ASSERT_TRUE(saver.Bootstrap(0.0).ok());
  for (double day : {4.0, 6.0}) {
    ASSERT_TRUE(saver.RunUntil(day).ok());
    ASSERT_TRUE(CheckpointIncremental(&saver, path).ok());
  }

  simweb::SimulatedWeb web_b(SmallWeb());
  IncrementalCrawler intact(&web_b, IncConfig(2));
  ASSERT_TRUE(LoadCrawlerWithDeltasFromFile(path, &intact).ok());
  const std::string want = CheckpointBytes(intact);

  // Append the first half of a would-be next segment, unsealed.
  storage::DeltaSegment next;
  next.kind = "incremental";
  next.batch = 1u << 20;
  next.sections.push_back(storage::Section{"meta", "torn bytes"});
  const std::string encoded = storage::EncodeDeltaSegment(next);
  {
    std::ofstream out(path + ".deltas",
                      std::ios::binary | std::ios::app);
    out.write(encoded.data(),
              static_cast<std::streamsize>(encoded.size() / 2));
  }

  simweb::SimulatedWeb web_c(SmallWeb());
  IncrementalCrawler resumed(&web_c, IncConfig(2));
  Status loaded = LoadCrawlerWithDeltasFromFile(path, &resumed);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ(CheckpointBytes(resumed), want);
}

// A restarted process must not append to a delta chain whose dirty
// baseline it no longer knows: the first checkpoint after a restore
// rewrites the base and truncates the log.
TEST(IncrementalCheckpointTest, FirstCheckpointAfterRestoreRebases) {
  const std::string path = TempPath("inc_rebase.ckpt");
  simweb::SimulatedWeb web_a(SmallWeb());
  IncrementalCrawler saver(&web_a, IncConfig(2));
  ASSERT_TRUE(saver.Bootstrap(0.0).ok());
  for (double day : {4.0, 6.0}) {
    ASSERT_TRUE(saver.RunUntil(day).ok());
    ASSERT_TRUE(CheckpointIncremental(&saver, path).ok());
  }
  ASSERT_EQ(storage::ReadDeltaLog(path + ".deltas")->segments.size(),
            std::size_t{1});

  simweb::SimulatedWeb web_b(SmallWeb());
  IncrementalCrawler resumed(&web_b, IncConfig(2));
  ASSERT_TRUE(LoadCrawlerWithDeltasFromFile(path, &resumed).ok());
  ASSERT_TRUE(resumed.RunUntil(8.0).ok());
  ASSERT_TRUE(CheckpointIncremental(&resumed, path).ok());

  // Rebase: fresh base at day 8, empty delta log.
  auto log = storage::ReadDeltaLog(path + ".deltas");
  ASSERT_TRUE(log.ok());
  EXPECT_TRUE(log->segments.empty());

  // The rebased chain still restores to the never-stopped state.
  ASSERT_TRUE(saver.RunUntil(8.0).ok());
  simweb::SimulatedWeb web_c(SmallWeb());
  IncrementalCrawler reread(&web_c, IncConfig(2));
  ASSERT_TRUE(LoadCrawlerWithDeltasFromFile(path, &reread).ok());
  EXPECT_EQ(CheckpointBytes(reread), CheckpointBytes(saver));
}

// A full checkpoint written over an incremental one leaves the old
// delta log beside it, and so does a crash between a rebase's rename
// of the new base and its truncate of the log. The log's segments name
// the old base, so a resume skips them: it restores the full
// checkpoint alone and then tracks the run that wrote it.
TEST(IncrementalCheckpointTest, StaleDeltaLogIsSkipped) {
  const std::string path = TempPath("inc_stale.ckpt");
  {
    simweb::SimulatedWeb web(SmallWeb());
    IncrementalCrawler earlier(&web, IncConfig(2));
    ASSERT_TRUE(earlier.Bootstrap(0.0).ok());
    for (double day : {2.0, 4.0, 6.0, 8.0}) {
      ASSERT_TRUE(earlier.RunUntil(day).ok());
      ASSERT_TRUE(CheckpointIncremental(&earlier, path).ok());
    }
  }
  ASSERT_EQ(storage::ReadDeltaLog(path + ".deltas")->segments.size(),
            std::size_t{3});

  simweb::SimulatedWeb web_a(SmallWeb());
  IncrementalCrawler straight(&web_a, IncConfig(2));
  ASSERT_TRUE(straight.Bootstrap(0.0).ok());
  ASSERT_TRUE(straight.RunUntil(3.0).ok());
  ASSERT_TRUE(SaveCrawlerToFile(straight, path).ok());

  simweb::SimulatedWeb web_b(SmallWeb());
  IncrementalCrawler resumed(&web_b, IncConfig(2));
  Status loaded = LoadCrawlerWithDeltasFromFile(path, &resumed);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_DOUBLE_EQ(resumed.now(), straight.now());
  EXPECT_EQ(CheckpointBytes(resumed), CheckpointBytes(straight));

  ASSERT_TRUE(resumed.RunUntil(8.0).ok());
  ASSERT_TRUE(straight.RunUntil(8.0).ok());
  EXPECT_EQ(CheckpointBytes(resumed), CheckpointBytes(straight));
}

// CheckpointIncremental is only meaningful with delta tracking armed
// (config.checkpoint_incremental); without it the dirty sets are never
// populated, so the call must refuse rather than write empty deltas.
TEST(IncrementalCheckpointTest, RequiresDeltaTracking) {
  simweb::SimulatedWeb web(SmallWeb());
  IncrementalCrawlerConfig config = IncConfig(1);
  config.checkpoint_incremental = false;
  IncrementalCrawler crawler(&web, config);
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(2.0).ok());
  Status st = CheckpointIncremental(&crawler, TempPath("inc_refuse.ckpt"));
  EXPECT_FALSE(st.ok());
}

// The optional traffic section: with checkpoint_module_traffic, a
// resumed run's pool aggregate covers the whole crawl. The final
// checkpoints (traffic section included) must match byte-for-byte, and
// so must the derived per-day peak — even when the resumed run uses a
// different shard count, since the section carries the shard-agnostic
// pool aggregate.
TEST(IncrementalCheckpointTest, TrafficAccountingSurvivesResume) {
  simweb::SimulatedWeb web_a(SmallWeb());
  IncrementalCrawler straight(&web_a, IncConfig(2));
  ASSERT_TRUE(straight.Bootstrap(0.0).ok());
  ASSERT_TRUE(straight.RunUntil(8.0).ok());
  const std::string want = CheckpointBytes(straight, /*module_traffic=*/true);

  simweb::SimulatedWeb web_b(SmallWeb());
  IncrementalCrawler first_half(&web_b, IncConfig(2));
  ASSERT_TRUE(first_half.Bootstrap(0.0).ok());
  ASSERT_TRUE(first_half.RunUntil(4.0).ok());
  const std::string mid = CheckpointBytes(first_half, /*module_traffic=*/true);

  simweb::SimulatedWeb web_c(SmallWeb());
  IncrementalCrawler resumed(&web_c, IncConfig(3));
  std::istringstream mid_in(mid);
  ASSERT_TRUE(LoadCrawler(mid_in, &resumed).ok());
  ASSERT_TRUE(resumed.RunUntil(8.0).ok());

  EXPECT_EQ(CheckpointBytes(resumed, /*module_traffic=*/true), want);
  const CrawlModulePool::Traffic straight_traffic =
      straight.engine().pool().AggregateTraffic();
  const CrawlModulePool::Traffic resumed_traffic =
      resumed.engine().pool().AggregateTraffic();
  EXPECT_EQ(resumed_traffic.fetch_count, straight_traffic.fetch_count);
  EXPECT_EQ(resumed_traffic.fetches_per_day,
            straight_traffic.fetches_per_day);
  EXPECT_DOUBLE_EQ(resumed_traffic.PeakDailyRate(),
                   straight_traffic.PeakDailyRate());
}

// Pinned bytes: every record of a checkpoint, delta segment and
// published view must keep the exact text it has always had (doubles as
// %.17g), whichever writer formats it. One small paged-store crawl over
// a faulty web with spider traps and domain migrations, the defense on
// and the traffic section included writes every record tag of the full
// image and of a delta segment; with site-level change statistics
// the update module writes site records instead of page estimators.
// Each crawl's full image, its delta log after three incremental
// checkpoints (a base and two segments) and its view fingerprint chain
// are pinned, and must match at N = 1 and N = 4.
TEST(IncrementalCheckpointTest, GoldenImageDeltaLogAndViewBytes) {
  struct Golden {
    bool site_level_stats;
    uint64_t image;
    uint64_t deltas;
    uint64_t view_chain;
  };
  constexpr Golden kGolden[] = {
      {false, 0x45548d7c26d7810bULL, 0x937549cfc5e8edfeULL,
       0x94b15280a9e8ca0dULL},
      {true, 0xfa96d5fadfecf955ULL, 0xad162cb6223dee9bULL,
       0x6a946c1108f46969ULL},
  };
  simweb::WebConfig wc = SmallWeb();
  ASSERT_TRUE(simweb::ApplyFaultScenario("transient10", &wc).ok());
  ASSERT_TRUE(simweb::ApplyAdversarialScenario("spider-trap", &wc).ok());
  wc.adv_migration_prob = 0.5;
  wc.adv_migration_mean_day = 4.0;
  wc.adv_migration_links_per_fetch = 6;
  ASSERT_TRUE(wc.Validate().ok());
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(g.site_level_stats ? "site-level stats" : "page-level stats");
    for (int shards : {1, 4}) {
      SCOPED_TRACE(shards);
      IncrementalCrawlerConfig config = IncConfig(shards);
      config.update.site_level_stats = g.site_level_stats;
      config.defense_enabled = true;
      config.publish_view_every_batches = 1;
      config.store.backend = storage::StoreOptions::Backend::kPaged;
      config.store.dir = ::testing::TempDir();
      simweb::SimulatedWeb web(wc);
      IncrementalCrawler crawler(&web, config);
      ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
      const std::string path =
          TempPath("inc_golden_" + std::to_string(shards) + ".ckpt");
      CrawlerCheckpointOptions options;
      options.module_traffic = true;
      for (double day : {4.0, 6.0, 8.0}) {
        ASSERT_TRUE(crawler.RunUntil(day).ok());
        Status ckpt = CheckpointIncremental(&crawler, path, options);
        ASSERT_TRUE(ckpt.ok()) << ckpt.ToString();
      }
      const std::string image =
          CheckpointBytes(crawler, /*module_traffic=*/true);
      const std::string deltas = ReadFile(path + ".deltas");
      EXPECT_EQ(Fnv1a64(image), g.image);
      EXPECT_EQ(Fnv1a64(deltas), g.deltas);
      EXPECT_EQ(crawler.views().fingerprint_chain(), g.view_chain);
    }
  }
}

}  // namespace
}  // namespace webevo::crawler
