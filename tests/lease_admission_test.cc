// Coverage for the capacity-lease admission protocol: the
// SettleAdmissionLease keep-first-budget settle against an independent
// serial frozen-budget greedy reference, eviction-heavy crawls held
// bit-identical (byte-identical checkpoints included) at shard counts
// up to 64, and checkpoints taken mid-fill with in-flight lease state
// resuming across shard counts.

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crawler/admission_lease.h"
#include "crawler/incremental_crawler.h"
#include "crawler/sharded_crawl_engine.h"
#include "crawler/snapshot.h"
#include "simweb/simulated_web.h"
#include "simweb/web_config.h"
#include "util/ledger.h"
#include "util/random.h"

namespace webevo::crawler {
namespace {

// ------------------------------------------------ settle: unit cases

TEST(SettleAdmissionLeaseTest, UncontendedLeasesSettleWithoutRevocation) {
  std::vector<std::vector<AdmissionRef>> admitted(3);
  admitted[0] = {{0, 0}, {4, 1}};
  admitted[2] = {{1, 0}};
  EXPECT_TRUE(SettleAdmissionLease(admitted, 3).empty());
  EXPECT_TRUE(SettleAdmissionLease(admitted, 100).empty());
}

TEST(SettleAdmissionLeaseTest, OverdraftRevokesPastBudgetInGlobalOrder) {
  // Global (slot, pos) order: (0,0) s0, (1,0) s1, (2,1) s0, (3,0) s1.
  std::vector<std::vector<AdmissionRef>> admitted(2);
  admitted[0] = {{0, 0}, {2, 1}};
  admitted[1] = {{1, 0}, {3, 0}};
  std::vector<RevokedAdmission> revoked =
      SettleAdmissionLease(admitted, 2);
  ASSERT_EQ(revoked.size(), 2u);
  EXPECT_EQ(revoked[0].shard, 0u);  // (2,1)
  EXPECT_EQ(revoked[0].index, 1u);
  EXPECT_EQ(revoked[1].shard, 1u);  // (3,0)
  EXPECT_EQ(revoked[1].index, 1u);
}

TEST(SettleAdmissionLeaseTest, ZeroBudgetRevokesEverything) {
  std::vector<std::vector<AdmissionRef>> admitted(2);
  admitted[1] = {{0, 0}, {0, 1}};
  EXPECT_EQ(SettleAdmissionLease(admitted, 0).size(), 2u);
}

// --------------------------- settle: property vs the serial reference
//
// The protocol's contract: per-shard greedy admission with the full
// budget as a local ceiling, followed by keep-first-budget settlement,
// equals one serial frozen-budget greedy over the global stream — for
// any stream, any duplicate pattern, any shard split.

struct StreamItem {
  uint32_t slot;
  uint32_t pos;
  uint32_t url;  // dedup key; owner shard = url % shards
};

TEST(SettleAdmissionLeaseTest, MatchesSerialFrozenBudgetGreedy) {
  Rng rng(20260731);
  for (int round = 0; round < 60; ++round) {
    const int shards = std::vector<int>{1, 2, 3, 8}[round % 4];
    const std::size_t budget = rng.UniformInt(0, 40);
    // A stream with heavy duplication so dedup interacts with the
    // budget cutoff.
    std::vector<StreamItem> stream;
    uint32_t slot = 0;
    while (stream.size() < 120) {
      const auto links = static_cast<uint32_t>(rng.UniformInt(0, 5));
      for (uint32_t p = 0; p < links; ++p) {
        stream.push_back(StreamItem{
            slot, p, static_cast<uint32_t>(rng.UniformInt(0, 30))});
      }
      ++slot;
    }

    // Serial reference: one global counter, one seen-set.
    std::set<uint32_t> serial_admitted;
    for (const StreamItem& item : stream) {
      if (serial_admitted.size() >= budget) continue;
      serial_admitted.insert(item.url);
    }

    // Sharded: local ceilings + settle.
    std::vector<std::vector<AdmissionRef>> admitted(shards);
    std::vector<std::vector<uint32_t>> admitted_urls(shards);
    std::vector<std::set<uint32_t>> seen(shards);
    for (const StreamItem& item : stream) {
      const int s = static_cast<int>(item.url) % shards;
      if (seen[s].size() >= budget) continue;  // lease ceiling
      if (!seen[s].insert(item.url).second) continue;
      admitted[s].push_back(AdmissionRef{item.slot, item.pos});
      admitted_urls[s].push_back(item.url);
    }
    for (const RevokedAdmission& r : SettleAdmissionLease(admitted,
                                                          budget)) {
      seen[r.shard].erase(admitted_urls[r.shard][r.index]);
    }
    std::set<uint32_t> sharded_admitted;
    for (const auto& s : seen) {
      sharded_admitted.insert(s.begin(), s.end());
    }
    EXPECT_EQ(sharded_admitted, serial_admitted)
        << "round=" << round << " shards=" << shards
        << " budget=" << budget;
  }
}

// ------------------------------- eviction-heavy cross-N determinism

simweb::WebConfig ChurnWeb(uint64_t seed) {
  simweb::WebConfig c;
  c.seed = seed;
  c.sites_per_domain = {5, 4, 2, 2};
  c.min_site_size = 20;
  c.max_site_size = 80;
  c.uniform_lifespan_days = 20.0;  // constant churn: deaths + births
  return c;
}

struct LeaseRunResult {
  std::string checkpoint;  // canonical bytes, web section excluded
  IncrementalCrawler::Stats stats;
  ShardedCrawlEngine::Stats engine;
};

LeaseRunResult RunEvictionHeavy(int parallelism, uint64_t seed,
                                double days) {
  simweb::SimulatedWeb web(ChurnWeb(seed));
  IncrementalCrawlerConfig config;
  // A capacity far below the reachable page count keeps the crawler
  // permanently at the fill boundary: greedy-fill admissions contend
  // for the lease budget, inserts overdraw, and the settle evicts —
  // the adversarial regime for the protocol.
  config.collection_capacity = 60;
  config.crawl_rate_pages_per_day = 50.0;
  config.refine_interval_days = 2.0;
  config.crawl_parallelism = parallelism;
  config.crawl.per_site_delay_days = 0.02;
  config.crawl.enforce_politeness = true;
  IncrementalCrawler crawler(&web, config);
  EXPECT_TRUE(crawler.Bootstrap(0.0).ok());
  EXPECT_TRUE(crawler.RunUntil(days).ok());
  LeaseRunResult r;
  CrawlerCheckpointOptions options;
  options.include_web = false;
  std::ostringstream out;
  Status saved = SaveCrawler(crawler, out, options);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  r.checkpoint = out.str();
  r.stats = crawler.stats();
  r.engine = crawler.engine().stats();
  return r;
}

TEST(LeaseAdmissionTest, EvictionHeavyCrawlsAreBitIdenticalUpToN64) {
  for (uint64_t seed : {101u, 202u}) {
    LeaseRunResult base = RunEvictionHeavy(1, seed, 12.0);
    // The regime really is adversarial: evictions and admissions both
    // happened, and the serial run (N = 1) never revokes.
    EXPECT_GT(base.stats.pages_evicted, 0u) << "seed=" << seed;
    EXPECT_GT(base.stats.lease_admissions, 0u);
    EXPECT_GT(base.stats.lease_budget_granted, 0u);
    EXPECT_GT(base.stats.dead_pages_removed, 0u);
    for (int shards : {3, 4, 8, 64}) {
      LeaseRunResult run = RunEvictionHeavy(shards, seed, 12.0);
      // Byte-identical checkpoints subsume every piece of canonical
      // state: collection, frontier (seq lanes included), AllUrls,
      // pending admissions, counters, the lease ledger. The engine's
      // deterministic rows (the per-batch lease settles among them)
      // are not checkpointed, so they are compared here.
      EXPECT_EQ(run.checkpoint, base.checkpoint)
          << "seed=" << seed << " shards=" << shards;
      EXPECT_EQ(ledger::Diff(run.stats, base.stats),
                std::vector<std::string>{});
      EXPECT_EQ(ledger::Diff(run.engine, base.engine),
                std::vector<std::string>{});
    }
  }
}

// ------------------- checkpoints carrying in-flight lease state

simweb::WebConfig FillWeb() {
  simweb::WebConfig c = simweb::WebConfig().Scaled(0.03);
  c.seed = 20260801;
  c.min_site_size = 10;
  c.max_site_size = 40;
  return c;
}

IncrementalCrawlerConfig FillConfig(int parallelism) {
  IncrementalCrawlerConfig config;
  config.collection_capacity = 300;
  config.crawl_rate_pages_per_day = 80.0;
  config.crawl_parallelism = parallelism;
  config.crawl.per_site_delay_days = 1e-3;
  config.crawl.enforce_politeness = true;
  return config;
}

std::string Checkpoint(const IncrementalCrawler& crawler) {
  std::ostringstream out;
  Status saved = SaveCrawler(crawler, out, {});
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  return out.str();
}

TEST(LeaseAdmissionTest, MidFillCheckpointResumesAcrossShardCounts) {
  // Save at day 1, deep inside the greedy fill, so the checkpoint
  // carries in-flight lease state: admitted-but-uncrawled URLs (the
  // pending reservations the next batch's budget is computed from)
  // and the cumulative lease ledger.
  simweb::SimulatedWeb web_a(FillWeb());
  IncrementalCrawler straight(&web_a, FillConfig(1));
  ASSERT_TRUE(straight.Bootstrap(0.0).ok());
  ASSERT_TRUE(straight.RunUntil(6.0).ok());
  const std::string want = Checkpoint(straight);

  for (int save_shards : {1, 8}) {
    const int load_shards = save_shards == 8 ? 1 : 8;
    simweb::SimulatedWeb web_b(FillWeb());
    IncrementalCrawler saver(&web_b, FillConfig(save_shards));
    ASSERT_TRUE(saver.Bootstrap(0.0).ok());
    ASSERT_TRUE(saver.RunUntil(1.0).ok());
    // Mid-fill: the collection is not full and admissions are in
    // flight — the lease state a restart must not lose.
    ASSERT_LT(saver.collection().size(),
              saver.collection().capacity());
    ASSERT_GT(saver.stats().lease_admissions, 0u);
    std::string mid = Checkpoint(saver);

    simweb::SimulatedWeb web_c(FillWeb());
    IncrementalCrawler resumed(&web_c, FillConfig(load_shards));
    std::istringstream mid_in(mid);
    Status loaded = LoadCrawler(mid_in, &resumed);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    // The ledger survived the round trip. (The engine's restarts at
    // zero on restore, so only the crawler's rows compare.)
    EXPECT_EQ(ledger::Diff(resumed.stats(), saver.stats()),
              std::vector<std::string>{});
    ASSERT_TRUE(resumed.RunUntil(6.0).ok());
    EXPECT_EQ(Checkpoint(resumed), want)
        << "save at N=" << save_shards << ", load at N=" << load_shards;
    EXPECT_EQ(ledger::Diff(resumed.stats(), straight.stats()),
              std::vector<std::string>{});
  }
}

}  // namespace
}  // namespace webevo::crawler
