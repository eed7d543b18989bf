// Adversarial-web and defense-layer tests: deterministic spider traps,
// mirror farms, and domain migrations in the simulated web; the
// crawler's diminishing-returns trap throttle, fingerprint-based mirror
// dedup with a shard-invariant canonical winner, and migration
// following with estimator carry-over; the defense checkpoint section;
// and the headline invariants — N = 1 == N = 8 byte-identical with the
// defense on AND off, fault + adversarial composition included.

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crawler/incremental_crawler.h"
#include "crawler/snapshot.h"
#include "crawler/update_module.h"
#include "simweb/simulated_web.h"
#include "simweb/web_config.h"
#include "util/ledger.h"

namespace webevo::crawler {
namespace {

simweb::WebConfig SmallWeb() {
  simweb::WebConfig config = simweb::WebConfig().Scaled(0.03);
  config.seed = 20260808;
  config.min_site_size = 10;
  config.max_site_size = 40;
  return config;
}

simweb::WebConfig AdvWeb(const std::string& scenario) {
  simweb::WebConfig config = SmallWeb();
  Status st = simweb::ApplyAdversarialScenario(scenario, &config);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return config;
}

IncrementalCrawlerConfig IncConfig(int parallelism, bool defense) {
  IncrementalCrawlerConfig config;
  config.collection_capacity = 200;
  config.crawl_rate_pages_per_day = 120.0;
  config.crawl_parallelism = parallelism;
  config.crawl.per_site_delay_days = 1e-3;
  config.crawl.enforce_politeness = true;
  config.defense_enabled = defense;
  return config;
}

std::string CheckpointBytes(const IncrementalCrawler& crawler) {
  CrawlerCheckpointOptions options;
  options.include_web = true;
  std::ostringstream out;
  Status saved = SaveCrawler(crawler, out, options);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  return out.str();
}

// --------------------------------------------------- scenario plumbing

TEST(AdversarialScenarioTest, NamedScenariosApplyAndValidate) {
  for (const char* name : {"none", "baseline", "spider-trap",
                           "mirror-farm", "domain-migration",
                           "heavy-tail"}) {
    simweb::WebConfig config = SmallWeb();
    Status st = simweb::ApplyAdversarialScenario(name, &config);
    ASSERT_TRUE(st.ok()) << name << ": " << st.ToString();
    EXPECT_TRUE(config.Validate().ok()) << name;
    const bool expect_adv =
        std::string(name) != "none" && std::string(name) != "baseline";
    EXPECT_EQ(config.HasAdversarial(), expect_adv) << name;
  }
  simweb::WebConfig config = SmallWeb();
  Status bad = simweb::ApplyAdversarialScenario("no-such", &config);
  ASSERT_FALSE(bad.ok());
  // The error enumerates the valid names (the CLI surfaces it).
  EXPECT_NE(bad.ToString().find("spider-trap"), std::string::npos);
}

TEST(AdversarialScenarioTest, ComposesWithFaultScenarios) {
  simweb::WebConfig config = AdvWeb("spider-trap");
  ASSERT_TRUE(simweb::ApplyFaultScenario("transient10", &config).ok());
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_TRUE(config.HasFaults());
  EXPECT_TRUE(config.HasAdversarial());
}

// ------------------------------------------------- adversarial web

TEST(AdversarialWebTest, TrapSitesMintFreshSameSiteLinks) {
  simweb::WebConfig config = SmallWeb();
  config.adv_trap_site_prob = 1.0;  // every site is a trap
  config.adv_trap_links_per_fetch = 3;
  simweb::SimulatedWeb web(config);
  ASSERT_TRUE(web.IsTrapSite(0));
  auto first = web.Fetch(web.RootUrl(0), 1.0);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // Count the minted virtual-slot links and verify they fetch
  // successfully, serve one shared body, and mint more.
  std::vector<simweb::Url> minted;
  for (const simweb::Url& link : first->links) {
    if (link.site == 0 && link.slot >= 1000000) minted.push_back(link);
  }
  // Virtual slots are "past the site's real size"; rather than guess
  // the threshold, re-derive it: minted links are exactly the ones a
  // second fetch has never produced before.
  if (minted.empty()) {
    for (const simweb::Url& link : first->links) {
      if (link.site == 0) minted.push_back(link);
    }
  }
  ASSERT_GE(minted.size(), 3u);
  auto trap_a = web.Fetch(minted[minted.size() - 1], 1.5);
  auto trap_b = web.Fetch(minted[minted.size() - 2], 2.0);
  ASSERT_TRUE(trap_a.ok()) << trap_a.status().ToString();
  ASSERT_TRUE(trap_b.ok()) << trap_b.status().ToString();
  EXPECT_EQ(trap_a->checksum, trap_b->checksum);  // one body per trap
  // The trap keeps minting: the trap page's own fetch emitted links
  // the root fetch had not.
  bool fresh = false;
  for (const simweb::Url& link : trap_a->links) {
    bool seen = false;
    for (const simweb::Url& old : first->links) {
      if (old == link) seen = true;
    }
    if (!seen && link.site == 0) fresh = true;
  }
  EXPECT_TRUE(fresh);
}

TEST(AdversarialWebTest, MirrorMembersServeIdenticalContent) {
  simweb::WebConfig config = SmallWeb();
  config.adv_mirror_group_size = 3;  // sites {0,1,2} form one group
  config.adv_mirror_groups = 1;
  simweb::SimulatedWeb web(config);
  ASSERT_GE(web.num_sites(), 3u);
  EXPECT_TRUE(web.IsMirroredSite(1));
  EXPECT_TRUE(web.IsMirroredSite(2));
  EXPECT_EQ(web.MirrorLeaderOf(1), 0u);
  EXPECT_EQ(web.MirrorLeaderOf(2), 0u);
  // Two members of the same group serve byte-identical content under
  // distinct URLs.
  auto a = web.Fetch(web.RootUrl(1), 1.0);
  auto b = web.Fetch(web.RootUrl(2), 1.0);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_FALSE(a->url == b->url);
  EXPECT_EQ(a->checksum, b->checksum);
}

TEST(AdversarialWebTest, MigratedSitesGoDarkAndTwinsResurrect) {
  simweb::WebConfig config = SmallWeb();
  config.adv_migration_prob = 1.0;  // every even site migrates
  config.adv_migration_mean_day = 1.0;
  config.adv_migration_links_per_fetch = 4;
  simweb::SimulatedWeb web(config);
  ASSERT_GE(web.num_sites(), 2u);
  const double mday = web.MigrationDayOf(0);
  ASSERT_TRUE(std::isfinite(mday));
  EXPECT_EQ(web.TwinSourceOf(1), 0u);
  EXPECT_FALSE(std::isfinite(web.MigrationDayOf(1)));  // odd: never
  auto source = web.Fetch(web.RootUrl(0), mday + 0.5);
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kUnavailable);
  auto twin = web.Fetch(web.RootUrl(1), mday + 0.5);
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  // The twin announces resurrected pages under its own hostname.
  bool announced = false;
  for (const simweb::Url& link : twin->links) {
    if (link.site == 1) announced = true;
  }
  EXPECT_TRUE(announced);
}

// A mid-stream web snapshot must carry the adversarial mint counters
// (Y records): the restored web mints the same trap URLs in the same
// order instead of restarting its counters.
TEST(AdversarialWebTest, WebSnapshotRoundTripsAdversarialState) {
  simweb::WebConfig config = AdvWeb("spider-trap");
  simweb::SimulatedWeb web(config);
  for (int i = 0; i < 25; ++i) {
    (void)web.Fetch(web.RootUrl(i % web.num_sites()), 0.2 * i);
  }
  std::ostringstream out;
  ASSERT_TRUE(simweb::SaveWeb(web, out).ok());
  simweb::SimulatedWeb restored(config);
  std::istringstream in(out.str());
  Status st = simweb::RestoreWeb(in, &restored);
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (int i = 0; i < 25; ++i) {
    const double t = 5.0 + 0.2 * i;
    const uint32_t site = i % web.num_sites();
    auto ra = web.Fetch(web.RootUrl(site), t);
    auto rb = restored.Fetch(restored.RootUrl(site), t);
    ASSERT_EQ(ra.ok(), rb.ok()) << i;
    if (ra.ok() && rb.ok()) {
      ASSERT_EQ(ra->links.size(), rb->links.size()) << i;
      for (std::size_t j = 0; j < ra->links.size(); ++j) {
        EXPECT_EQ(ra->links[j], rb->links[j]) << i;
      }
    }
  }
}

// --------------------------------------------------- defense layer

TEST(DefenseTest, TrapSitesGetThrottled) {
  simweb::SimulatedWeb web(AdvWeb("spider-trap"));
  IncrementalCrawlerConfig config = IncConfig(2, true);
  config.defense_yield_window = 12;  // trip fast at test scale
  IncrementalCrawler crawler(&web, config);
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(12.0).ok());
  const auto& s = crawler.stats();
  EXPECT_GT(s.wasted_fetches, 0u);
  EXPECT_GT(s.trap_sites_throttled, 0u);
}

TEST(DefenseTest, UndefendedRunObservesWasteButTakesNoAction) {
  simweb::SimulatedWeb web(AdvWeb("spider-trap"));
  IncrementalCrawler crawler(&web, IncConfig(2, false));
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(12.0).ok());
  const auto& s = crawler.stats();
  // wasted_fetches is pure observation (it accrues either way — the
  // bench's waste gate depends on that); the action counters are the
  // defense's alone.
  EXPECT_GT(s.wasted_fetches, 0u);
  EXPECT_EQ(s.trap_sites_throttled, 0u);
  EXPECT_EQ(s.duplicate_urls_suppressed, 0u);
  EXPECT_EQ(s.pages_migrated, 0u);
}

// Mirror dedup's canonical winner is a pure function of the simulation:
// N = 1, 3, and 8 agree on which URL owns each fingerprint, so the
// checkpoints are byte-identical.
TEST(DefenseTest, MirrorDedupPicksShardInvariantCanonicalWinner) {
  simweb::WebConfig wc = AdvWeb("mirror-farm");
  std::string want;
  uint64_t suppressed = 0;
  for (int shards : {1, 3, 8}) {
    simweb::SimulatedWeb web(wc);
    IncrementalCrawler crawler(&web, IncConfig(shards, true));
    ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
    ASSERT_TRUE(crawler.RunUntil(10.0).ok());
    const std::string got = CheckpointBytes(crawler);
    if (want.empty()) {
      want = got;
      suppressed = crawler.stats().duplicate_urls_suppressed;
      EXPECT_GT(suppressed, 0u);
    } else {
      EXPECT_EQ(got, want) << "N=" << shards;
      EXPECT_EQ(crawler.stats().duplicate_urls_suppressed, suppressed)
          << "N=" << shards;
    }
  }
}

TEST(DefenseTest, CarryEstimatorMovesLearnedState) {
  UpdateModuleConfig config;
  UpdateModule update(config);
  const simweb::Url from{3, 1, 0}, to{4, 7, 0};
  update.OnCrawled(from, 1.0, false, true);
  update.OnCrawled(from, 2.0, true, false);
  update.OnCrawled(from, 3.0, true, false);
  const double learned = update.EstimatedRate(from);
  ASSERT_GT(learned, 0.0);
  update.CarryEstimator(from, to);
  EXPECT_DOUBLE_EQ(update.EstimatedRate(to), learned);
  EXPECT_DOUBLE_EQ(update.EstimatedRate(from), 0.0);
  // Carrying an untracked URL is a no-op.
  update.CarryEstimator(simweb::Url{9, 9, 0}, to);
  EXPECT_DOUBLE_EQ(update.EstimatedRate(to), learned);
}

TEST(DefenseTest, MigrationsRehomePagesWithEstimatorState) {
  simweb::WebConfig wc = AdvWeb("domain-migration");
  simweb::SimulatedWeb web(wc);
  IncrementalCrawler crawler(&web, IncConfig(2, true));
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(20.0).ok());
  EXPECT_GT(crawler.stats().pages_migrated, 0u);
}

// ----------------------------------------------- headline invariants

TEST(DefensePipelineTest, ShardCountInvariantUnderEveryScenario) {
  for (const char* scenario : {"spider-trap", "mirror-farm",
                               "domain-migration", "heavy-tail"}) {
    for (bool defense : {true, false}) {
      simweb::WebConfig wc = AdvWeb(scenario);
      simweb::SimulatedWeb web_1(wc);
      IncrementalCrawler serial(&web_1, IncConfig(1, defense));
      ASSERT_TRUE(serial.Bootstrap(0.0).ok());
      ASSERT_TRUE(serial.RunUntil(8.0).ok());

      simweb::SimulatedWeb web_8(wc);
      IncrementalCrawler sharded(&web_8, IncConfig(8, defense));
      ASSERT_TRUE(sharded.Bootstrap(0.0).ok());
      ASSERT_TRUE(sharded.RunUntil(8.0).ok());

      EXPECT_EQ(CheckpointBytes(serial), CheckpointBytes(sharded))
          << scenario << " defense=" << defense;
      // The engine ledger is not checkpointed; its deterministic rows
      // must match too.
      EXPECT_EQ(
          ledger::Diff(serial.engine().stats(), sharded.engine().stats()),
          std::vector<std::string>{})
          << scenario << " defense=" << defense;
    }
  }
}

// Save mid-throttle / mid-quarantine at one shard count, resume at
// another, rejoin the uninterrupted trajectory byte-for-byte: the
// defense section carries throttle levels, quarantine clocks, and the
// fingerprint registry.
TEST(DefensePipelineTest, MidThrottleResumeAcrossShardCounts) {
  simweb::WebConfig wc = AdvWeb("spider-trap");
  IncrementalCrawlerConfig config = IncConfig(1, true);
  config.defense_yield_window = 12;

  simweb::SimulatedWeb web_a(wc);
  IncrementalCrawler straight(&web_a, config);
  ASSERT_TRUE(straight.Bootstrap(0.0).ok());
  ASSERT_TRUE(straight.RunUntil(12.0).ok());
  const std::string want = CheckpointBytes(straight);
  ASSERT_GT(straight.stats().trap_sites_throttled, 0u);

  for (int save_shards : {1, 8}) {
    const int load_shards = save_shards == 8 ? 1 : 8;
    IncrementalCrawlerConfig save_config = config;
    save_config.crawl_parallelism = save_shards;
    simweb::SimulatedWeb web_b(wc);
    IncrementalCrawler saver(&web_b, save_config);
    ASSERT_TRUE(saver.Bootstrap(0.0).ok());
    ASSERT_TRUE(saver.RunUntil(6.0).ok());
    std::string mid = CheckpointBytes(saver);

    IncrementalCrawlerConfig load_config = config;
    load_config.crawl_parallelism = load_shards;
    simweb::SimulatedWeb web_c(wc);
    IncrementalCrawler resumed(&web_c, load_config);
    std::istringstream mid_in(mid);
    Status loaded = LoadCrawler(mid_in, &resumed);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    ASSERT_TRUE(resumed.RunUntil(12.0).ok());
    EXPECT_EQ(CheckpointBytes(resumed), want)
        << "save at N=" << save_shards << ", load at N=" << load_shards;
  }
}

// Faults and adversarial structure compose: transient errors inside a
// trap-riddled web stay deterministic across shard counts and keep the
// estimator-evidence ledger clean.
TEST(DefensePipelineTest, ComposedFaultsAndTrapsStayClean) {
  simweb::WebConfig wc = AdvWeb("spider-trap");
  ASSERT_TRUE(simweb::ApplyFaultScenario("transient10", &wc).ok());

  simweb::SimulatedWeb web_1(wc);
  IncrementalCrawler serial(&web_1, IncConfig(1, true));
  ASSERT_TRUE(serial.Bootstrap(0.0).ok());
  ASSERT_TRUE(serial.RunUntil(10.0).ok());

  simweb::SimulatedWeb web_8(wc);
  IncrementalCrawler sharded(&web_8, IncConfig(8, true));
  ASSERT_TRUE(sharded.Bootstrap(0.0).ok());
  ASSERT_TRUE(sharded.RunUntil(10.0).ok());

  EXPECT_EQ(CheckpointBytes(serial), CheckpointBytes(sharded));

  const auto& s = serial.stats();
  const auto& update = serial.update_module();
  EXPECT_GT(s.fetch_failures, 0u);
  EXPECT_EQ(update.failures_recorded(), s.fetch_failures);
  // Every planned slot is a politeness rejection, a classified failure,
  // a 404, or a successful visit; only the last feeds the estimators —
  // suppressed duplicates included (they were successful fetches).
  EXPECT_EQ(update.visits_recorded(),
            s.crawls - s.politeness_retries - s.fetch_failures -
                web_1.not_found_count());
}

// The defense ledger reaches the query surface.
TEST(DefensePipelineTest, ViewSummaryCarriesDefenseLedger) {
  simweb::SimulatedWeb web(AdvWeb("mirror-farm"));
  IncrementalCrawlerConfig config = IncConfig(2, true);
  config.publish_view_every_batches = 1;
  IncrementalCrawler crawler(&web, config);
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(6.0).ok());
  serving::ViewRef view = crawler.views().AcquireRef();
  ASSERT_TRUE(view.get() != nullptr);
  int found = 0;
  for (const auto& [key, value] : view.get()->summary) {
    if (key == "wasted_fetches") {
      ++found;
      EXPECT_EQ(value, std::to_string(crawler.stats().wasted_fetches));
    }
    if (key == "trap_sites_throttled" ||
        key == "duplicate_urls_suppressed" || key == "pages_migrated") {
      ++found;
    }
  }
  EXPECT_EQ(found, 4);
}

}  // namespace
}  // namespace webevo::crawler
