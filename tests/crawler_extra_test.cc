// Additional crawler coverage: politeness integration, site-level
// statistics, Last-Modified scheduling, importance weighting, and the
// under-capacity admission path.

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "crawler/crawl_module_pool.h"
#include "crawler/incremental_crawler.h"
#include "crawler/periodic_crawler.h"
#include "crawler/ranking_module.h"
#include "crawler/update_module.h"
#include "simweb/simulated_web.h"
#include "util/hash.h"
#include "util/random.h"

namespace webevo::crawler {
namespace {

using simweb::Url;

simweb::WebConfig SmallWeb(uint64_t seed) {
  simweb::WebConfig c;
  c.seed = seed;
  c.sites_per_domain = {3, 2, 1, 1};
  c.min_site_size = 20;
  c.max_site_size = 50;
  return c;
}

// ------------------------------------------------ politeness integration

TEST(PolitenessIntegrationTest, RejectionsRescheduleInsteadOfKilling) {
  simweb::WebConfig wc = SmallWeb(1);
  wc.uniform_lifespan_days = 1e7;  // nothing actually dies
  simweb::SimulatedWeb web(wc);
  IncrementalCrawlerConfig config;
  config.collection_capacity = 100;
  config.crawl_rate_pages_per_day = 400.0;  // fast enough to collide
  config.crawl.per_site_delay_days = 0.01;
  config.crawl.enforce_politeness = true;
  IncrementalCrawler crawler(&web, config);
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(20.0).ok());
  EXPECT_GT(crawler.stats().politeness_retries, 0u);
  // No page was wrongly declared dead: the web has no deaths.
  EXPECT_EQ(crawler.stats().dead_pages_removed, 0u);
  EXPECT_GT(crawler.collection().size(), 50u);
}

TEST(PolitenessIntegrationTest, DelayBoundsPerSiteRate) {
  simweb::WebConfig wc = SmallWeb(2);
  simweb::SimulatedWeb web(wc);
  CrawlModuleConfig config;
  config.per_site_delay_days = 0.5;
  config.enforce_politeness = true;
  CrawlModule module(&web, config);
  Url root = web.RootUrl(0);
  int successes = 0;
  for (int i = 0; i < 100; ++i) {
    if (module.Crawl(root, i * 0.1).ok()) ++successes;
  }
  // 10 days of attempts, one success allowed per 0.5 days.
  EXPECT_LE(successes, 21);
  EXPECT_GT(successes, 15);
}

// --------------------------------------------------- site-level statistics

TEST(SiteLevelStatsTest, HomogeneousSiteConvergesFasterThanPageLevel) {
  // Section 5.3: site-level statistics give a tighter estimate when a
  // site's pages change at similar rates. Feed both modes the same
  // short history of a homogeneous site and compare the error.
  const double rate = 0.2;
  Rng rng(7);
  UpdateModuleConfig site_config;
  site_config.site_level_stats = true;
  site_config.estimator_kind = estimator::EstimatorKind::kRatio;
  UpdateModule site_module(site_config);
  UpdateModuleConfig page_config;
  page_config.site_level_stats = false;
  page_config.estimator_kind = estimator::EstimatorKind::kRatio;
  UpdateModule page_module(page_config);

  const int pages = 40, visits = 4;  // short history per page
  for (uint32_t p = 0; p < pages; ++p) {
    Url url{5, p, 0};
    site_module.OnCrawled(url, 0.0, false, true);
    page_module.OnCrawled(url, 0.0, false, true);
    for (int v = 1; v <= visits; ++v) {
      bool changed = rng.NextDouble() < 1.0 - std::exp(-rate);
      site_module.OnCrawled(url, v, changed, false);
      page_module.OnCrawled(url, v, changed, false);
    }
  }
  // Site-level: one estimate from 160 observations; page-level: 40
  // estimates from 4 observations each. Compare mean absolute error.
  double site_err = 0.0, page_err = 0.0;
  for (uint32_t p = 0; p < pages; ++p) {
    Url url{5, p, 0};
    site_err += std::abs(site_module.EstimatedRate(url) - rate);
    page_err += std::abs(page_module.EstimatedRate(url) - rate);
  }
  EXPECT_LT(site_err, page_err);
}

TEST(SiteLevelStatsTest, ForgetKeepsSiteAggregate) {
  UpdateModuleConfig config;
  config.site_level_stats = true;
  config.estimator_kind = estimator::EstimatorKind::kRatio;
  UpdateModule module(config);
  Url a{3, 1, 0}, b{3, 2, 0};
  module.OnCrawled(a, 0.0, false, true);
  module.OnCrawled(b, 0.0, false, true);
  for (int d = 1; d <= 20; ++d) module.OnCrawled(a, d, true, false);
  double before = module.EstimatedRate(b);
  module.Forget(a);  // page discarded; the site statistic survives
  EXPECT_DOUBLE_EQ(module.EstimatedRate(b), before);
  EXPECT_GT(before, 0.0);
}

// ------------------------------------------------- Last-Modified end-to-end

TEST(LastModifiedSchedulingTest, CrawlerIdentifiesSubDailyPagesViaEl) {
  // With the EL estimator the crawler prices rapid changers correctly
  // even though every checksum comparison says "changed".
  simweb::WebConfig wc = SmallWeb(3);
  wc.uniform_change_interval_days = 0.05;  // 20 changes/day
  wc.uniform_lifespan_days = 1e7;
  simweb::SimulatedWeb web(wc);
  IncrementalCrawlerConfig config;
  config.collection_capacity = 120;
  config.crawl_rate_pages_per_day = 20.0;
  config.update.estimator_kind = estimator::EstimatorKind::kLastModified;
  IncrementalCrawler crawler(&web, config);
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(40.0).ok());
  // Median estimated rate across collection pages should be near the
  // truth (20/day), far beyond the visit cadence.
  std::vector<double> rates;
  crawler.collection().ForEach([&](const CollectionEntry& e) {
    rates.push_back(
        const_cast<UpdateModule&>(crawler.update_module())
            .EstimatedRate(e.url));
  });
  ASSERT_FALSE(rates.empty());
  std::nth_element(rates.begin(),
                   rates.begin() + static_cast<long>(rates.size() / 2),
                   rates.end());
  EXPECT_GT(rates[rates.size() / 2], 5.0);
}

// ------------------------------------------------------ proportional policy

TEST(ProportionalPolicyTest, FrequencyTracksEstimatedRate) {
  UpdateModuleConfig config;
  config.policy = RevisitPolicy::kProportional;
  config.estimator_kind = estimator::EstimatorKind::kRatio;
  config.crawl_budget_pages_per_day = 10.0;
  config.min_revisit_interval_days = 0.01;
  config.max_revisit_interval_days = 1000.0;
  config.probe_probability = 0.0;  // deterministic schedule
  UpdateModule module(config);
  Url fast{0, 1, 0}, slow{0, 2, 0};
  module.OnCrawled(fast, 0.0, false, true);
  module.OnCrawled(slow, 0.0, false, true);
  for (int d = 1; d <= 60; ++d) {
    module.OnCrawled(fast, d, d % 2 == 0, false);
    module.OnCrawled(slow, d, d % 30 == 0, false);
  }
  module.Rebalance();
  double f_fast = 1.0 / (module.OnCrawled(fast, 61.0, false, false) - 61.0);
  double f_slow = 1.0 / (module.OnCrawled(slow, 61.0, false, false) - 61.0);
  // Rates differ ~10x; proportional frequencies must reflect that.
  EXPECT_GT(f_fast, 4.0 * f_slow);
}

// --------------------------------------------------- importance weighting

TEST(ImportanceWeightingTest, EndToEndImportantPagesFresher) {
  simweb::WebConfig wc = SmallWeb(5);
  wc.uniform_change_interval_days = 20.0;
  wc.uniform_lifespan_days = 1e7;
  simweb::SimulatedWeb web(wc);
  IncrementalCrawlerConfig config;
  config.collection_capacity = 150;
  config.crawl_rate_pages_per_day = 150.0 / 25.0;
  config.update.policy = RevisitPolicy::kUniform;  // isolate the boost
  config.update.importance_exponent = 1.0;
  IncrementalCrawler crawler(&web, config);
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(90.0).ok());
  // Pages with above-median importance should hold fresher copies.
  std::vector<const CollectionEntry*> entries;
  crawler.collection().ForEach(
      [&](const CollectionEntry& e) { entries.push_back(&e); });
  ASSERT_GT(entries.size(), 20u);
  std::sort(entries.begin(), entries.end(),
            [](const CollectionEntry* a, const CollectionEntry* b) {
              return a->importance > b->importance;
            });
  double top_age = 0.0, bottom_age = 0.0;
  std::size_t quarter = entries.size() / 4;
  for (std::size_t i = 0; i < quarter; ++i) {
    top_age += crawler.now() - entries[i]->crawled_at;
    bottom_age +=
        crawler.now() - entries[entries.size() - 1 - i]->crawled_at;
  }
  EXPECT_LT(top_age, bottom_age);
}

// ------------------------------------------------ under-capacity admission

TEST(AdmissionTest, RefinementAdmitsIntoFreeSpaceWithoutVictims) {
  Collection collection(3);
  AllUrls all;
  Url member{0, 1, 0}, cand_a{0, 2, 0}, cand_b{0, 3, 0};
  CollectionEntry e;
  e.url = member;
  e.links = {cand_a, cand_b, cand_a};
  ASSERT_TRUE(collection.Upsert(e).ok());
  all.Add(member, 0.0);
  all.NoteInLink(cand_a, 0.0);
  all.NoteInLink(cand_a, 0.0);
  all.NoteInLink(cand_b, 0.0);
  RankingModule ranking({});
  RefinementResult result = ranking.Refine(all, collection);
  // Two free slots, two candidates: both admitted, no replacements.
  EXPECT_EQ(result.admissions.size(), 2u);
  EXPECT_TRUE(result.replacements.empty());
  // Best-scored first: cand_a has two in-links.
  EXPECT_EQ(result.admissions.front(), cand_a);
}

TEST(AdmissionTest, FullCollectionAdmitsNothingOutright) {
  Collection collection(1);
  AllUrls all;
  Url member{0, 1, 0}, cand{0, 2, 0};
  CollectionEntry e;
  e.url = member;
  e.links = {cand};
  ASSERT_TRUE(collection.Upsert(e).ok());
  all.Add(member, 0.0);
  all.NoteInLink(cand, 0.0);
  RankingModule ranking({});
  RefinementResult result = ranking.Refine(all, collection);
  EXPECT_TRUE(result.admissions.empty());
}

// ------------------------------------------------- refinement tie order

// Runs one refinement over a collection below its capacity whose
// candidates tie in large groups, so that admissions and replacements
// both fire. Ties are where the sort order shows.
RefinementResult TiedRefinement(ImportanceMetric metric) {
  constexpr uint32_t kSites = 6;
  Collection collection(60);  // 48 members, 12 free slots
  AllUrls all;
  for (uint32_t site = 0; site < kSites; ++site) {
    for (uint32_t slot = 0; slot < 8; ++slot) {
      CollectionEntry e;
      e.url = Url{site, slot, 0};
      // A chain within each site gives the members tied scores too.
      if (slot + 1 < 8) e.links.push_back(Url{site, slot + 1, 0});
      // Candidate blocks, each spread over every site so that
      // canonical order interleaves them: (0, 0) links to block 100
      // and (3, 0) to block 300, one in-link per candidate; slots 1
      // and 2 of every site link to block 200, twelve in-links per
      // candidate, enough to clear the replacement hysteresis.
      auto link_block = [&](uint32_t base, uint32_t width) {
        for (uint32_t s = 0; s < kSites; ++s) {
          for (uint32_t k = 0; k < width; ++k) {
            e.links.push_back(Url{s, base + k, 0});
          }
        }
      };
      if (site == 0 && slot == 0) link_block(100, 8);
      if (slot == 1 || slot == 2) link_block(200, 4);
      if (site == 3 && slot == 0) link_block(300, 6);
      for (const Url& to : e.links) all.NoteInLink(to, 0.0);
      all.Add(e.url, 0.0);
      EXPECT_TRUE(collection.Upsert(std::move(e)).ok());
    }
  }
  // A dead candidate is never ranked.
  all.NoteInLink(Url{4, 100, 0}, 0.0);
  EXPECT_TRUE(all.MarkDead(Url{4, 100, 0}).ok());

  RankingModuleConfig config;
  config.metric = metric;
  RankingModule ranking(config);
  return ranking.Refine(all, collection);
}

// Every decision in order: admissions, then replacements with their
// scores.
std::string RefinementTrace(const RefinementResult& result) {
  std::ostringstream out;
  out.precision(17);
  for (const Url& url : result.admissions) {
    out << "+" << url.ToString() << "\n";
  }
  for (const Replacement& r : result.replacements) {
    out << r.discard.ToString() << " " << r.discard_score << " -> "
        << r.crawl.ToString() << " " << r.crawl_score << "\n";
  }
  return out.str();
}

// Pinned decisions: the crawl's schedule, its checkpoints and the perf
// fingerprints all follow them, so the tie order must never drift.
TEST(RefinementTieOrderTest, InLinksDecisionsArePinned) {
  const RefinementResult result = TiedRefinement(ImportanceMetric::kInLinks);
  EXPECT_EQ(result.admissions.size(), 12u);
  EXPECT_EQ(result.replacements.size(), 12u);
  const std::string trace = RefinementTrace(result);
  EXPECT_EQ(Fnv1a64(trace), 0x4c4fe3daf5ecd505ULL) << trace;
}

TEST(RefinementTieOrderTest, PageRankDecisionsArePinned) {
  const RefinementResult result = TiedRefinement(ImportanceMetric::kPageRank);
  EXPECT_EQ(result.admissions.size(), 12u);
  EXPECT_EQ(result.replacements.size(), 12u);
  const std::string trace = RefinementTrace(result);
  EXPECT_EQ(Fnv1a64(trace), 0xe2cd40d9c974840bULL) << trace;
}

// ------------------------------------------------- periodic in-place dead

TEST(PeriodicInPlaceTest, DeadPagesLeaveTheCollection) {
  simweb::WebConfig wc = SmallWeb(6);
  wc.uniform_lifespan_days = 10.0;  // rapid deaths
  simweb::SimulatedWeb web(wc);
  PeriodicCrawlerConfig config;
  config.collection_capacity = 120;
  config.cycle_days = 15.0;
  config.crawl_window_days = 5.0;
  config.shadowing = false;
  PeriodicCrawler crawler(&web, config);
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  // Run three full cycles, then measure just after the fourth crawl
  // window closes: every entry was re-fetched within the last ~5 days.
  ASSERT_TRUE(crawler.RunUntil(50.5).ok());
  EXPECT_GT(crawler.stats().dead_fetches, 0u);
  // In-place recrawls revisit the whole collection and purge vanished
  // pages, so dead entries are bounded by deaths since the last crawl
  // (~5 days against a 10-day lifespan), not accumulated forever.
  CollectionQuality q = crawler.MeasureNow();
  EXPECT_LT(static_cast<double>(q.dead),
            0.6 * static_cast<double>(q.size));
}


// ------------------------------------------------------ CrawlModulePool

TEST(CrawlModulePoolTest, ShardsSitesAcrossModules) {
  simweb::SimulatedWeb web(SmallWeb(10));
  CrawlModulePool pool(&web, {}, 3);
  EXPECT_EQ(pool.parallelism(), 3);
  // Sites 0..6 shard round-robin; each fetch lands on its owner.
  for (uint32_t s = 0; s < web.num_sites(); ++s) {
    ASSERT_TRUE(pool.Crawl(web.RootUrl(s), 0.1).ok());
  }
  uint64_t per_module_total = 0;
  for (uint32_t s = 0; s < 3; ++s) {
    per_module_total += pool.module_for_site(s).traffic().fetch_count;
  }
  EXPECT_EQ(per_module_total, pool.AggregateTraffic().fetch_count);
  EXPECT_EQ(pool.AggregateTraffic().fetch_count, web.num_sites());
}

TEST(CrawlModulePoolTest, PolitenessIsolatedPerShardOwner) {
  simweb::SimulatedWeb web(SmallWeb(11));
  CrawlModuleConfig config;
  config.per_site_delay_days = 1.0;
  config.enforce_politeness = true;
  CrawlModulePool pool(&web, config, 2);
  // Site 0 and site 2 share module 0; site 1 lives on module 1.
  ASSERT_TRUE(pool.Crawl(web.RootUrl(0), 0.0).ok());
  // Same site too soon: rejected by its owner.
  EXPECT_FALSE(pool.Crawl(web.RootUrl(0), 0.1).ok());
  EXPECT_GE(pool.NextAllowedTime(0), 1.0);
  // Different sites are unaffected, whichever module owns them.
  EXPECT_TRUE(pool.Crawl(web.RootUrl(1), 0.1).ok());
  EXPECT_TRUE(pool.Crawl(web.RootUrl(2), 0.1).ok());
  EXPECT_EQ(pool.AggregateTraffic().politeness_rejections, 1u);
}

TEST(CrawlModulePoolTest, ParallelismClampedToOne) {
  simweb::SimulatedWeb web(SmallWeb(12));
  CrawlModulePool pool(&web, {}, 0);
  EXPECT_EQ(pool.parallelism(), 1);
  EXPECT_TRUE(pool.Crawl(web.RootUrl(0), 0.0).ok());
}

TEST(CrawlModulePoolTest, AggregateLoadAccounting) {
  simweb::SimulatedWeb web(SmallWeb(13));
  CrawlModulePool pool(&web, {}, 4);
  for (int day = 0; day < 3; ++day) {
    for (uint32_t s = 0; s < web.num_sites(); ++s) {
      ASSERT_TRUE(pool.Crawl(web.RootUrl(s), day + 0.01 * s).ok());
    }
  }
  const CrawlModulePool::Traffic traffic = pool.AggregateTraffic();
  EXPECT_EQ(traffic.fetch_count, 3u * web.num_sites());
  EXPECT_EQ(traffic.failure_count, 0u);
  EXPECT_GE(traffic.PeakDailyRate(), static_cast<double>(web.num_sites()));
}

// ------------------------------------------------------ multiplier expose

TEST(UpdateModuleTest2, MultiplierExposedAfterOptimalRebalance) {
  UpdateModuleConfig config;
  config.policy = RevisitPolicy::kOptimal;
  UpdateModule module(config);
  EXPECT_DOUBLE_EQ(module.multiplier(), 0.0);
  Url url{0, 1, 0};
  module.OnCrawled(url, 0.0, false, true);
  for (int d = 1; d <= 10; ++d) module.OnCrawled(url, d, d % 2, false);
  module.Rebalance();
  EXPECT_GT(module.multiplier(), 0.0);
}

}  // namespace
}  // namespace webevo::crawler
