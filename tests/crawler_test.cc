#include <cmath>

#include <gtest/gtest.h>

#include "crawler/all_urls.h"
#include "crawler/coll_urls.h"
#include "crawler/collection.h"
#include "crawler/crawl_module.h"
#include "crawler/eval.h"
#include "crawler/incremental_crawler.h"
#include "crawler/periodic_crawler.h"
#include "crawler/ranking_module.h"
#include "crawler/update_module.h"
#include "freshness/analytic.h"
#include "simweb/simulated_web.h"

namespace webevo::crawler {
namespace {

using simweb::Url;

CollectionEntry MakeEntry(Url url, double importance = 0.0) {
  CollectionEntry e;
  e.url = url;
  e.importance = importance;
  return e;
}

// -------------------------------------------------------------- Collection

TEST(CollectionTest, UpsertAndFind) {
  Collection c(2);
  ASSERT_TRUE(c.Upsert(MakeEntry(Url{0, 1, 0})).ok());
  EXPECT_TRUE(c.Contains(Url{0, 1, 0}));
  EXPECT_NE(c.Find(Url{0, 1, 0}), nullptr);
  EXPECT_EQ(c.Find(Url{0, 2, 0}), nullptr);
  EXPECT_EQ(c.size(), 1u);
}

TEST(CollectionTest, CapacityEnforcedForNewEntries) {
  Collection c(1);
  ASSERT_TRUE(c.Upsert(MakeEntry(Url{0, 1, 0})).ok());
  Status st = c.Upsert(MakeEntry(Url{0, 2, 0}));
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  // In-place update of the existing entry still works at capacity.
  EXPECT_TRUE(c.Upsert(MakeEntry(Url{0, 1, 0}, 5.0)).ok());
  EXPECT_DOUBLE_EQ(c.Find(Url{0, 1, 0})->importance, 5.0);
}

TEST(CollectionTest, RemoveFreesSpace) {
  Collection c(1);
  ASSERT_TRUE(c.Upsert(MakeEntry(Url{0, 1, 0})).ok());
  EXPECT_TRUE(c.Remove(Url{0, 1, 0}).ok());
  EXPECT_FALSE(c.Remove(Url{0, 1, 0}).ok());
  EXPECT_TRUE(c.Upsert(MakeEntry(Url{0, 2, 0})).ok());
}

TEST(CollectionTest, LowestImportance) {
  Collection c(3);
  ASSERT_TRUE(c.Upsert(MakeEntry(Url{0, 1, 0}, 3.0)).ok());
  ASSERT_TRUE(c.Upsert(MakeEntry(Url{0, 2, 0}, 1.0)).ok());
  ASSERT_TRUE(c.Upsert(MakeEntry(Url{0, 3, 0}, 2.0)).ok());
  ASSERT_NE(c.LowestImportance(), nullptr);
  EXPECT_EQ(c.LowestImportance()->url, (Url{0, 2, 0}));
  Collection empty(1);
  EXPECT_EQ(empty.LowestImportance(), nullptr);
}

TEST(CollectionTest, ForEachVisitsAll) {
  Collection c(5);
  for (uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(c.Upsert(MakeEntry(Url{0, i, 0})).ok());
  }
  int visits = 0;
  c.ForEach([&](const CollectionEntry&) { ++visits; });
  EXPECT_EQ(visits, 5);
}

// ----------------------------------------------------------------- AllUrls

TEST(AllUrlsTest, AddAndInLinks) {
  AllUrls all;
  EXPECT_TRUE(all.Add(Url{0, 1, 0}, 1.0));
  EXPECT_FALSE(all.Add(Url{0, 1, 0}, 2.0));  // duplicate
  EXPECT_DOUBLE_EQ(all.Find(Url{0, 1, 0})->first_seen, 1.0);
  all.NoteInLink(Url{0, 1, 0}, 3.0);
  all.NoteInLink(Url{0, 2, 0}, 3.0);  // discovers implicitly
  EXPECT_EQ(all.Find(Url{0, 1, 0})->in_links, 1u);
  EXPECT_EQ(all.Find(Url{0, 2, 0})->in_links, 1u);
  EXPECT_DOUBLE_EQ(all.Find(Url{0, 2, 0})->first_seen, 3.0);
  EXPECT_EQ(all.size(), 2u);
}

TEST(AllUrlsTest, MarkDead) {
  AllUrls all;
  EXPECT_FALSE(all.MarkDead(Url{0, 1, 0}).ok());
  all.Add(Url{0, 1, 0}, 0.0);
  EXPECT_TRUE(all.MarkDead(Url{0, 1, 0}).ok());
  EXPECT_TRUE(all.Find(Url{0, 1, 0})->dead);
}

// ---------------------------------------------------------------- CollUrls

TEST(CollUrlsTest, PopsInTimeOrder) {
  CollUrls q;
  q.Schedule(Url{0, 1, 0}, 3.0);
  q.Schedule(Url{0, 2, 0}, 1.0);
  q.Schedule(Url{0, 3, 0}, 2.0);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.Pop()->url, (Url{0, 2, 0}));
  EXPECT_EQ(q.Pop()->url, (Url{0, 3, 0}));
  EXPECT_EQ(q.Pop()->url, (Url{0, 1, 0}));
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(CollUrlsTest, RescheduleSupersedes) {
  CollUrls q;
  q.Schedule(Url{0, 1, 0}, 5.0);
  q.Schedule(Url{0, 2, 0}, 2.0);
  q.Schedule(Url{0, 1, 0}, 1.0);  // move forward
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.Pop()->url, (Url{0, 1, 0}));
  EXPECT_EQ(q.Pop()->url, (Url{0, 2, 0}));
  EXPECT_TRUE(q.empty());
}

TEST(CollUrlsTest, ScheduleFrontJumpsTheQueue) {
  CollUrls q;
  q.Schedule(Url{0, 1, 0}, 0.5);
  q.ScheduleFront(Url{0, 9, 0});
  EXPECT_EQ(q.Pop()->url, (Url{0, 9, 0}));
}

TEST(CollUrlsTest, ScheduleFrontIsFifoAmongFrontInserts) {
  CollUrls q;
  q.Schedule(Url{0, 1, 0}, 1.0);
  q.ScheduleFront(Url{0, 8, 0});
  q.ScheduleFront(Url{0, 9, 0});
  EXPECT_EQ(q.Pop()->url, (Url{0, 8, 0}));
  EXPECT_EQ(q.Pop()->url, (Url{0, 9, 0}));
  EXPECT_EQ(q.Pop()->url, (Url{0, 1, 0}));
}

TEST(CollUrlsTest, RemoveIsLazyButEffective) {
  CollUrls q;
  q.Schedule(Url{0, 1, 0}, 1.0);
  q.Schedule(Url{0, 2, 0}, 2.0);
  EXPECT_TRUE(q.Remove(Url{0, 1, 0}).ok());
  EXPECT_FALSE(q.Remove(Url{0, 1, 0}).ok());
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.Pop()->url, (Url{0, 2, 0}));
  EXPECT_TRUE(q.empty());
}

TEST(CollUrlsTest, PeekDoesNotConsume) {
  CollUrls q;
  q.Schedule(Url{0, 1, 0}, 1.0);
  EXPECT_EQ(q.Peek()->url, (Url{0, 1, 0}));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.Pop()->url, (Url{0, 1, 0}));
}

TEST(CollUrlsTest, ContainsTracksLiveEntries) {
  CollUrls q;
  q.Schedule(Url{0, 1, 0}, 1.0);
  EXPECT_TRUE(q.Contains(Url{0, 1, 0}));
  q.Pop();
  EXPECT_FALSE(q.Contains(Url{0, 1, 0}));
}

TEST(CollUrlsTest, StressRescheduleKeepsConsistency) {
  CollUrls q;
  for (int round = 0; round < 50; ++round) {
    for (uint32_t i = 0; i < 20; ++i) {
      q.Schedule(Url{0, i, 0}, static_cast<double>((round * 7 + i) % 13));
    }
  }
  EXPECT_EQ(q.size(), 20u);
  double prev = -1.0;
  int popped = 0;
  while (auto item = q.Pop()) {
    EXPECT_GE(item->when, prev);
    prev = item->when;
    ++popped;
  }
  EXPECT_EQ(popped, 20);
}

// ------------------------------------------------------------- CrawlModule

simweb::WebConfig TinyWeb(uint64_t seed = 77) {
  simweb::WebConfig c;
  c.seed = seed;
  c.sites_per_domain = {2, 1, 1, 1};
  c.min_site_size = 10;
  c.max_site_size = 30;
  return c;
}

TEST(CrawlModuleTest, CrawlSuccessAndFailureCounted) {
  simweb::SimulatedWeb web(TinyWeb());
  CrawlModule module(&web, {});
  EXPECT_TRUE(module.Crawl(web.RootUrl(0), 0.0).ok());
  EXPECT_FALSE(module.Crawl(Url{0, 0, 9}, 0.1).ok());
  EXPECT_EQ(module.traffic().fetch_count, 2u);
  EXPECT_EQ(module.traffic().failure_count, 1u);
}

TEST(CrawlModuleTest, PolitenessEnforcement) {
  simweb::SimulatedWeb web(TinyWeb());
  CrawlModuleConfig config;
  config.per_site_delay_days = 0.5;
  config.enforce_politeness = true;
  CrawlModule module(&web, config);
  ASSERT_TRUE(module.Crawl(web.RootUrl(0), 0.0).ok());
  auto too_soon = module.Crawl(web.RootUrl(0), 0.1);
  EXPECT_FALSE(too_soon.ok());
  EXPECT_EQ(too_soon.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(module.traffic().politeness_rejections, 1u);
  EXPECT_GE(module.NextAllowedTime(0), 0.5);
  EXPECT_TRUE(module.Crawl(web.RootUrl(0), 0.6).ok());
  // A different site is unaffected.
  EXPECT_TRUE(module.Crawl(web.RootUrl(1), 0.61).ok());
}

TEST(CrawlModuleTest, PeakAndAverageRates) {
  simweb::SimulatedWeb web(TinyWeb());
  CrawlModule module(&web, {});
  // 10 fetches on day 0, 2 on day 5.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(module.Crawl(web.RootUrl(0), 0.01 * i).ok());
  }
  ASSERT_TRUE(module.Crawl(web.RootUrl(0), 5.0).ok());
  ASSERT_TRUE(module.Crawl(web.RootUrl(0), 5.1).ok());
  EXPECT_DOUBLE_EQ(module.traffic().PeakDailyRate(), 10.0);
  EXPECT_NEAR(module.traffic().AverageDailyRate(), 12.0 / 5.1, 1e-9);
  EXPECT_GT(module.traffic().PeakDailyRate(),
            module.traffic().AverageDailyRate());
}

// ------------------------------------------------------------ UpdateModule

TEST(UpdateModuleTest, SchedulesWithinClampBounds) {
  UpdateModuleConfig config;
  config.min_revisit_interval_days = 1.0;
  config.max_revisit_interval_days = 10.0;
  config.policy = RevisitPolicy::kUniform;
  config.crawl_budget_pages_per_day = 100.0;
  UpdateModule module(config);
  double next = module.OnCrawled(Url{0, 1, 0}, 5.0, false, true);
  EXPECT_GE(next, 6.0);
  EXPECT_LE(next, 15.0);
}

TEST(UpdateModuleTest, EstimatorLearnsFromOutcomes) {
  UpdateModuleConfig config;
  config.estimator_kind = estimator::EstimatorKind::kRatio;
  UpdateModule module(config);
  Url url{0, 1, 0};
  module.OnCrawled(url, 0.0, false, true);
  for (int day = 1; day <= 60; ++day) {
    module.OnCrawled(url, day, day % 3 == 0, false);
  }
  // Roughly one detected change every 3 days.
  EXPECT_NEAR(module.EstimatedRate(url), 1.0 / 3.0, 0.15);
}

TEST(UpdateModuleTest, FasterPagesRevisitedSoonerUnderOptimal) {
  UpdateModuleConfig config;
  config.policy = RevisitPolicy::kOptimal;
  config.crawl_budget_pages_per_day = 2.0;
  config.min_revisit_interval_days = 0.01;
  config.max_revisit_interval_days = 365.0;
  UpdateModule module(config);
  Url fast{0, 1, 0}, slow{0, 2, 0};
  module.OnCrawled(fast, 0.0, false, true);
  module.OnCrawled(slow, 0.0, false, true);
  // Feed history: fast changes every visit-ish, slow almost never.
  for (int day = 1; day <= 120; ++day) {
    module.OnCrawled(fast, day, day % 4 == 0, false);
    module.OnCrawled(slow, day, day % 60 == 0, false);
  }
  module.Rebalance();
  double next_fast = module.OnCrawled(fast, 121.0, false, false) - 121.0;
  double next_slow = module.OnCrawled(slow, 121.0, false, false) - 121.0;
  EXPECT_LT(next_fast, next_slow);
}

TEST(UpdateModuleTest, OptimalAbandonsHopelesslyFastPages) {
  // A page changing far faster than the budget permits should get the
  // maximum interval (the clamped version of "never visit").
  UpdateModuleConfig config;
  config.policy = RevisitPolicy::kOptimal;
  config.crawl_budget_pages_per_day = 1.0;
  config.max_revisit_interval_days = 50.0;
  config.estimator_kind = estimator::EstimatorKind::kRatio;
  UpdateModule module(config);
  Url hot{0, 1, 0};
  Url warm{0, 2, 0};
  module.OnCrawled(hot, 0.0, false, true);
  module.OnCrawled(warm, 0.0, false, true);
  for (int i = 1; i <= 200; ++i) {
    module.OnCrawled(hot, i * 0.1, true, false);  // changes every visit
    module.OnCrawled(warm, i * 0.1, i % 40 == 0, false);
  }
  module.Rebalance();
  // Abandonment is verified before it sticks: the first post-abandon
  // visit is an immediate probe; once the probe confirms the page still
  // changes, it is deferred for twice the normal maximum.
  double probe_interval = module.OnCrawled(hot, 21.0, true, false) - 21.0;
  EXPECT_LT(probe_interval, 1.0);
  double confirmed =
      module.OnCrawled(hot, 21.0 + probe_interval, true, false) -
      (21.0 + probe_interval);
  EXPECT_DOUBLE_EQ(confirmed, 100.0);
}

TEST(UpdateModuleTest, SiteLevelStatsShareEstimator) {
  UpdateModuleConfig config;
  config.site_level_stats = true;
  config.estimator_kind = estimator::EstimatorKind::kRatio;
  UpdateModule module(config);
  Url a{3, 1, 0}, b{3, 2, 0};
  module.OnCrawled(a, 0.0, false, true);
  module.OnCrawled(b, 0.0, false, true);
  for (int day = 1; day <= 30; ++day) {
    module.OnCrawled(a, day, true, false);
  }
  // b never observed changing, but shares site 3's statistics.
  EXPECT_GT(module.EstimatedRate(b), 0.5);
}

TEST(UpdateModuleTest, ForgetDropsPage) {
  UpdateModule module({});
  Url url{0, 1, 0};
  module.OnCrawled(url, 0.0, false, true);
  EXPECT_EQ(module.tracked_pages(), 1u);
  module.Forget(url);
  EXPECT_EQ(module.tracked_pages(), 0u);
  EXPECT_DOUBLE_EQ(module.EstimatedRate(url), 0.0);
}

TEST(UpdateModuleTest, ImportanceBoostShortensInterval) {
  UpdateModuleConfig config;
  config.policy = RevisitPolicy::kUniform;
  config.importance_exponent = 1.0;
  config.crawl_budget_pages_per_day = 10.0;
  config.min_revisit_interval_days = 0.001;
  config.max_revisit_interval_days = 1000.0;
  UpdateModule module(config);
  Url vip{0, 1, 0}, pleb{0, 2, 0};
  module.OnCrawled(vip, 0.0, false, true);
  module.OnCrawled(pleb, 0.0, false, true);
  module.SetImportance(vip, 10.0);
  module.SetImportance(pleb, 0.1);
  module.Rebalance();
  double vip_next = module.OnCrawled(vip, 1.0, false, false);
  double pleb_next = module.OnCrawled(pleb, 1.0, false, false);
  EXPECT_LT(vip_next, pleb_next);
}

// ----------------------------------------------------------- RankingModule

TEST(RankingModuleTest, ScoresCollectionAndProposesReplacements) {
  // Hand-built universe: collection holds pages A, B; B is unloved.
  // Candidate C is linked from both collection pages, so its estimated
  // importance exceeds B's and it should replace B.
  Collection collection(2);
  AllUrls all;
  Url a{0, 1, 0}, b{0, 2, 0}, c{0, 3, 0};
  CollectionEntry ea = MakeEntry(a);
  ea.links = {c};
  CollectionEntry eb = MakeEntry(b);
  eb.links = {a, c};
  ASSERT_TRUE(collection.Upsert(ea).ok());
  ASSERT_TRUE(collection.Upsert(eb).ok());
  all.Add(a, 0.0);
  all.Add(b, 0.0);
  all.NoteInLink(c, 0.0);
  all.NoteInLink(c, 0.0);

  RankingModuleConfig config;
  config.metric = ImportanceMetric::kPageRank;
  RankingModule ranking(config);
  RefinementResult result = ranking.Refine(all, collection);
  EXPECT_EQ(result.graph_nodes, 3u);
  EXPECT_EQ(result.graph_edges, 3u);
  // Importance written back.
  EXPECT_GT(collection.Find(a)->importance, 0.0);
  ASSERT_EQ(result.replacements.size(), 1u);
  EXPECT_EQ(result.replacements[0].discard, b);
  EXPECT_EQ(result.replacements[0].crawl, c);
  EXPECT_GT(result.replacements[0].crawl_score,
            result.replacements[0].discard_score);
}

TEST(RankingModuleTest, HysteresisBlocksMarginalSwaps) {
  Collection collection(1);
  AllUrls all;
  Url a{0, 1, 0}, c{0, 2, 0};
  // Symmetric: a links c... but a is the only member; candidate c gets
  // the same in-link mass as a gets none. With huge hysteresis no swap.
  CollectionEntry ea = MakeEntry(a);
  ea.links = {c};
  ASSERT_TRUE(collection.Upsert(ea).ok());
  all.Add(a, 0.0);
  all.NoteInLink(c, 0.0);
  RankingModuleConfig config;
  config.replacement_hysteresis = 100.0;
  RankingModule ranking(config);
  EXPECT_TRUE(ranking.Refine(all, collection).replacements.empty());
}

TEST(RankingModuleTest, DeadCandidatesIgnored) {
  Collection collection(1);
  AllUrls all;
  Url a{0, 1, 0}, dead{0, 2, 0};
  CollectionEntry ea = MakeEntry(a);
  ea.links = {dead, dead, dead};
  ASSERT_TRUE(collection.Upsert(ea).ok());
  all.Add(a, 0.0);
  all.NoteInLink(dead, 0.0);
  ASSERT_TRUE(all.MarkDead(dead).ok());
  RankingModule ranking({});
  EXPECT_TRUE(ranking.Refine(all, collection).replacements.empty());
}

TEST(RankingModuleTest, InLinkMetricWorks) {
  Collection collection(2);
  AllUrls all;
  Url a{0, 1, 0}, b{0, 2, 0};
  CollectionEntry ea = MakeEntry(a);
  ea.links = {b, b};
  ASSERT_TRUE(collection.Upsert(ea).ok());
  CollectionEntry eb = MakeEntry(b);
  ASSERT_TRUE(collection.Upsert(eb).ok());
  RankingModuleConfig config;
  config.metric = ImportanceMetric::kInLinks;
  RankingModule ranking(config);
  ranking.Refine(all, collection);
  EXPECT_DOUBLE_EQ(collection.Find(b)->importance, 2.0);
  EXPECT_DOUBLE_EQ(collection.Find(a)->importance, 0.0);
}

TEST(RankingModuleTest, HitsMetricRuns) {
  Collection collection(2);
  AllUrls all;
  Url a{0, 1, 0}, b{0, 2, 0};
  CollectionEntry ea = MakeEntry(a);
  ea.links = {b};
  ASSERT_TRUE(collection.Upsert(ea).ok());
  ASSERT_TRUE(collection.Upsert(MakeEntry(b)).ok());
  RankingModuleConfig config;
  config.metric = ImportanceMetric::kHitsAuthority;
  RankingModule ranking(config);
  ranking.Refine(all, collection);
  EXPECT_GT(collection.Find(b)->importance,
            collection.Find(a)->importance);
}

// ------------------------------------------------------------------- eval

TEST(EvalTest, FreshCollectionMeasuresOne) {
  simweb::WebConfig wc = TinyWeb(80);
  wc.uniform_change_interval_days = 1000.0;
  wc.uniform_lifespan_days = 1e6;
  simweb::SimulatedWeb web(wc);
  Collection collection(10);
  auto fetched = web.Fetch(web.RootUrl(0), 0.0);
  ASSERT_TRUE(fetched.ok());
  CollectionEntry e = MakeEntry(fetched->url);
  e.version = fetched->version;
  ASSERT_TRUE(collection.Upsert(e).ok());
  CollectionQuality q = MeasureCollection(web, collection, 0.0);
  EXPECT_EQ(q.size, 1u);
  EXPECT_EQ(q.fresh, 1u);
  EXPECT_DOUBLE_EQ(q.freshness, 1.0);
  EXPECT_EQ(q.dead, 0u);
}

TEST(EvalTest, StaleAndDeadDetected) {
  simweb::WebConfig wc = TinyWeb(81);
  wc.uniform_change_interval_days = 0.5;  // fast churn
  wc.uniform_lifespan_days = 5.0;
  simweb::SimulatedWeb web(wc);
  Collection collection(10);
  auto root = web.Fetch(web.RootUrl(0), 0.0);  // immortal but changes
  ASSERT_TRUE(root.ok());
  Url mortal_url = web.OracleCurrentUrl(0, 3, 0.0);
  auto mortal = web.Fetch(mortal_url, 0.0);
  ASSERT_TRUE(mortal.ok());
  CollectionEntry e1 = MakeEntry(root->url);
  e1.version = root->version;
  CollectionEntry e2 = MakeEntry(mortal->url);
  e2.version = mortal->version;
  ASSERT_TRUE(collection.Upsert(e1).ok());
  ASSERT_TRUE(collection.Upsert(e2).ok());
  // 50 days later: the root has surely changed; the mortal page died.
  CollectionQuality q = MeasureCollection(web, collection, 50.0);
  EXPECT_EQ(q.size, 2u);
  EXPECT_EQ(q.fresh, 0u);
  EXPECT_EQ(q.dead, 1u);
  EXPECT_GT(q.mean_stale_age_days, 0.0);
}

TEST(EvalTest, EmptyCollection) {
  simweb::SimulatedWeb web(TinyWeb(82));
  Collection collection(10);
  CollectionQuality q = MeasureCollection(web, collection, 0.0);
  EXPECT_DOUBLE_EQ(q.freshness, 0.0);
  EXPECT_EQ(q.size, 0u);
}

// ------------------------------------------------------ IncrementalCrawler

simweb::WebConfig MidWeb(uint64_t seed) {
  simweb::WebConfig c;
  c.seed = seed;
  c.sites_per_domain = {4, 3, 2, 1};
  c.min_site_size = 30;
  c.max_site_size = 80;
  return c;
}

IncrementalCrawlerConfig MidCrawlerConfig(std::size_t capacity = 300) {
  IncrementalCrawlerConfig config;
  config.collection_capacity = capacity;
  config.crawl_rate_pages_per_day = capacity / 3.0;  // sweep ~ 3 days
  config.refine_interval_days = 5.0;
  config.update.min_revisit_interval_days = 0.2;
  config.update.max_revisit_interval_days = 30.0;
  return config;
}

TEST(IncrementalCrawlerTest, RequiresBootstrap) {
  simweb::SimulatedWeb web(MidWeb(90));
  IncrementalCrawler crawler(&web, MidCrawlerConfig());
  EXPECT_FALSE(crawler.RunUntil(1.0).ok());
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  EXPECT_FALSE(crawler.Bootstrap(0.0).ok());  // only once
}

TEST(IncrementalCrawlerTest, FillsCollectionToCapacity) {
  simweb::SimulatedWeb web(MidWeb(91));
  IncrementalCrawler crawler(&web, MidCrawlerConfig(200));
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(10.0).ok());
  // Within one page of capacity: a page can die between the refinement
  // pass that admitted it and the crawl that would store it.
  EXPECT_GE(crawler.collection().size(), 198u);
  EXPECT_LE(crawler.collection().size(), 200u);
  EXPECT_GT(crawler.stats().crawls, 200u);
  EXPECT_GT(crawler.all_urls().size(), crawler.collection().size());
}

TEST(IncrementalCrawlerTest, MaintainsHighFreshnessOnSlowWeb) {
  simweb::WebConfig wc = MidWeb(92);
  wc.uniform_change_interval_days = 120.0;  // paper's average page
  wc.uniform_lifespan_days = 1e6;
  simweb::SimulatedWeb web(wc);
  IncrementalCrawlerConfig config = MidCrawlerConfig(250);
  config.crawl_rate_pages_per_day = 250.0 / 30.0;  // monthly sweep
  IncrementalCrawler crawler(&web, config);
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(120.0).ok());
  // Analytic expectation: ~0.88 for lambda T = 0.25. Allow sim noise.
  double avg = crawler.tracker().TimeAverage(60.0, 120.0);
  EXPECT_GT(avg, 0.80);
  EXPECT_LE(avg, 1.0);
}

TEST(IncrementalCrawlerTest, RemovesDeadPages) {
  simweb::WebConfig wc = MidWeb(93);
  wc.uniform_lifespan_days = 8.0;  // heavy churn
  simweb::SimulatedWeb web(wc);
  IncrementalCrawler crawler(&web, MidCrawlerConfig(200));
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(40.0).ok());
  EXPECT_GT(crawler.stats().dead_pages_removed, 0u);
  // The collection keeps only pages that could be re-verified alive.
  CollectionQuality q = crawler.MeasureNow();
  EXPECT_LT(static_cast<double>(q.dead) / static_cast<double>(q.size),
            0.5);
}

TEST(IncrementalCrawlerTest, BringsInNewPagesQuickly) {
  simweb::WebConfig wc = MidWeb(94);
  wc.uniform_lifespan_days = 20.0;
  simweb::SimulatedWeb web(wc);
  IncrementalCrawlerConfig config = MidCrawlerConfig(150);
  IncrementalCrawler crawler(&web, config);
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(60.0).ok());
  const auto& latency = crawler.stats().new_page_latency_days;
  ASSERT_GT(latency.count(), 0);
  // Average discovery-to-index latency should be well under a sweep.
  EXPECT_LT(latency.mean(), 10.0);
}

TEST(IncrementalCrawlerTest, RunsRefinementAndRebalance) {
  simweb::SimulatedWeb web(MidWeb(95));
  IncrementalCrawler crawler(&web, MidCrawlerConfig(100));
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(20.0).ok());
  EXPECT_GE(crawler.ranking_module().refinement_count(), 3);
  EXPECT_GE(crawler.update_module().rebalance_count(), 19);
  // Importance was propagated to entries at some point.
  bool any_importance = false;
  crawler.collection().ForEach([&](const CollectionEntry& e) {
    any_importance |= e.importance > 0.0;
  });
  EXPECT_TRUE(any_importance);
}

TEST(IncrementalCrawlerTest, SteadySpeedNeverExceedsConfiguredRate) {
  simweb::SimulatedWeb web(MidWeb(96));
  IncrementalCrawlerConfig config = MidCrawlerConfig(200);
  config.crawl_rate_pages_per_day = 50.0;
  IncrementalCrawler crawler(&web, config);
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(30.0).ok());
  EXPECT_LE(crawler.crawl_pool().AggregateTraffic().PeakDailyRate(), 51.0);
}

// --------------------------------------------------------- PeriodicCrawler

PeriodicCrawlerConfig MidPeriodicConfig(std::size_t capacity = 300) {
  PeriodicCrawlerConfig config;
  config.collection_capacity = capacity;
  config.cycle_days = 30.0;
  config.crawl_window_days = 7.0;
  return config;
}

TEST(PeriodicCrawlerTest, ValidatesWindow) {
  simweb::SimulatedWeb web(MidWeb(97));
  PeriodicCrawlerConfig config = MidPeriodicConfig();
  config.crawl_window_days = 60.0;  // > cycle
  PeriodicCrawler crawler(&web, config);
  EXPECT_FALSE(crawler.Bootstrap(0.0).ok());
}

TEST(PeriodicCrawlerTest, ShadowingPublishesAtCrawlEnd) {
  simweb::SimulatedWeb web(MidWeb(98));
  PeriodicCrawler crawler(&web, MidPeriodicConfig(200));
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  // Mid-window: current collection still empty (shadowing shields it).
  ASSERT_TRUE(crawler.RunUntil(0.5).ok());
  EXPECT_EQ(crawler.current_collection().size(), 0u);
  ASSERT_TRUE(crawler.RunUntil(8.0).ok());
  EXPECT_EQ(crawler.current_collection().size(), 200u);
  EXPECT_EQ(crawler.cycles_completed(), 1);
  EXPECT_EQ(crawler.stats().swaps, 1u);
}

// Under the paged backend the collection users read must get the
// backend's memory bound too: after the shadow swap its records sit
// in pages, none waiting for a flush.
TEST(PeriodicCrawlerTest, PagedShadowSwapKeepsCurrentCompacted) {
  simweb::SimulatedWeb web(MidWeb(98));
  PeriodicCrawlerConfig config = MidPeriodicConfig(200);
  config.store.backend = storage::StoreOptions::Backend::kPaged;
  config.store.dir = testing::TempDir();
  PeriodicCrawler crawler(&web, config);
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(8.0).ok());
  ASSERT_EQ(crawler.cycles_completed(), 1);
  const Collection& current = crawler.current_collection();
  EXPECT_EQ(current.size(), 200u);
  EXPECT_EQ(current.shard(0).store_stats().dirty_records, 0u);
  EXPECT_GE(current.shard(0).store_stats().pages, 1u);
}

TEST(PeriodicCrawlerTest, InPlaceVisibleImmediately) {
  simweb::SimulatedWeb web(MidWeb(99));
  PeriodicCrawlerConfig config = MidPeriodicConfig(200);
  config.shadowing = false;
  PeriodicCrawler crawler(&web, config);
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(0.5).ok());
  EXPECT_GT(crawler.current_collection().size(), 0u);
}

TEST(PeriodicCrawlerTest, RunsMultipleCycles) {
  simweb::SimulatedWeb web(MidWeb(100));
  PeriodicCrawler crawler(&web, MidPeriodicConfig(150));
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(95.0).ok());
  EXPECT_EQ(crawler.cycles_completed(), 3);
  EXPECT_GT(crawler.stats().crawls, 3 * 150u);
}

TEST(PeriodicCrawlerTest, BatchPeakExceedsSteadyPeakAtSameAverage) {
  // The paper's Section 4 argument for steady crawlers: same pages per
  // month, lower peak load.
  simweb::SimulatedWeb web1(MidWeb(101));
  PeriodicCrawlerConfig batch = MidPeriodicConfig(200);
  batch.crawl_window_days = 5.0;
  PeriodicCrawler batch_crawler(&web1, batch);
  ASSERT_TRUE(batch_crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(batch_crawler.RunUntil(60.0).ok());

  simweb::SimulatedWeb web2(MidWeb(101));
  PeriodicCrawlerConfig steady = MidPeriodicConfig(200);
  steady.crawl_window_days = steady.cycle_days;  // steady mode
  PeriodicCrawler steady_crawler(&web2, steady);
  ASSERT_TRUE(steady_crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(steady_crawler.RunUntil(60.0).ok());

  EXPECT_GT(batch_crawler.crawl_pool().AggregateTraffic().PeakDailyRate(),
            3.0 *
                steady_crawler.crawl_pool().AggregateTraffic().PeakDailyRate());
}

TEST(PeriodicCrawlerTest, FreshnessSampledOverTime) {
  simweb::SimulatedWeb web(MidWeb(102));
  PeriodicCrawler crawler(&web, MidPeriodicConfig(150));
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(40.0).ok());
  EXPECT_GT(crawler.tracker().size(), 100u);
  EXPECT_GT(crawler.tracker().MaxValue(), 0.0);
}

}  // namespace
}  // namespace webevo::crawler
