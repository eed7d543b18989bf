// End-to-end integration tests: analytic theory vs. full simulation, and
// the paper's headline qualitative claims exercised through the whole
// stack (simweb -> crawlers -> oracle evaluation).

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "crawler/incremental_crawler.h"
#include "crawler/periodic_crawler.h"
#include "freshness/analytic.h"
#include "simweb/simulated_web.h"
#include "util/stats.h"

namespace webevo {
namespace {

using crawler::IncrementalCrawler;
using crawler::IncrementalCrawlerConfig;
using crawler::PeriodicCrawler;
using crawler::PeriodicCrawlerConfig;

// A uniform-rate web matching Table 2's model assumptions: every page
// changes with mean interval 120 days, no births/deaths.
simweb::WebConfig Table2Web(uint64_t seed) {
  simweb::WebConfig c;
  c.seed = seed;
  c.sites_per_domain = {6, 4, 2, 2};
  c.min_site_size = 40;
  c.max_site_size = 90;
  c.uniform_change_interval_days = 120.0;
  c.uniform_lifespan_days = 1e7;
  return c;
}

double RunPeriodic(uint64_t seed, double cycle, double window,
                   bool shadowing, double horizon) {
  simweb::SimulatedWeb web(Table2Web(seed));
  PeriodicCrawlerConfig config;
  config.collection_capacity = 400;
  config.cycle_days = cycle;
  config.crawl_window_days = window;
  config.shadowing = shadowing;
  PeriodicCrawler crawler(&web, config);
  EXPECT_TRUE(crawler.Bootstrap(0.0).ok());
  EXPECT_TRUE(crawler.RunUntil(horizon).ok());
  // Skip the first two cycles of warm-up.
  return crawler.tracker().TimeAverage(2.0 * cycle, horizon);
}

// ---------------- Table 2: simulation matches the closed forms ----------

TEST(Table2SimulationTest, SteadyInPlace) {
  double measured = RunPeriodic(201, 30.0, 30.0, false, 210.0);
  EXPECT_NEAR(measured, freshness::InPlaceFreshness(1.0 / 120.0, 30.0),
              0.03);
}

TEST(Table2SimulationTest, BatchInPlace) {
  double measured = RunPeriodic(202, 30.0, 7.0, false, 210.0);
  EXPECT_NEAR(measured, freshness::InPlaceFreshness(1.0 / 120.0, 30.0),
              0.03);
}

TEST(Table2SimulationTest, SteadyShadowing) {
  double measured = RunPeriodic(203, 30.0, 30.0, true, 210.0);
  EXPECT_NEAR(measured,
              freshness::SteadyShadowingFreshness(1.0 / 120.0, 30.0),
              0.03);
}

TEST(Table2SimulationTest, BatchShadowing) {
  double measured = RunPeriodic(204, 30.0, 7.0, true, 210.0);
  EXPECT_NEAR(measured,
              freshness::BatchShadowingFreshness(1.0 / 120.0, 30.0, 7.0),
              0.03);
}

TEST(Table2SimulationTest, OrderingMatchesPaper) {
  // in-place (0.88) > batch+shadow (0.86) > steady+shadow (0.77).
  double in_place = RunPeriodic(205, 30.0, 30.0, false, 210.0);
  double batch_shadow = RunPeriodic(206, 30.0, 7.0, true, 210.0);
  double steady_shadow = RunPeriodic(207, 30.0, 30.0, true, 210.0);
  EXPECT_GT(in_place, batch_shadow);
  EXPECT_GT(batch_shadow, steady_shadow);
}

// ------------- The incremental crawler vs the periodic crawler ----------

struct HeadToHead {
  double incremental_freshness = 0.0;
  double periodic_freshness = 0.0;
  double incremental_peak = 0.0;
  double periodic_peak = 0.0;
};

HeadToHead RunHeadToHead(uint64_t seed) {
  // Heterogeneous, churning web — the regime the incremental design
  // targets (Figure 10).
  simweb::WebConfig wc;
  wc.seed = seed;
  wc.sites_per_domain = {6, 4, 2, 2};
  wc.min_site_size = 30;
  wc.max_site_size = 70;

  HeadToHead result;
  const std::size_t capacity = 350;
  const double horizon = 120.0;
  {
    simweb::SimulatedWeb web(wc);
    IncrementalCrawlerConfig config;
    config.collection_capacity = capacity;
    config.crawl_rate_pages_per_day = capacity / 30.0;
    config.update.policy = crawler::RevisitPolicy::kOptimal;
    config.update.min_revisit_interval_days = 0.5;
    config.update.max_revisit_interval_days = 90.0;
    IncrementalCrawler inc(&web, config);
    EXPECT_TRUE(inc.Bootstrap(0.0).ok());
    EXPECT_TRUE(inc.RunUntil(horizon).ok());
    result.incremental_freshness = inc.tracker().TimeAverage(60.0, horizon);
    result.incremental_peak =
        inc.crawl_pool().AggregateTraffic().PeakDailyRate();
  }
  {
    simweb::SimulatedWeb web(wc);
    PeriodicCrawlerConfig config;
    config.collection_capacity = capacity;
    config.cycle_days = 30.0;
    config.crawl_window_days = 7.0;
    config.shadowing = true;
    PeriodicCrawler per(&web, config);
    EXPECT_TRUE(per.Bootstrap(0.0).ok());
    EXPECT_TRUE(per.RunUntil(horizon).ok());
    result.periodic_freshness = per.tracker().TimeAverage(60.0, horizon);
    result.periodic_peak = per.crawl_pool().AggregateTraffic().PeakDailyRate();
  }
  return result;
}

TEST(HeadToHeadTest, IncrementalIsFresherAtSameAverageSpeed) {
  HeadToHead r = RunHeadToHead(301);
  EXPECT_GT(r.incremental_freshness, r.periodic_freshness);
}

TEST(HeadToHeadTest, IncrementalHasLowerPeakLoad) {
  HeadToHead r = RunHeadToHead(302);
  EXPECT_LT(r.incremental_peak, r.periodic_peak / 2.0);
}

// ----------------- Variable vs fixed revisit frequency ------------------

// Per-rate-group outcome of one incremental-crawler run.
struct PolicyOutcome {
  double overall_freshness = 0.0;
  double tractable_freshness = 0.0;   // pages changing every ~40 days
  double tractable_copy_age = 0.0;    // mean days since last crawl
  double hopeless_copy_age = 0.0;     // pages changing ~20x/day
};

PolicyOutcome RunPolicyOutcome(uint64_t seed,
                               crawler::RevisitPolicy policy) {
  simweb::WebConfig wc;
  wc.seed = seed;
  wc.sites_per_domain = {6, 4, 2, 2};
  wc.min_site_size = 30;
  wc.max_site_size = 70;
  wc.uniform_lifespan_days = 1e7;  // isolate the revisit policy effect
  // The regime where Section 4's choice 3 pays off is a *hopeless
  // tail*: pages changing far faster than any affordable revisit
  // frequency (the paper's p2 "changes every second"). A fixed-
  // frequency crawler burns half its budget re-fetching them for ~zero
  // freshness; the optimal policy abandons them and reinvests in the
  // tractable half. (On mixes without such a tail, uniform is already
  // near-optimal — F is concave in f — which the optimizer unit tests
  // cover analytically.)
  // The tractable half must be identifiable at the crawl cadence: pages
  // faster than the visit rate all look like "changed every visit"
  // (Figure 1(a)), so intervals ~2x the sweep period are the regime
  // where adaptive scheduling demonstrably works.
  wc.custom_change_interval_mix = {{0.04, 0.06, 0.5},   // hopeless
                                   {35.0, 45.0, 0.5}};  // tractable
  simweb::SimulatedWeb web(wc);
  IncrementalCrawlerConfig config;
  config.collection_capacity = 350;
  config.crawl_rate_pages_per_day = 350.0 / 20.0;
  config.update.policy = policy;
  config.update.min_revisit_interval_days = 0.5;
  config.update.max_revisit_interval_days = 120.0;
  IncrementalCrawler crawler(&web, config);
  EXPECT_TRUE(crawler.Bootstrap(0.0).ok());
  // Warm-up, then sample per-group freshness every 5 days and average:
  // a single end-of-run snapshot would be dominated by phase noise.
  EXPECT_TRUE(crawler.RunUntil(75.0).ok());
  PolicyOutcome out;
  RunningStat tractable_fresh;
  std::vector<double> tractable_ages, hopeless_ages;
  for (double t = 80.0; t <= 150.0; t += 5.0) {
    EXPECT_TRUE(crawler.RunUntil(t).ok());
    double now = crawler.now();
    crawler.collection().ForEach([&](const crawler::CollectionEntry& e) {
      double rate = web.OracleChangeRate(e.page);
      if (rate > 1.0) {
        hopeless_ages.push_back(now - e.crawled_at);
      } else {
        tractable_fresh.Add(
            web.OracleIsFresh(e.url, e.version, now) ? 1.0 : 0.0);
        tractable_ages.push_back(now - e.crawled_at);
      }
    });
  }
  auto median = [](std::vector<double>& v) {
    if (v.empty()) return 0.0;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(v.size() / 2),
                     v.end());
    return v[v.size() / 2];
  };
  out.overall_freshness = crawler.tracker().TimeAverage(75.0, 150.0);
  out.tractable_freshness = tractable_fresh.mean();
  // Medians: the mean copy age is dominated by the few pages currently
  // in an exploration phase, not by the typical scheduling behaviour.
  out.tractable_copy_age = median(tractable_ages);
  out.hopeless_copy_age = median(hopeless_ages);
  return out;
}

TEST(RevisitPolicyTest, OptimalReallocatesFromHopelessToTractable) {
  PolicyOutcome optimal =
      RunPolicyOutcome(401, crawler::RevisitPolicy::kOptimal);
  PolicyOutcome uniform =
      RunPolicyOutcome(401, crawler::RevisitPolicy::kUniform);
  // The mechanism of Section 4's variable-frequency policy: abandon the
  // hopeless pages (their copies go stale for a long time)...
  EXPECT_GT(optimal.hopeless_copy_age, 3.0 * uniform.hopeless_copy_age);
  // ...and reinvest the budget into the tractable pages, whose copies
  // end up strictly younger (more frequently refreshed) than under the
  // fixed-frequency policy.
  EXPECT_LT(optimal.tractable_copy_age, uniform.tractable_copy_age);
  EXPECT_GE(optimal.tractable_freshness,
            uniform.tractable_freshness - 0.02);
  // End-to-end freshness must not fall below uniform's: the theoretical
  // gain (validated analytically in the optimizer tests as the paper's
  // 10-23% under *known* rates) is largely consumed by rate-estimation
  // noise and exploration overhead at this scale — a genuine finding
  // EXPERIMENTS.md discusses — but the policy must never be a clear
  // net loss.
  EXPECT_GE(optimal.overall_freshness, uniform.overall_freshness - 0.02);
}

TEST(RevisitPolicyTest, ProportionalDoesNotBeatOptimal) {
  PolicyOutcome optimal =
      RunPolicyOutcome(402, crawler::RevisitPolicy::kOptimal);
  PolicyOutcome proportional =
      RunPolicyOutcome(402, crawler::RevisitPolicy::kProportional);
  EXPECT_GE(optimal.overall_freshness,
            proportional.overall_freshness - 0.02);
}

// --------------------------- determinism --------------------------------

TEST(DeterminismTest, IdenticalRunsProduceIdenticalResults) {
  auto run = [] {
    simweb::SimulatedWeb web(Table2Web(999));
    PeriodicCrawlerConfig config;
    config.collection_capacity = 200;
    PeriodicCrawler crawler(&web, config);
    EXPECT_TRUE(crawler.Bootstrap(0.0).ok());
    EXPECT_TRUE(crawler.RunUntil(45.0).ok());
    return crawler.tracker().TimeAverage();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

}  // namespace
}  // namespace webevo
