// Fault-injection and failure-pipeline tests: classified fetch
// failures, deterministic backoff/quarantine/retirement in the
// incremental crawler, bounded requeues in the periodic crawler, and
// the headline invariants — N = 1 == N = 8 byte-identical under any
// fault scenario, and a mid-backoff checkpoint resume that rejoins the
// uninterrupted trajectory exactly.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crawler/coll_urls.h"
#include "crawler/incremental_crawler.h"
#include "crawler/periodic_crawler.h"
#include "crawler/snapshot.h"
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

simweb::WebConfig FaultyWeb(const std::string& scenario) {
  simweb::WebConfig config = SmallWeb();
  Status st = simweb::ApplyFaultScenario(scenario, &config);
  EXPECT_TRUE(st.ok()) << st.ToString();
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
std::string CheckpointBytes(const Crawler& crawler) {
  CrawlerCheckpointOptions options;
  options.include_web = true;
  std::ostringstream out;
  Status saved = SaveCrawler(crawler, out, options);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  return out.str();
}

// --------------------------------------------------- scenario plumbing

TEST(FaultScenarioTest, NamedScenariosApplyAndValidate) {
  for (const char* name : {"none", "baseline", "transient10",
                           "outage-storm", "site-death", "flash-crowd"}) {
    simweb::WebConfig config = SmallWeb();
    Status st = simweb::ApplyFaultScenario(name, &config);
    ASSERT_TRUE(st.ok()) << name << ": " << st.ToString();
    EXPECT_TRUE(config.Validate().ok()) << name;
    const bool expect_faults =
        std::string(name) != "none" && std::string(name) != "baseline";
    EXPECT_EQ(config.HasFaults(), expect_faults) << name;
  }
  simweb::WebConfig config = SmallWeb();
  EXPECT_FALSE(simweb::ApplyFaultScenario("no-such", &config).ok());
}

// ------------------------------------------------ fetch classification

TEST(FaultInjectionTest, TransientFailuresAreUnavailable) {
  simweb::WebConfig config = SmallWeb();
  config.fault_transient_prob = 1.0;
  simweb::SimulatedWeb web(config);
  auto result = web.Fetch(web.RootUrl(0), 1.0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST(FaultInjectionTest, TimeoutsAreDeadlineExceededAndChargeLatency) {
  simweb::WebConfig config = SmallWeb();
  config.fault_timeout_prob = 1.0;
  config.fault_timeout_latency_days = 0.03;
  simweb::SimulatedWeb web(config);
  double latency = 0.0;
  auto result = web.Fetch(web.RootUrl(0), 1.0, &latency);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_DOUBLE_EQ(latency, 0.03);
}

TEST(FaultInjectionTest, SlowResponsesSucceedWithLatency) {
  simweb::WebConfig config = SmallWeb();
  config.fault_slow_prob = 1.0;
  config.fault_slow_latency_days = 0.02;
  simweb::SimulatedWeb web(config);
  double latency = 0.0;
  auto result = web.Fetch(web.RootUrl(0), 1.0, &latency);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(latency, 0.02);
}

TEST(FaultInjectionTest, DeadSitesStayDeadForever) {
  simweb::WebConfig config = SmallWeb();
  config.fault_site_death_prob = 1.0;
  config.fault_site_death_mean_day = 1.0;  // death in [0, 2]
  simweb::SimulatedWeb web(config);
  // Fetch times must be globally non-decreasing: sweep all sites at
  // the death horizon first, then all sites much later.
  for (uint32_t site = 0; site < web.num_sites(); ++site) {
    auto at_death = web.Fetch(web.RootUrl(site), 2.0);
    ASSERT_FALSE(at_death.ok()) << "site " << site;
    EXPECT_EQ(at_death.status().code(), StatusCode::kUnavailable);
  }
  for (uint32_t site = 0; site < web.num_sites(); ++site) {
    auto much_later = web.Fetch(web.RootUrl(site), 500.0);
    ASSERT_FALSE(much_later.ok()) << "site " << site;
    EXPECT_EQ(much_later.status().code(), StatusCode::kUnavailable);
  }
}

TEST(FaultInjectionTest, FaultOutcomesAreDeterministic) {
  simweb::WebConfig config = FaultyWeb("transient10");
  simweb::SimulatedWeb a(config);
  simweb::SimulatedWeb b(config);
  for (int i = 0; i < 40; ++i) {
    const double t = 0.1 * i;
    double la = 0.0, lb = 0.0;
    auto ra = a.Fetch(a.RootUrl(i % a.num_sites()), t, &la);
    auto rb = b.Fetch(b.RootUrl(i % b.num_sites()), t, &lb);
    EXPECT_EQ(ra.ok(), rb.ok()) << i;
    if (!ra.ok() && !rb.ok()) {
      EXPECT_EQ(ra.status().code(), rb.status().code()) << i;
    }
    EXPECT_DOUBLE_EQ(la, lb) << i;
  }
}

// A mid-stream web snapshot must carry the fault lanes: the restored
// web replays the same fault outcomes as the original.
TEST(FaultInjectionTest, WebSnapshotRoundTripsFaultState) {
  simweb::WebConfig config = FaultyWeb("outage-storm");
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
    auto ra = web.Fetch(web.RootUrl(i % web.num_sites()), t);
    auto rb = restored.Fetch(restored.RootUrl(i % web.num_sites()), t);
    EXPECT_EQ(ra.ok(), rb.ok()) << i;
    if (!ra.ok() && !rb.ok()) {
      EXPECT_EQ(ra.status().code(), rb.status().code()) << i;
    }
  }
}

// ------------------------------------------------ frontier quarantine

TEST(CollUrlsFaultTest, RescheduleSiteNotBeforeKeepsOrderAndTokens) {
  CollUrls queue;
  const simweb::Url a{1, 0, 0}, b{1, 1, 0}, c{2, 0, 0}, d{1, 2, 0};
  queue.Schedule(a, 1.0);
  queue.Schedule(b, 2.0);
  queue.Schedule(c, 1.5);  // other site: untouched
  queue.Schedule(d, 9.0);  // already past the floor: untouched
  EXPECT_EQ(queue.RescheduleSiteNotBefore(1, 5.0), 2u);
  EXPECT_EQ(queue.size(), 4u);
  // c keeps its original time; a and b land on the floor in their
  // original FIFO order (seq survives the move); d stays behind them.
  auto first = queue.Pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->url, c);
  auto second = queue.Pop();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->url, a);
  EXPECT_DOUBLE_EQ(second->when, 5.0);
  auto third = queue.Pop();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->url, b);
  EXPECT_DOUBLE_EQ(third->when, 5.0);
  auto fourth = queue.Pop();
  ASSERT_TRUE(fourth.has_value());
  EXPECT_EQ(fourth->url, d);
  EXPECT_FALSE(queue.Pop().has_value());  // no stale ghosts
}

// ------------------------------------- incremental failure pipeline

TEST(FaultPipelineTest, ClassifiesRetriesQuarantinesAndRetires) {
  simweb::WebConfig wc = SmallWeb();
  wc.fault_transient_prob = 0.9;
  wc.fault_timeout_prob = 0.1;
  simweb::SimulatedWeb web(wc);
  IncrementalCrawlerConfig config = IncConfig(2);
  config.fault_quarantine_threshold = 3;
  config.fault_quarantine_days = 0.5;
  // High enough that each site's breaker (3 consecutive) trips before
  // its root URL retires; low enough that roots do retire in 8 days.
  config.fault_url_retire_failures = 10;
  config.fault_backoff_base_days = 0.05;
  IncrementalCrawler crawler(&web, config);
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(8.0).ok());
  const auto& s = crawler.stats();
  EXPECT_GT(s.fetch_failures, 0u);
  EXPECT_GT(s.transient_errors, 0u);
  EXPECT_GT(s.timeout_errors, 0u);
  EXPECT_EQ(s.fetch_failures, s.transient_errors + s.timeout_errors);
  EXPECT_GT(s.failure_retries, 0u);
  EXPECT_GT(s.sites_quarantined, 0u);
  EXPECT_GT(s.urls_retired, 0u);
  EXPECT_GT(s.backoff_days.count(), 0);
  EXPECT_GT(s.backoff_days.sum(), 0.0);
}

// The estimator guard: failed observations land in the failure ledger,
// never in the visit evidence the change estimators consume.
TEST(FaultPipelineTest, FailuresNeverFeedEstimators) {
  simweb::SimulatedWeb web(FaultyWeb("transient10"));
  IncrementalCrawler crawler(&web, IncConfig(2));
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(10.0).ok());
  const auto& update = crawler.update_module();
  const auto& s = crawler.stats();
  EXPECT_GT(s.fetch_failures, 0u);
  EXPECT_EQ(update.failures_recorded(), s.fetch_failures);
  // Every planned slot is either a politeness rejection (never reaches
  // the web), a classified failure, a 404, or a successful visit; only
  // the last may feed the estimators.
  EXPECT_EQ(update.visits_recorded(),
            s.crawls - s.politeness_retries - s.fetch_failures -
                web.not_found_count());
}

// The headline invariant survives every fault scenario: N = 1 and
// N = 8 runs checkpoint to byte-identical files.
TEST(FaultPipelineTest, ShardCountInvariantUnderEveryScenario) {
  for (const char* scenario : {"transient10", "outage-storm",
                               "site-death", "flash-crowd"}) {
    simweb::WebConfig wc = FaultyWeb(scenario);
    simweb::SimulatedWeb web_1(wc);
    IncrementalCrawler serial(&web_1, IncConfig(1));
    ASSERT_TRUE(serial.Bootstrap(0.0).ok());
    ASSERT_TRUE(serial.RunUntil(8.0).ok());

    simweb::SimulatedWeb web_8(wc);
    IncrementalCrawler sharded(&web_8, IncConfig(8));
    ASSERT_TRUE(sharded.Bootstrap(0.0).ok());
    ASSERT_TRUE(sharded.RunUntil(8.0).ok());

    EXPECT_EQ(CheckpointBytes(serial), CheckpointBytes(sharded))
        << scenario;
    // The engine ledger is not checkpointed; its deterministic rows
    // must match too.
    EXPECT_EQ(
        ledger::Diff(serial.engine().stats(), sharded.engine().stats()),
        std::vector<std::string>{})
        << scenario;
  }
}

// Save mid-backoff / mid-quarantine at one shard count, resume at
// another, and rejoin the uninterrupted trajectory byte-for-byte: the
// failure section carries the breakers and their RNG lane positions.
TEST(FaultPipelineTest, MidBackoffResumeAcrossShardCounts) {
  simweb::WebConfig wc = FaultyWeb("transient10");
  IncrementalCrawlerConfig config = IncConfig(1);
  config.fault_quarantine_threshold = 3;
  config.fault_quarantine_days = 1.0;
  config.fault_backoff_base_days = 0.5;  // backoffs straddle the save

  simweb::SimulatedWeb web_a(wc);
  IncrementalCrawler straight(&web_a, config);
  ASSERT_TRUE(straight.Bootstrap(0.0).ok());
  ASSERT_TRUE(straight.RunUntil(10.0).ok());
  const std::string want = CheckpointBytes(straight);
  ASSERT_GT(straight.stats().fetch_failures, 0u);

  for (int save_shards : {1, 8}) {
    const int load_shards = save_shards == 8 ? 1 : 8;
    IncrementalCrawlerConfig save_config = config;
    save_config.crawl_parallelism = save_shards;
    simweb::SimulatedWeb web_b(wc);
    IncrementalCrawler saver(&web_b, save_config);
    ASSERT_TRUE(saver.Bootstrap(0.0).ok());
    ASSERT_TRUE(saver.RunUntil(5.0).ok());
    std::string mid = CheckpointBytes(saver);

    IncrementalCrawlerConfig load_config = config;
    load_config.crawl_parallelism = load_shards;
    simweb::SimulatedWeb web_c(wc);
    IncrementalCrawler resumed(&web_c, load_config);
    std::istringstream mid_in(mid);
    Status loaded = LoadCrawler(mid_in, &resumed);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    ASSERT_TRUE(resumed.RunUntil(10.0).ok());
    EXPECT_EQ(CheckpointBytes(resumed), want)
        << "save at N=" << save_shards << ", load at N=" << load_shards;
  }
}

// --------------------------------------- periodic failure handling

TEST(FaultPipelineTest, PeriodicBoundsRequeuesAndStaysDeterministic) {
  simweb::WebConfig wc = SmallWeb();
  wc.fault_transient_prob = 0.25;
  wc.fault_timeout_prob = 0.05;

  simweb::SimulatedWeb web_1(wc);
  PeriodicCrawler serial(&web_1, PerConfig(1));
  ASSERT_TRUE(serial.Bootstrap(0.0).ok());
  ASSERT_TRUE(serial.RunUntil(9.0).ok());
  const auto& s = serial.stats();
  EXPECT_GT(s.fetch_failures, 0u);
  EXPECT_EQ(s.fetch_failures, s.transient_errors + s.timeout_errors);
  EXPECT_GT(s.failure_retries, 0u);

  simweb::SimulatedWeb web_4(wc);
  PeriodicCrawler sharded(&web_4, PerConfig(4));
  ASSERT_TRUE(sharded.Bootstrap(0.0).ok());
  ASSERT_TRUE(sharded.RunUntil(9.0).ok());
  EXPECT_EQ(CheckpointBytes(serial), CheckpointBytes(sharded));
}

TEST(FaultPipelineTest, PeriodicMidCycleResumeReplaysRequeues) {
  simweb::WebConfig wc = SmallWeb();
  wc.fault_transient_prob = 0.3;
  PeriodicCrawlerConfig config = PerConfig(2);

  simweb::SimulatedWeb web_a(wc);
  PeriodicCrawler straight(&web_a, config);
  ASSERT_TRUE(straight.Bootstrap(0.0).ok());
  ASSERT_TRUE(straight.RunUntil(9.0).ok());
  const std::string want = CheckpointBytes(straight);

  simweb::SimulatedWeb web_b(wc);
  PeriodicCrawler first_half(&web_b, config);
  ASSERT_TRUE(first_half.Bootstrap(0.0).ok());
  ASSERT_TRUE(first_half.RunUntil(5.0).ok());
  std::string mid = CheckpointBytes(first_half);

  simweb::SimulatedWeb web_c(wc);
  PeriodicCrawler resumed(&web_c, config);
  std::istringstream mid_in(mid);
  Status loaded = LoadCrawler(mid_in, &resumed);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  ASSERT_TRUE(resumed.RunUntil(9.0).ok());
  EXPECT_EQ(CheckpointBytes(resumed), want);
}

// The failure ledger reaches the query surface: a published view's
// summary relation carries the failure counters.
TEST(FaultPipelineTest, ViewSummaryCarriesFailureLedger) {
  simweb::SimulatedWeb web(FaultyWeb("transient10"));
  IncrementalCrawlerConfig config = IncConfig(2);
  config.publish_view_every_batches = 1;
  IncrementalCrawler crawler(&web, config);
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(6.0).ok());
  serving::ViewRef view = crawler.views().AcquireRef();
  ASSERT_TRUE(view.get() != nullptr);
  bool found = false;
  for (const auto& [key, value] : view.get()->summary) {
    if (key == "fetch_failures") {
      found = true;
      EXPECT_EQ(value, std::to_string(crawler.stats().fetch_failures));
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace webevo::crawler
