#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "experiment/analyzers.h"
#include "experiment/csv_export.h"
#include "experiment/monitoring_experiment.h"
#include "experiment/page_stats.h"
#include "experiment/page_window.h"
#include "experiment/site_selector.h"
#include "simweb/simulated_web.h"
#include "util/hash.h"
#include "util/random.h"

namespace webevo::experiment {
namespace {

using simweb::Domain;
using simweb::Url;

simweb::WebConfig SmallStudyWeb(uint64_t seed = 55) {
  simweb::WebConfig c;
  c.seed = seed;
  c.sites_per_domain = {5, 3, 2, 2};
  c.min_site_size = 30;
  c.max_site_size = 80;
  return c;
}

/// A small study web under a fault and an adversarial scenario.
simweb::WebConfig ScenarioStudyWeb(const std::string& faults,
                                   const std::string& adversarial) {
  simweb::WebConfig c = SmallStudyWeb(60);
  EXPECT_TRUE(simweb::ApplyFaultScenario(faults, &c).ok());
  EXPECT_TRUE(simweb::ApplyAdversarialScenario(adversarial, &c).ok());
  return c;
}

/// The page window as specified before its slot marks: a hash set per
/// visit and a URL-keyed checksum map. PageWindow must report exactly
/// what this does.
class ReferenceWindow {
 public:
  ReferenceWindow(uint32_t site, std::size_t window_size)
      : site_(site), window_size_(window_size) {}

  WindowVisit Visit(const PageWindow::FetchFn& fetch) {
    WindowVisit visit;
    std::deque<Url> frontier;
    std::unordered_set<Url, simweb::UrlHash> enqueued;
    frontier.push_back(Url{site_, 0, 0});
    enqueued.insert(frontier.back());
    while (!frontier.empty() && visit.pages.size() < window_size_) {
      const Url url = frontier.front();
      frontier.pop_front();
      ++fetches_;
      auto result = fetch(url);
      if (!result.ok()) continue;
      Observation obs;
      obs.url = url;
      obs.page = result->page;
      auto it = last_checksum_.find(url);
      obs.first_sighting = it == last_checksum_.end();
      obs.changed = !obs.first_sighting && !(it->second == result->checksum);
      last_checksum_[url] = result->checksum;
      visit.pages.push_back(obs);
      for (const Url& link : result->links) {
        if (link.site != site_) continue;
        if (enqueued.insert(link).second) frontier.push_back(link);
      }
    }
    return visit;
  }

  uint64_t total_fetches() const { return fetches_; }

 private:
  uint32_t site_;
  std::size_t window_size_;
  std::unordered_map<Url, Checksum128, simweb::UrlHash> last_checksum_;
  uint64_t fetches_ = 0;
};

void ExpectSameVisit(const WindowVisit& got, const WindowVisit& want) {
  ASSERT_EQ(got.pages.size(), want.pages.size());
  for (std::size_t i = 0; i < got.pages.size(); ++i) {
    const Observation& g = got.pages[i];
    const Observation& w = want.pages[i];
    EXPECT_EQ(g.url, w.url) << i;
    EXPECT_EQ(g.page, w.page) << g.url.ToString();
    EXPECT_EQ(g.changed, w.changed) << g.url.ToString();
    EXPECT_EQ(g.first_sighting, w.first_sighting) << g.url.ToString();
  }
}

/// Visits every site of two identically built webs daily for `days`,
/// one through PageWindow and one through the reference, and requires
/// the same reports. Returns how many observations were past their
/// site's size.
int ExpectWindowsMatchReference(const simweb::WebConfig& config, int days,
                                std::size_t window_size) {
  simweb::SimulatedWeb web(config);
  simweb::SimulatedWeb reference_web(config);
  std::vector<PageWindow> windows;
  std::vector<ReferenceWindow> references;
  for (uint32_t s = 0; s < web.num_sites(); ++s) {
    windows.emplace_back(s, window_size);
    references.emplace_back(s, window_size);
  }
  int past_size = 0;
  for (int day = 0; day < days; ++day) {
    const double t = day;
    for (uint32_t s = 0; s < web.num_sites(); ++s) {
      const WindowVisit got = windows[s].Visit(web, t);
      const WindowVisit want = references[s].Visit(
          [&](const Url& url) { return reference_web.Fetch(url, t); });
      ExpectSameVisit(got, want);
      EXPECT_EQ(windows[s].total_fetches(), references[s].total_fetches());
      for (const Observation& obs : got.pages) {
        past_size += obs.url.slot >= web.site_size(s);
      }
    }
  }
  return past_size;
}

// --------------------------------------------------------------- PageWindow

TEST(PageWindowTest, FirstVisitMarksEverythingNew) {
  simweb::SimulatedWeb web(SmallStudyWeb());
  PageWindow window(0, 20);
  WindowVisit visit = window.Visit(web, 0.0);
  EXPECT_LE(visit.pages.size(), 20u);
  EXPECT_GT(visit.pages.size(), 1u);
  for (const Observation& obs : visit.pages) {
    EXPECT_TRUE(obs.first_sighting);
    EXPECT_FALSE(obs.changed);
    EXPECT_EQ(obs.url.site, 0u);
  }
}

TEST(PageWindowTest, WindowCapRespected) {
  simweb::SimulatedWeb web(SmallStudyWeb());
  PageWindow window(0, 5);
  WindowVisit visit = window.Visit(web, 0.0);
  EXPECT_EQ(visit.pages.size(), 5u);
}

TEST(PageWindowTest, BfsStartsAtRoot) {
  simweb::SimulatedWeb web(SmallStudyWeb());
  PageWindow window(1, 10);
  WindowVisit visit = window.Visit(web, 0.0);
  ASSERT_FALSE(visit.pages.empty());
  EXPECT_EQ(visit.pages.front().url, web.RootUrl(1));
}

TEST(PageWindowTest, UnchangedPagesNotFlagged) {
  simweb::WebConfig c = SmallStudyWeb();
  c.uniform_change_interval_days = 1e5;  // effectively frozen
  c.uniform_lifespan_days = 1e6;
  simweb::SimulatedWeb web(c);
  PageWindow window(0, 20);
  window.Visit(web, 0.0);
  WindowVisit second = window.Visit(web, 1.0);
  for (const Observation& obs : second.pages) {
    EXPECT_FALSE(obs.changed) << obs.url.ToString();
    EXPECT_FALSE(obs.first_sighting);
  }
}

TEST(PageWindowTest, FastPagesFlaggedChanged) {
  simweb::WebConfig c = SmallStudyWeb();
  c.uniform_change_interval_days = 0.05;  // many changes per day
  c.uniform_lifespan_days = 1e6;
  simweb::SimulatedWeb web(c);
  PageWindow window(0, 20);
  window.Visit(web, 0.0);
  WindowVisit second = window.Visit(web, 1.0);
  int changed = 0;
  for (const Observation& obs : second.pages) changed += obs.changed;
  EXPECT_EQ(changed, static_cast<int>(second.pages.size()));
}

TEST(PageWindowTest, ReplacementPagesEnterTheWindow) {
  simweb::WebConfig c = SmallStudyWeb(56);
  c.uniform_lifespan_days = 3.0;  // rapid turnover
  simweb::SimulatedWeb web(c);
  PageWindow window(0, 30);
  window.Visit(web, 0.0);
  WindowVisit later = window.Visit(web, 10.0);
  int fresh_urls = 0;
  for (const Observation& obs : later.pages) {
    fresh_urls += obs.first_sighting;
  }
  EXPECT_GT(fresh_urls, 0);  // replacements entered the window
}

TEST(PageWindowTest, MatchesHashSetReference) {
  // Short lifespans bump incarnations between visits, and a window
  // smaller than most sites leaves queued slots unfetched.
  simweb::WebConfig churn = SmallStudyWeb(61);
  churn.uniform_lifespan_days = 3.0;
  EXPECT_EQ(ExpectWindowsMatchReference(churn, 12, 25), 0);
  EXPECT_EQ(ExpectWindowsMatchReference(SmallStudyWeb(62), 12, 1000), 0);
}

TEST(PageWindowTest, TrapAndTwinSlotsPastSiteSize) {
  // Spider-trap URLs and a migration twin's resurrected pages sit past
  // their site's real slots, where the window keeps them by URL.
  EXPECT_GT(ExpectWindowsMatchReference(
                ScenarioStudyWeb("transient10", "spider-trap"), 10, 60),
            0);
  EXPECT_GT(ExpectWindowsMatchReference(
                ScenarioStudyWeb("none", "domain-migration"), 16, 60),
            0);
}

TEST(PageWindowTest, IncarnationBumpBetweenVisitsIsFirstSighting) {
  simweb::WebConfig c = SmallStudyWeb(63);
  c.uniform_lifespan_days = 2.0;
  simweb::SimulatedWeb web(c);
  PageWindow window(0, 1000);
  std::map<uint32_t, uint32_t> incarnation_of_slot;
  for (const Observation& obs : window.Visit(web, 0.0).pages) {
    incarnation_of_slot[obs.url.slot] = obs.url.incarnation;
  }
  int bumps = 0;
  for (const Observation& obs : window.Visit(web, 5.0).pages) {
    auto it = incarnation_of_slot.find(obs.url.slot);
    ASSERT_NE(it, incarnation_of_slot.end()) << obs.url.ToString();
    if (it->second == obs.url.incarnation) {
      EXPECT_FALSE(obs.first_sighting) << obs.url.ToString();
      continue;
    }
    // The slot's page was replaced: a new URL, whatever its checksum.
    EXPECT_GT(obs.url.incarnation, it->second);
    EXPECT_TRUE(obs.first_sighting) << obs.url.ToString();
    EXPECT_FALSE(obs.changed) << obs.url.ToString();
    ++bumps;
  }
  EXPECT_GT(bumps, 0);
}

TEST(PageWindowTest, RootReplacedWithinOneVisit) {
  // No SimulatedWeb serves two incarnations of one slot at one time
  // (the root never dies), so a scripted source does: the root page
  // (slot 0, incarnation 0, where every visit starts) links to its own
  // replacement (slot 0, incarnation 1), and only the replacement links
  // on to slot 2.
  std::map<std::pair<uint32_t, uint32_t>, uint64_t> version;
  bool replacement_linked = true;
  const auto fetch = [&](const Url& url) -> StatusOr<simweb::FetchResult> {
    simweb::FetchResult result;
    result.url = url;
    result.page = simweb::PageIdOf(url);
    result.checksum =
        ChecksumOf(url.ToString() + "@" +
                   std::to_string(version[{url.slot, url.incarnation}]));
    if (url == Url{0, 0, 0}) {
      result.links = {Url{0, 1, 0}};
      if (replacement_linked) result.links.push_back(Url{0, 0, 1});
    } else if (url == Url{0, 0, 1}) {
      result.links = {Url{0, 2, 0}, Url{0, 0, 0}};
    } else if (url == Url{0, 2, 0}) {
      result.links = {Url{0, 0, 1}};
    }
    return result;
  };
  PageWindow window(0, 10);
  ReferenceWindow reference(0, 10);
  const auto visit = [&] {
    WindowVisit got = window.Visit(4, fetch);
    ExpectSameVisit(got, reference.Visit(fetch));
    EXPECT_EQ(window.total_fetches(), reference.total_fetches());
    return got;
  };

  WindowVisit first = visit();
  ASSERT_EQ(first.pages.size(), 4u);
  EXPECT_EQ(first.pages[2].url, (Url{0, 0, 1}));
  for (const Observation& obs : first.pages) EXPECT_TRUE(obs.first_sighting);
  EXPECT_EQ(window.total_fetches(), 4u);  // each URL fetched once

  version[{0, 1}] = 1;  // only the replacement root changes
  WindowVisit second = visit();
  ASSERT_EQ(second.pages.size(), 4u);
  for (const Observation& obs : second.pages) {
    EXPECT_FALSE(obs.first_sighting) << obs.url.ToString();
    EXPECT_EQ(obs.changed, obs.url == (Url{0, 0, 1})) << obs.url.ToString();
  }

  replacement_linked = false;  // the replacement and its subtree leave
  WindowVisit third = visit();
  ASSERT_EQ(third.pages.size(), 2u);
  EXPECT_EQ(third.pages[0].url, (Url{0, 0, 0}));
  EXPECT_EQ(third.pages[1].url, (Url{0, 1, 0}));
}

// ---------------------------------------------------------------- PageStats

/// The row of `url` in `table`, or null.
const PageStats* FindRow(const PageStatsTable& table, const Url& url) {
  for (const auto& [row_url, ps] : table.stats()) {
    if (row_url == url) return &ps;
  }
  return nullptr;
}

TEST(PageStatsTest, RecordAccumulates) {
  PageStatsTable table;
  Observation obs;
  obs.url = Url{0, 1, 0};
  obs.page = 7;
  table.Record(Domain::kEdu, 0, obs);
  obs.changed = true;
  table.Record(Domain::kEdu, 5, obs);
  table.Record(Domain::kEdu, 9, obs);
  const PageStats* ps = FindRow(table, Url{0, 1, 0});
  ASSERT_NE(ps, nullptr);
  EXPECT_EQ(ps->domain, Domain::kEdu);
  EXPECT_EQ(ps->first_day, 0);
  EXPECT_EQ(ps->last_day, 9);
  EXPECT_EQ(ps->sightings, 3);
  EXPECT_EQ(ps->changes, 2);
  EXPECT_EQ(ps->first_change_day, 5);
  EXPECT_EQ(ps->change_days.size(), 2u);
  EXPECT_EQ(table.last_recorded_day(), 9);
  EXPECT_EQ(FindRow(table, Url{0, 1, 1}), nullptr);
}

TEST(PageStatsTest, GapDetection) {
  PageStatsTable table;
  Observation obs;
  obs.url = Url{0, 1, 0};
  table.Record(Domain::kCom, 0, obs);
  table.Record(Domain::kCom, 1, obs);
  table.Record(Domain::kCom, 7, obs);  // absent days 2-6
  ASSERT_NE(FindRow(table, Url{0, 1, 0}), nullptr);
  EXPECT_EQ(FindRow(table, Url{0, 1, 0})->first_gap_day, 2);
}

TEST(PageStatsTest, EstimatedInterval) {
  PageStats ps;
  ps.first_day = 0;
  ps.last_day = 50;
  ps.changes = 5;
  EXPECT_DOUBLE_EQ(ps.EstimatedChangeIntervalDays(), 10.0);
  ps.changes = 0;
  EXPECT_TRUE(std::isinf(ps.EstimatedChangeIntervalDays()));
  EXPECT_EQ(ps.VisibleLifespanDays(), 51);
}

/// Every PageStats field of one row, on one line.
std::string RowText(const Url& url, const PageStats& ps) {
  std::ostringstream out;
  out << url.ToString() << ' ' << static_cast<int>(ps.domain) << ' '
      << ps.page << ' ' << ps.first_day << ' ' << ps.last_day << ' '
      << ps.first_gap_day << ' ' << ps.sightings << ' ' << ps.changes << ' '
      << ps.first_change_day;
  for (int day : ps.change_days) out << ' ' << day;
  return out.str();
}

/// The page-stats table as specified before its slot-indexed rows: one
/// URL-keyed hash map, plus the order of first sightings. PageStatsTable
/// must hold exactly its rows, by site, then in that order.
class ReferenceTable {
 public:
  void Record(Domain domain, int day, const Observation& obs) {
    auto [it, first] = stats_.try_emplace(obs.url);
    if (first) first_sightings_.push_back(obs.url);
    PageStats& ps = it->second;
    if (ps.sightings == 0) {
      ps.domain = domain;
      ps.page = obs.page;
      ps.first_day = day;
    } else if (ps.first_gap_day < 0 && day > ps.last_day + 1) {
      ps.first_gap_day = ps.last_day + 1;
    }
    ps.last_day = day;
    ++ps.sightings;
    if (obs.changed) {
      ++ps.changes;
      if (ps.first_change_day < 0) ps.first_change_day = day;
      ps.change_days.push_back(day);
    }
  }

  /// Every row as RowText, by site, then in first-sighting order.
  std::vector<std::string> Rows() const {
    std::vector<Url> urls = first_sightings_;
    std::stable_sort(
        urls.begin(), urls.end(),
        [](const Url& a, const Url& b) { return a.site < b.site; });
    std::vector<std::string> rows;
    for (const Url& url : urls) rows.push_back(RowText(url, stats_.at(url)));
    return rows;
  }

 private:
  std::unordered_map<Url, PageStats, simweb::UrlHash> stats_;
  std::vector<Url> first_sightings_;
};

void ExpectSameRows(const PageStatsTable& table,
                    const ReferenceTable& reference) {
  std::vector<std::string> rows;
  for (const auto& [url, ps] : table.stats()) rows.push_back(RowText(url, ps));
  EXPECT_EQ(rows, reference.Rows());
  EXPECT_EQ(table.num_pages(), rows.size());
}

TEST(PageStatsTest, MatchesUrlKeyedReference) {
  // Random sightings over four sites, sized 5, 0 and 3 slots, and one
  // past the sizes given: a slot's page is replaced (its incarnation
  // bumps), an older incarnation is sighted again, and slots past the
  // site size appear, on days with gaps between them. The same stream
  // goes to a table that knows the sizes and to one that knows none.
  const std::vector<uint32_t> sizes = {5, 0, 3};
  for (uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    PageStatsTable sized(sizes);
    PageStatsTable unsized;
    ReferenceTable reference;
    std::map<std::pair<uint32_t, uint32_t>, uint32_t> latest;
    int replaced = 0, older = 0, past_size = 0;
    for (int day = 0; day < 60; ++day) {
      if (rng.Bernoulli(0.2)) continue;  // nothing sighted that day
      for (int k = 0; k < 12; ++k) {
        const auto site = static_cast<uint32_t>(rng.NextBounded(4));
        const uint32_t size = site < sizes.size() ? sizes[site] : 0;
        const auto slot = static_cast<uint32_t>(rng.NextBounded(size + 3));
        uint32_t& incarnation = latest[{site, slot}];
        uint32_t sighted = incarnation;
        if (rng.Bernoulli(0.1)) {
          sighted = ++incarnation;
          ++replaced;
        } else if (incarnation > 0 && rng.Bernoulli(0.15)) {
          sighted = static_cast<uint32_t>(rng.NextBounded(incarnation));
          ++older;
        }
        past_size += slot >= size;
        Observation obs;
        obs.url = Url{site, slot, sighted};
        obs.page = simweb::PageIdOf(obs.url);
        obs.changed = rng.Bernoulli(0.3);
        const auto domain = static_cast<Domain>(site % simweb::kNumDomains);
        sized.Record(domain, day, obs);
        unsized.Record(domain, day, obs);
        reference.Record(domain, day, obs);
      }
    }
    EXPECT_GT(replaced, 0);
    EXPECT_GT(older, 0);
    EXPECT_GT(past_size, 0);
    ExpectSameRows(sized, reference);
    ExpectSameRows(unsized, reference);
  }
}

// -------------------------------------------------- MonitoringExperiment

TEST(MonitoringExperimentTest, RunsCampaignAndRecordsStats) {
  simweb::SimulatedWeb web(SmallStudyWeb(57));
  MonitoringConfig config;
  config.num_days = 15;
  config.window_size = 25;
  MonitoringExperiment experiment(&web, config);
  ASSERT_TRUE(experiment.Run().ok());
  EXPECT_EQ(experiment.days_completed(), 15);
  EXPECT_GT(experiment.table().num_pages(), 50u);
  EXPECT_GT(experiment.total_fetches(), 15u * 12u * 10u);
  EXPECT_FALSE(experiment.Run().ok());  // no double runs
}

TEST(MonitoringExperimentTest, DaysMustRunInOrder) {
  simweb::SimulatedWeb web(SmallStudyWeb(58));
  MonitoringConfig config;
  config.num_days = 5;
  config.window_size = 10;
  MonitoringExperiment experiment(&web, config);
  EXPECT_FALSE(experiment.RunDay(2).ok());
  EXPECT_TRUE(experiment.RunDay(0).ok());
  EXPECT_FALSE(experiment.RunDay(0).ok());
  EXPECT_TRUE(experiment.RunDay(1).ok());
}

/// Every PageStats field of every URL, one line each in canonical URL
/// order.
std::string TableText(const PageStatsTable& table) {
  std::vector<const PageRow*> rows;
  for (const PageRow& row : table.stats()) rows.push_back(&row);
  std::sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
    return simweb::UrlIdentityLess{}(a->url, b->url);
  });
  std::string out;
  for (const PageRow* row : rows) out += RowText(row->url, row->stats) + '\n';
  return out;
}

/// What a campaign leaves behind that must not depend on parallelism.
struct StudyOutputs {
  std::string table;
  std::string csv;  // the table in its own row order
  uint64_t total_fetches = 0;
  uint64_t fetch_count = 0;
  std::string web_bytes;
};

StudyOutputs RunStudyAt(const simweb::WebConfig& web_config,
                        int parallelism) {
  simweb::SimulatedWeb web(web_config);
  MonitoringConfig config;
  config.num_days = 30;
  config.window_size = 40;
  config.parallelism = parallelism;
  MonitoringExperiment experiment(&web, config);
  EXPECT_TRUE(experiment.Run().ok());
  StudyOutputs out;
  out.table = TableText(experiment.table());
  std::ostringstream csv;
  EXPECT_TRUE(WritePageStatsCsv(experiment.table(), csv).ok());
  out.csv = csv.str();
  out.total_fetches = experiment.total_fetches();
  out.fetch_count = web.fetch_count();
  std::ostringstream bytes;
  EXPECT_TRUE(simweb::SaveWeb(web, bytes).ok());
  out.web_bytes = bytes.str();
  return out;
}

TEST(MonitoringExperimentTest, IdenticalAtAnyParallelism) {
  struct Case {
    const char* faults;
    const char* adversarial;
  };
  for (const Case& c : {Case{"none", "none"},
                        Case{"transient10", "spider-trap"},
                        Case{"none", "domain-migration"}}) {
    SCOPED_TRACE(std::string(c.faults) + "+" + c.adversarial);
    const simweb::WebConfig web = ScenarioStudyWeb(c.faults, c.adversarial);
    const StudyOutputs serial = RunStudyAt(web, 1);
    EXPECT_FALSE(serial.table.empty());
    EXPECT_EQ(serial.total_fetches, serial.fetch_count);
    for (int parallelism : {4, 8}) {
      const StudyOutputs parallel = RunStudyAt(web, parallelism);
      EXPECT_EQ(parallel.table, serial.table) << parallelism;
      EXPECT_TRUE(parallel.csv == serial.csv) << parallelism;
      EXPECT_EQ(parallel.total_fetches, serial.total_fetches) << parallelism;
      EXPECT_EQ(parallel.fetch_count, serial.fetch_count) << parallelism;
      EXPECT_TRUE(parallel.web_bytes == serial.web_bytes) << parallelism;
    }
  }
}

TEST(MonitoringExperimentTest, AdversarialTableGolden) {
  // Captured before the windows' slot marks and the parallel day: the
  // table, window traffic and web traffic of a faulty spider-trap web
  // and of a migrating one.
  const StudyOutputs trap =
      RunStudyAt(ScenarioStudyWeb("transient10", "spider-trap"), 4);
  EXPECT_EQ(Fnv1a64(trap.table), 0xc6a742f0c5278f5cull);
  EXPECT_EQ(trap.total_fetches, 12128u);
  EXPECT_EQ(trap.fetch_count, 12128u);
  const StudyOutputs migration =
      RunStudyAt(ScenarioStudyWeb("none", "domain-migration"), 4);
  EXPECT_EQ(Fnv1a64(migration.table), 0x159f4428818cc157ull);
  EXPECT_EQ(migration.total_fetches, 10064u);
  EXPECT_EQ(migration.fetch_count, 10064u);
}

// ---------------------------------------------------------------- analyses

class StudyFixture : public ::testing::Test {
 protected:
  // One shared 60-day campaign for all analysis tests (static to avoid
  // re-running per test; the table is read-only afterwards).
  static void SetUpTestSuite() {
    web_ = new simweb::SimulatedWeb(SmallStudyWeb(59));
    MonitoringConfig config;
    config.num_days = 60;
    config.window_size = 40;
    experiment_ = new MonitoringExperiment(web_, config);
    ASSERT_TRUE(experiment_->Run().ok());
  }
  static void TearDownTestSuite() {
    delete experiment_;
    delete web_;
    experiment_ = nullptr;
    web_ = nullptr;
  }

  static simweb::SimulatedWeb* web_;
  static MonitoringExperiment* experiment_;
};

simweb::SimulatedWeb* StudyFixture::web_ = nullptr;
MonitoringExperiment* StudyFixture::experiment_ = nullptr;

TEST_F(StudyFixture, ChangeIntervalFractionsSumToOne) {
  ChangeIntervalResult r = AnalyzeChangeIntervals(experiment_->table());
  EXPECT_GT(r.pages_analyzed, 100u);
  double sum = 0.0;
  for (double f : r.overall.fractions()) sum += f;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_F(StudyFixture, ComChangesFasterThanGov) {
  ChangeIntervalResult r = AnalyzeChangeIntervals(experiment_->table());
  double com_daily =
      r.by_domain[static_cast<int>(Domain::kCom)].fraction(0);
  double gov_daily =
      r.by_domain[static_cast<int>(Domain::kGov)].fraction(0);
  EXPECT_GT(com_daily, gov_daily);
  EXPECT_GT(com_daily, 0.25);  // paper: > 40% (tolerance for small web)
}

TEST_F(StudyFixture, LifespanMethodsAgreeOnShortLivedPages) {
  LifespanResult r = AnalyzeLifespans(experiment_->table(), 60);
  EXPECT_GT(r.pages_analyzed, 0u);
  // Method 2 only moves censored (long-lived) pages upward, so the
  // short-bucket fractions can only shrink or stay equal.
  EXPECT_LE(r.method2.fraction(0), r.method1.fraction(0) + 1e-12);
  // Overall mass is conserved.
  EXPECT_NEAR(r.method1.total(), r.method2.total(), 1e-9);
}

TEST_F(StudyFixture, SurvivalCurveMonotoneFromOne) {
  SurvivalResult r = AnalyzeSurvival(experiment_->table(), 60);
  ASSERT_EQ(r.overall.size(), 60u);
  EXPECT_GT(r.cohort_size, 100u);
  EXPECT_NEAR(r.overall[0], 1.0, 0.05);
  for (std::size_t i = 1; i < r.overall.size(); ++i) {
    EXPECT_LE(r.overall[i], r.overall[i - 1] + 1e-12);
  }
}

TEST_F(StudyFixture, ComDecaysFasterThanGov) {
  SurvivalResult r = AnalyzeSurvival(experiment_->table(), 60);
  const auto& com = r.by_domain[static_cast<int>(Domain::kCom)];
  const auto& gov = r.by_domain[static_cast<int>(Domain::kGov)];
  int com_half = SurvivalResult::DaysToReach(com, 0.5);
  int gov_half = SurvivalResult::DaysToReach(gov, 0.5);
  // The paper: com 50% in ~11 days; gov took ~4 months (beyond this
  // 60-day horizon, i.e. -1, or at least much later than com).
  ASSERT_GE(com_half, 1);
  EXPECT_LE(com_half, 25);
  EXPECT_TRUE(gov_half == -1 || gov_half > 2 * com_half);
}

TEST_F(StudyFixture, DaysToReachHandlesEdgeCases) {
  EXPECT_EQ(SurvivalResult::DaysToReach({1.0, 0.8, 0.4}, 0.5), 2);
  EXPECT_EQ(SurvivalResult::DaysToReach({1.0, 0.9}, 0.5), -1);
  EXPECT_EQ(SurvivalResult::DaysToReach({}, 0.5), -1);
}

TEST_F(StudyFixture, PoissonIntervalsFitExponential) {
  auto r = AnalyzePoisson(experiment_->table(), 10.0, 0.35);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->pages_selected, 0u);
  EXPECT_GT(r->intervals_collected, 30u);
  // The fitted decay rate should be near 1/10 per day and the fit good
  // on a log scale — the paper's Figure 6 conclusion.
  EXPECT_NEAR(r->fit.rate, 0.1, 0.05);
  // The 60-day test campaign yields few intervals, so the log-scale fit
  // is noisy; the full-scale bench (bench_fig6_poisson) sees r2 > 0.9.
  EXPECT_GT(r->fit.r2, 0.5);
  // Prediction vector aligns with the observation grid.
  ASSERT_EQ(r->predicted.size(), r->fraction.size());
  double predicted_sum = 0.0;
  for (double p : r->predicted) predicted_sum += p;
  EXPECT_LE(predicted_sum, 1.0 + 1e-9);
}

TEST_F(StudyFixture, PoissonAnalysisValidatesInput) {
  EXPECT_FALSE(AnalyzePoisson(experiment_->table(), -1.0, 0.2).ok());
  // An absurd target interval selects nothing.
  auto r = AnalyzePoisson(experiment_->table(), 1e7, 0.01);
  EXPECT_FALSE(r.ok());
}

// ------------------------------------------------------------ SiteSelector

TEST(SiteSelectorTest, UniverseConfigMatchesMix) {
  SiteSelectorConfig config;
  config.universe_sites = 1000;
  simweb::WebConfig web = MakeUniverseConfig(config);
  ASSERT_TRUE(web.Validate().ok());
  int total = 0;
  for (int n : web.sites_per_domain) total += n;
  EXPECT_NEAR(total, 1000, 5);
  EXPECT_GT(web.sites_per_domain[0], web.sites_per_domain[3]);
}

TEST(SiteSelectorTest, SelectsRoughly270Of400) {
  SiteSelectorConfig config;
  config.universe_sites = 600;
  config.candidates = 400;
  simweb::SimulatedWeb universe(MakeUniverseConfig(config));
  auto result = SelectSites(universe, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->candidates.size(), 400u);
  EXPECT_NEAR(static_cast<double>(result->selected.size()), 270.0, 40.0);
  int total = 0;
  for (int n : result->selected_by_domain) total += n;
  EXPECT_EQ(total, static_cast<int>(result->selected.size()));
}

TEST(SiteSelectorTest, DomainMixResemblesTable1) {
  SiteSelectorConfig config;
  config.universe_sites = 1500;
  simweb::SimulatedWeb universe(MakeUniverseConfig(config));
  auto result = SelectSites(universe, config);
  ASSERT_TRUE(result.ok());
  // Table 1 ordering: com > edu > netorg ~ gov.
  EXPECT_GT(result->selected_by_domain[0], result->selected_by_domain[1]);
  EXPECT_GT(result->selected_by_domain[1], result->selected_by_domain[2]);
}

TEST(SiteSelectorTest, ValidatesConfig) {
  SiteSelectorConfig config;
  simweb::SimulatedWeb universe(MakeUniverseConfig(config));
  config.candidates = 0;
  EXPECT_FALSE(SelectSites(universe, config).ok());
  config.candidates = 10;
  config.permission_prob = 1.5;
  EXPECT_FALSE(SelectSites(universe, config).ok());
}

}  // namespace
}  // namespace webevo::experiment
