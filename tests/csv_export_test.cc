#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "experiment/csv_export.h"
#include "experiment/monitoring_experiment.h"
#include "simweb/simulated_web.h"

namespace webevo::experiment {
namespace {

PageStatsTable MakeTable() {
  PageStatsTable table;
  Observation obs;
  obs.url = simweb::Url{1, 2, 0};
  obs.page = 9;
  table.Record(simweb::Domain::kEdu, 0, obs);
  obs.changed = true;
  table.Record(simweb::Domain::kEdu, 4, obs);
  return table;
}

TEST(CsvExportTest, PageStatsHeaderAndRows) {
  std::ostringstream out;
  ASSERT_TRUE(WritePageStatsCsv(MakeTable(), out).ok());
  std::string csv = out.str();
  EXPECT_NE(csv.find("url,domain,first_day"), std::string::npos);
  EXPECT_NE(csv.find("site1/p2_v0,edu,0,4,2,1,4,1,4,5"),
            std::string::npos);
}

TEST(CsvExportTest, InfiniteIntervalSpelledOut) {
  PageStatsTable table;
  Observation obs;
  obs.url = simweb::Url{0, 0, 0};
  table.Record(simweb::Domain::kCom, 0, obs);
  table.Record(simweb::Domain::kCom, 1, obs);  // never changed
  std::ostringstream out;
  ASSERT_TRUE(WritePageStatsCsv(table, out).ok());
  EXPECT_NE(out.str().find(",inf,"), std::string::npos);
}

TEST(CsvExportTest, PageRowsComeBySiteThenFirstSighting) {
  // Two sites of four slots: a replaced page (p3_v1) follows the page it
  // replaced, a URL past the site size (p9) keeps its place, and a
  // second sighting moves nothing.
  PageStatsTable table({4, 4});
  Observation obs;
  int day = 0;
  for (const simweb::Url& url :
       {simweb::Url{1, 2, 0}, simweb::Url{0, 3, 0}, simweb::Url{1, 9, 0},
        simweb::Url{0, 3, 1}, simweb::Url{1, 0, 0}, simweb::Url{0, 1, 0},
        simweb::Url{1, 2, 0}}) {
    obs.url = url;
    table.Record(simweb::Domain::kCom, day++, obs);
  }
  std::ostringstream out;
  ASSERT_TRUE(WritePageStatsCsv(table, out).ok());
  std::istringstream lines(out.str());
  std::string line;
  std::getline(lines, line);  // the header
  std::vector<std::string> urls;
  while (std::getline(lines, line)) {
    urls.push_back(line.substr(0, line.find(',')));
  }
  EXPECT_EQ(urls, (std::vector<std::string>{"site0/p3_v0", "site0/p3_v1",
                                            "site0/p1_v0", "site1/p2_v0",
                                            "site1/p9_v0", "site1/p0_v0"}));
}

TEST(CsvExportTest, SurvivalSeries) {
  SurvivalResult result;
  result.day = {0.0, 1.0};
  result.overall = {1.0, 0.5};
  for (auto& v : result.by_domain) v = {1.0, 0.25};
  std::ostringstream out;
  ASSERT_TRUE(WriteSurvivalCsv(result, out).ok());
  std::string csv = out.str();
  EXPECT_NE(csv.find("day,overall,com,edu,netorg,gov"),
            std::string::npos);
  EXPECT_NE(csv.find("1,0.5,0.25,0.25,0.25,0.25"), std::string::npos);
}

TEST(CsvExportTest, HistogramRows) {
  Histogram h = Histogram::LifespanBuckets();
  h.Add(3.0);
  h.Add(500.0);
  std::ostringstream out;
  ASSERT_TRUE(WriteHistogramCsv(h, out).ok());
  std::string csv = out.str();
  EXPECT_NE(csv.find("label,upper_edge,count,fraction"),
            std::string::npos);
  EXPECT_NE(csv.find("<=1week,7,1,0.5"), std::string::npos);
  EXPECT_NE(csv.find(">4months,inf,1,0.5"), std::string::npos);
}

TEST(CsvExportTest, EndToEndCampaignExports) {
  simweb::WebConfig wc;
  wc.seed = 3;
  wc.sites_per_domain = {2, 1, 1, 1};
  wc.min_site_size = 10;
  wc.max_site_size = 20;
  simweb::SimulatedWeb web(wc);
  MonitoringConfig config;
  config.num_days = 5;
  config.window_size = 15;
  MonitoringExperiment experiment(&web, config);
  ASSERT_TRUE(experiment.Run().ok());
  std::ostringstream out;
  ASSERT_TRUE(WritePageStatsCsv(experiment.table(), out).ok());
  // Header plus one line per sighted page.
  std::string csv = out.str();
  auto lines =
      static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(lines, experiment.table().num_pages() + 1);
}

}  // namespace
}  // namespace webevo::experiment
