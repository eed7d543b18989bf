// Quickstart: build a small synthetic web, run the paper's incremental
// crawler on it for two simulated months, and print what it achieved.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "crawler/incremental_crawler.h"
#include "simweb/simulated_web.h"
#include "util/ledger.h"
#include "util/table.h"

int main() {
  using namespace webevo;

  // 1. A synthetic web: 27 sites with the paper's domain mix, pages
  //    changing/dying per the calibrated 1999-web profiles.
  simweb::WebConfig web_config = simweb::WebConfig().Scaled(0.1);
  web_config.seed = 42;
  simweb::SimulatedWeb web(web_config);
  std::printf("web: %u sites, %llu page slots\n", web.num_sites(),
              static_cast<unsigned long long>(web.TotalSlots()));

  // 2. An incremental crawler: steady speed, in-place updates,
  //    freshness-optimal variable revisit frequency (Figure 12).
  crawler::IncrementalCrawlerConfig config;
  config.collection_capacity = 1500;
  config.crawl_rate_pages_per_day = 1500.0 / 30.0;  // one sweep a month
  crawler::IncrementalCrawler crawler(&web, config);

  Status st = crawler.Bootstrap(0.0);
  if (!st.ok()) {
    std::printf("bootstrap failed: %s\n", st.ToString().c_str());
    return 1;
  }
  st = crawler.RunUntil(60.0);  // two months
  if (!st.ok()) {
    std::printf("run failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // 3. Results: oracle-measured freshness plus the crawler's own view.
  crawler::CollectionQuality quality = crawler.MeasureNow();
  TablePrinter table({"metric", "value"});
  table.AddRow({"collection size", TablePrinter::Fmt(
                                       static_cast<int64_t>(quality.size))});
  table.AddRow({"freshness (now)", TablePrinter::Fmt(quality.freshness)});
  table.AddRow({"freshness (30d avg)",
                TablePrinter::Fmt(crawler.tracker().TimeAverage(30.0,
                                                                60.0))});
  // Every counter of the crawler's ledger, as a published view shows it.
  for (const auto& [name, value] : ledger::Summary(crawler.stats())) {
    table.AddRow({name, value});
  }
  table.AddRow(
      {"peak crawl rate (pages/day)",
       TablePrinter::Fmt(
           crawler.crawl_pool().AggregateTraffic().PeakDailyRate())});
  std::printf("\n%s", table.ToString().c_str());

  // 4. The freshness trajectory (Figure 7(b)-style steady curve).
  std::printf("\ncollection freshness over time:\n%s",
              AsciiChart(crawler.tracker().times(),
                         crawler.tracker().values(), 0.0, 1.0)
                  .c_str());
  return 0;
}
