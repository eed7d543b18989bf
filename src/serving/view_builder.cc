#include "serving/view_builder.h"

#include <algorithm>
#include <string>

#include "crawler/incremental_crawler.h"
#include "crawler/periodic_crawler.h"
#include "freshness/freshness_tracker.h"
#include "util/ledger.h"
#include "util/record_line.h"

namespace webevo::serving {

namespace {

std::string FmtReal(double v) {
  RecordLine line;
  return std::string(line.Start(v).view());
}

/// Streams the canonical page walk into the pages / sites / estimates
/// relations, and the collection's size and capacity into the view.
/// ForEachCanonical walks ascending URL identity at every shard count.
/// `rate_of` maps a URL to its change-rate estimate (0 for crawlers
/// without one).
template <typename RateFn>
void FillRelations(const crawler::Collection& collection,
                   const RateFn& rate_of, BatchView* view) {
  view->collection_size = collection.size();
  view->collection_capacity = collection.capacity();
  view->pages.reserve(view->collection_size);
  collection.ForEachCanonical([&](const crawler::CollectionEntry& e) {
    PageRow row;
    row.url = e.url;
    row.version = e.version;
    row.crawled_at = e.crawled_at;
    row.importance = e.importance;
    row.est_rate = rate_of(e.url);
    row.out_links = static_cast<uint32_t>(e.links.size());
    if (row.est_rate > 0.0) {
      view->estimates.push_back(
          EstimateRow{row.url, row.est_rate, 1.0 / row.est_rate});
    }
    // The walk is site-major, so per-site aggregates accumulate in
    // stream order.
    if (view->sites.empty() || view->sites.back().site != row.url.site) {
      view->sites.push_back(SiteRow{row.url.site, 0, 0.0, 0.0, 0.0});
    }
    SiteRow& site = view->sites.back();
    ++site.pages;
    site.mean_importance += row.importance;
    site.mean_est_rate += row.est_rate;
    site.last_crawled_at =
        std::max(site.last_crawled_at, row.crawled_at);
    view->pages.push_back(row);
  });
  for (SiteRow& site : view->sites) {
    const double n = static_cast<double>(site.pages);
    site.mean_importance /= n;
    site.mean_est_rate /= n;
  }
}

void FillFreshness(const freshness::FreshnessTracker& tracker,
                   BatchView* view) {
  view->freshness.reserve(tracker.size());
  for (std::size_t i = 0; i < tracker.size(); ++i) {
    view->freshness.push_back(
        SeriesRow{tracker.times()[i], tracker.values()[i]});
  }
}

void AppendFreshnessSummary(const freshness::FreshnessTracker& tracker,
                            BatchView* view) {
  view->summary.emplace_back("freshness_time_avg",
                             FmtReal(tracker.TimeAverage()));
  view->summary.emplace_back(
      "freshness_last",
      FmtReal(tracker.empty() ? 0.0 : tracker.values().back()));
}

}  // namespace

std::unique_ptr<const BatchView> BuildBatchView(
    const crawler::IncrementalCrawler& crawler) {
  auto view = std::make_unique<BatchView>();
  view->crawler = "incremental";
  view->batch = crawler.batches_completed();
  view->published_at = crawler.now();
  view->frontier_depth = crawler.coll_urls().size();
  const crawler::UpdateModule& update = crawler.update_module();
  FillRelations(
      crawler.collection(),
      [&](const simweb::Url& url) { return update.EstimatedRate(url); },
      view.get());
  FillFreshness(crawler.tracker(), view.get());

  view->summary = ledger::Summary(crawler.stats());
  AppendFreshnessSummary(crawler.tracker(), view.get());
  return view;
}

std::unique_ptr<const BatchView> BuildBatchView(
    const crawler::PeriodicCrawler& crawler) {
  auto view = std::make_unique<BatchView>();
  view->crawler = "periodic";
  view->batch = crawler.batches_completed();
  view->published_at = crawler.now();
  view->frontier_depth = crawler.frontier_depth();
  FillRelations(
      crawler.current_collection(), [](const simweb::Url&) { return 0.0; },
      view.get());
  FillFreshness(crawler.tracker(), view.get());

  view->summary = crawler.SummaryRows();
  AppendFreshnessSummary(crawler.tracker(), view.get());
  return view;
}

}  // namespace webevo::serving
