#include "serving/view_builder.h"

#include <algorithm>
#include <string>
#include <vector>

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
/// relations. `entries` must already be in ascending URL identity
/// order; `rate_of` maps a URL to its change-rate estimate (null for
/// crawlers without one).
template <typename RateFn>
void FillRelations(const std::vector<const crawler::CollectionEntry*>&
                       entries,
                   const RateFn& rate_of, BatchView* view) {
  view->pages.reserve(entries.size());
  for (const crawler::CollectionEntry* e : entries) {
    PageRow row;
    row.url = e->url;
    row.version = e->version;
    row.crawled_at = e->crawled_at;
    row.importance = e->importance;
    row.est_rate = rate_of(e->url);
    row.out_links = static_cast<uint32_t>(e->links.size());
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
  }
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
  view->collection_size = crawler.collection().size();
  view->collection_capacity = crawler.collection().capacity();
  view->frontier_depth = crawler.coll_urls().size();

  // ForEachCanonical walks ascending URL identity at every shard
  // count; collect pointers once so the relation fill is a single
  // streaming pass.
  std::vector<const crawler::CollectionEntry*> entries;
  entries.reserve(crawler.collection().size());
  crawler.collection().ForEachCanonical(
      [&](const crawler::CollectionEntry& e) { entries.push_back(&e); });
  const crawler::UpdateModule& update = crawler.update_module();
  FillRelations(
      entries,
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
  const crawler::Collection& collection = crawler.current_collection();
  view->collection_size = collection.size();
  view->collection_capacity = collection.capacity();
  view->frontier_depth = crawler.frontier_depth();

  // The flat Collection iterates in hash-map order; sort into the
  // canonical URL identity order the view contract requires.
  std::vector<const crawler::CollectionEntry*> entries;
  entries.reserve(collection.size());
  collection.ForEach(
      [&](const crawler::CollectionEntry& e) { entries.push_back(&e); });
  std::sort(entries.begin(), entries.end(),
            [](const crawler::CollectionEntry* a,
               const crawler::CollectionEntry* b) {
              return simweb::UrlIdentityLess()(a->url, b->url);
            });
  FillRelations(
      entries, [](const simweb::Url&) { return 0.0; }, view.get());
  FillFreshness(crawler.tracker(), view.get());

  view->summary = crawler.SummaryRows();
  AppendFreshnessSummary(crawler.tracker(), view.get());
  return view;
}

}  // namespace webevo::serving
