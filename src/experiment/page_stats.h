#ifndef WEBEVO_EXPERIMENT_PAGE_STATS_H_
#define WEBEVO_EXPERIMENT_PAGE_STATS_H_

#include <cstdint>
#include <deque>
#include <ranges>
#include <unordered_map>
#include <vector>

#include "experiment/page_window.h"
#include "simweb/domain.h"
#include "simweb/url.h"

namespace webevo::experiment {

/// Everything the study's analyses need about one monitored URL,
/// accumulated from daily window sightings.
struct PageStats {
  simweb::Domain domain = simweb::Domain::kCom;
  simweb::PageId page = simweb::kInvalidPage;
  int first_day = -1;        ///< day of the first sighting
  int last_day = -1;         ///< day of the most recent sighting
  int first_gap_day = -1;    ///< first day it went missing (-1 = never)
  int sightings = 0;         ///< total days sighted
  int changes = 0;           ///< sightings whose checksum differed
  int first_change_day = -1; ///< day of the first detected change
  /// Days on which a change was detected, in order (Figure 6 needs the
  /// full sequence to histogram inter-change intervals).
  std::vector<int> change_days;

  /// Days between first and last sighting (the monitored span). 0 for a
  /// single sighting.
  int SpanDays() const { return last_day - first_day; }

  /// The paper's Section 3.1 estimate: monitored span / changes, at
  /// one-day granularity. Returns +infinity when no change was seen.
  double EstimatedChangeIntervalDays() const;

  /// Visible lifespan s (Figure 3): days from first to last sighting,
  /// inclusive — what a user probing the window daily would perceive.
  int VisibleLifespanDays() const { return SpanDays() + 1; }
};

/// One row of a PageStatsTable: a sighted URL and its statistics.
struct PageRow {
  simweb::Url url;
  PageStats stats;
};

/// Accumulates PageStats for every URL sighted by the monitoring
/// experiment. Day indices are 0-based from the experiment start.
///
/// Rows are kept per site, in first-sighting order, and found by slot:
/// each slot below its site's size (as given at construction) names the
/// row of its latest-sighted URL. A small per-site map finds the rest:
/// URLs past the site's size (spider-trap and migration-twin pages) and
/// incarnations a later one has replaced in their slot. A default-
/// constructed table knows no site sizes and finds every row by map.
class PageStatsTable {
 public:
  /// `site_sizes[s]` is the number of slots of site `s` (sites past the
  /// end have none).
  explicit PageStatsTable(const std::vector<uint32_t>& site_sizes = {});

  /// Records one sighting from a window visit on `day`.
  void Record(simweb::Domain domain, int day, const Observation& obs);

  /// Every row, by site, then in first-sighting order within a site.
  auto stats() const {
    return sites_ | std::views::transform(&SiteRows::rows) |
           std::views::join;
  }
  std::size_t num_pages() const;
  /// Highest day index recorded so far (-1 if none).
  int last_recorded_day() const { return last_recorded_day_; }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [url, ps] : stats()) fn(url, ps);
  }

 private:
  static constexpr uint32_t kNoRow = ~uint32_t{0};

  struct SiteRows {
    /// First-sighting order. A deque grows in small blocks, so a site's
    /// rows carry no doubling slack (the study's peak memory).
    std::deque<PageRow> rows;
    /// By slot: the index in `rows` of the slot's latest-sighted URL.
    std::vector<uint32_t> slot_row;
    /// Every other row's URL, with its index in `rows`.
    std::unordered_map<simweb::Url, uint32_t, simweb::UrlHash> other_rows;
  };

  /// The row index of `url` in `site`, or kNoRow.
  static uint32_t RowOf(const SiteRows& site, const simweb::Url& url);

  std::vector<SiteRows> sites_;
  int last_recorded_day_ = -1;
};

}  // namespace webevo::experiment

#endif  // WEBEVO_EXPERIMENT_PAGE_STATS_H_
