#include "experiment/page_stats.h"

#include <limits>

namespace webevo::experiment {

double PageStats::EstimatedChangeIntervalDays() const {
  if (changes <= 0) return std::numeric_limits<double>::infinity();
  int span = SpanDays();
  if (span <= 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(span) / static_cast<double>(changes);
}

PageStatsTable::PageStatsTable(const std::vector<uint32_t>& site_sizes)
    : sites_(site_sizes.size()) {
  for (std::size_t s = 0; s < site_sizes.size(); ++s) {
    sites_[s].slot_row.assign(site_sizes[s], kNoRow);
  }
}

uint32_t PageStatsTable::RowOf(const SiteRows& site, const simweb::Url& url) {
  if (url.slot < site.slot_row.size()) {
    const uint32_t row = site.slot_row[url.slot];
    // A slot without a row has no replaced incarnation in the map.
    if (row == kNoRow || site.rows[row].url == url) return row;
  }
  auto it = site.other_rows.find(url);
  return it == site.other_rows.end() ? kNoRow : it->second;
}

void PageStatsTable::Record(simweb::Domain domain, int day,
                            const Observation& obs) {
  const simweb::Url& url = obs.url;
  if (url.site >= sites_.size()) {
    sites_.resize(static_cast<std::size_t>(url.site) + 1);
  }
  SiteRows& site = sites_[url.site];
  uint32_t row = RowOf(site, url);
  if (row == kNoRow) {
    row = static_cast<uint32_t>(site.rows.size());
    site.rows.push_back(PageRow{url, PageStats{}});
    if (url.slot < site.slot_row.size()) {
      // The new URL takes its slot; the URL it replaces moves to the map.
      uint32_t& latest = site.slot_row[url.slot];
      if (latest != kNoRow) {
        site.other_rows.emplace(site.rows[latest].url, latest);
      }
      latest = row;
    } else {
      site.other_rows.emplace(url, row);
    }
  }
  PageStats& ps = site.rows[row].stats;
  if (ps.sightings == 0) {
    ps.domain = domain;
    ps.page = obs.page;
    ps.first_day = day;
  } else if (ps.first_gap_day < 0 && day > ps.last_day + 1) {
    // The page skipped at least one daily visit: it left the window and
    // came back. Record where the first absence began.
    ps.first_gap_day = ps.last_day + 1;
  }
  ps.last_day = day;
  ++ps.sightings;
  if (obs.changed) {
    ++ps.changes;
    if (ps.first_change_day < 0) ps.first_change_day = day;
    ps.change_days.push_back(day);
  }
  if (day > last_recorded_day_) last_recorded_day_ = day;
}

std::size_t PageStatsTable::num_pages() const {
  std::size_t pages = 0;
  for (const SiteRows& site : sites_) pages += site.rows.size();
  return pages;
}

}  // namespace webevo::experiment
