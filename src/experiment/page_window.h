#ifndef WEBEVO_EXPERIMENT_PAGE_WINDOW_H_
#define WEBEVO_EXPERIMENT_PAGE_WINDOW_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "simweb/page.h"
#include "simweb/simulated_web.h"
#include "simweb/url.h"
#include "util/hash.h"
#include "util/status.h"

namespace webevo::experiment {

/// One page observation from a daily window visit.
struct Observation {
  simweb::Url url;
  simweb::PageId page = simweb::kInvalidPage;
  bool changed = false;     ///< checksum differs from the previous sighting
  bool first_sighting = false;  ///< never seen by this window before
};

/// The result of visiting one site's window on one day.
struct WindowVisit {
  std::vector<Observation> pages;  ///< today's window, in BFS order
};

/// The paper's *page window* monitoring scheme (Section 2.1): each day,
/// start from a site's root page and follow links breadth-first, up to
/// `window_size` pages. Pages enter the window as they are created or
/// move closer to the root and leave it when deleted or buried deeper —
/// so, unlike tracking a fixed URL set, the scheme captures new pages.
///
/// The window keeps the last checksum of every URL it has sighted (the
/// paper's change-detection mechanism) and reports, per visit, which
/// window pages changed since their previous sighting.
///
/// The bookkeeping is indexed by slot and stamped with a visit counter,
/// so a visit builds no hash set: each slot of the site records which of
/// its incarnations a visit queued first, and the latest such
/// incarnation sighted, with that page's checksum. A later incarnation
/// replaces an earlier one, which a SimulatedWeb never serves again (the
/// page died, and visits move forward in time). Hash containers keep
/// only URLs past the site's size (spider-trap and migration-twin
/// pages) and a second incarnation of one slot queued within a single
/// visit.
///
/// Visits of different windows may run on different threads; each
/// window starts a cache line, so their fetch counters never share one.
class alignas(64) PageWindow {
 public:
  /// Fetches one URL of the window's site.
  using FetchFn =
      std::function<StatusOr<simweb::FetchResult>(const simweb::Url&)>;

  PageWindow(uint32_t site, std::size_t window_size)
      : site_(site), window_size_(window_size) {}

  /// Performs one BFS visit at time `t`. Fetches count as crawl traffic
  /// on `web`. They ask for the site's own links only, so a visit takes
  /// no other site's lock.
  WindowVisit Visit(simweb::SimulatedWeb& web, double t);

  /// The same visit over any page source: the BFS starts at slot 0's
  /// incarnation 0 (SimulatedWeb::RootUrl), fetches through `fetch`,
  /// follows only the links into the window's site, and sizes the slot
  /// marks for `site_size` slots. Visit(web, t) is this with the web's
  /// site size and an own-site Fetch at `t`.
  WindowVisit Visit(uint32_t site_size, const FetchFn& fetch);

  uint32_t site() const { return site_; }
  std::size_t window_size() const { return window_size_; }
  uint64_t total_fetches() const { return total_fetches_; }

 private:
  /// What the window knows of one slot of its site.
  struct SlotMark {
    uint32_t queued = 0;  ///< stamp of the last visit that queued the slot
    uint32_t queued_incarnation = 0;  ///< the incarnation it queued
    bool sighted = false;  ///< whether `incarnation` has been sighted
    uint32_t incarnation = 0;  ///< the slot's latest sighted incarnation
    Checksum128 checksum;      ///< that page's checksum at the sighting
  };

  /// Queues `url` for this visit; false if this visit already had.
  bool Enqueue(const simweb::Url& url);

  /// Records this visit's sighting of `url` with checksum `sum`, setting
  /// `obs`'s first_sighting and changed against the previous sighting.
  void Sight(const simweb::Url& url, const Checksum128& sum,
             Observation* obs);

  uint32_t site_;
  std::size_t window_size_;
  uint32_t stamp_ = 0;  // visits so far; this visit's marks carry it
  std::vector<SlotMark> marks_;  // by slot, sized on the first visit
  // The fallbacks: every URL without a slot mark of its own, with its
  // last checksum, and this visit's queued such URLs.
  std::unordered_map<simweb::Url, Checksum128, simweb::UrlHash>
      extra_checksums_;
  std::unordered_set<simweb::Url, simweb::UrlHash> extra_queued_;
  uint64_t total_fetches_ = 0;
};

}  // namespace webevo::experiment

#endif  // WEBEVO_EXPERIMENT_PAGE_WINDOW_H_
