#ifndef WEBEVO_SIMWEB_SIMULATED_WEB_H_
#define WEBEVO_SIMWEB_SIMULATED_WEB_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "simweb/domain.h"
#include "simweb/domain_profile.h"
#include "simweb/page.h"
#include "simweb/url.h"
#include "simweb/web_config.h"
#include "util/random.h"
#include "util/status.h"

namespace webevo::simweb {

/// A synthetic evolving web: the experimental substrate replacing the
/// live 1999 web of the paper's study (see DESIGN.md, Substitutions).
///
/// Structure: a fixed population of sites, each a tree of page *slots*
/// (slot 0 = root, always alive) plus random cross links. Each slot is
/// occupied by a succession of pages; when a page's lifespan ends, a new
/// page with a fresh URL, change rate and lifespan replaces it, so the
/// web exhibits exactly the page birth/death dynamics of Section 3.2.
///
/// Dynamics: each page changes according to a Poisson process with a
/// per-page rate drawn from its domain's calibrated profile (the model
/// the paper validates in Section 3.4). Time is continuous, measured in
/// days. State advances *lazily*: a page's version is materialised only
/// when it is observed, by sampling Poisson(rate * elapsed) — exact and
/// O(1) per observation, which lets benches run months of virtual time
/// over hundreds of thousands of pages in seconds.
///
/// Determinism and concurrency: every page owns a private RNG stream
/// seeded from (web seed, site, slot, incarnation), and PageIds are a
/// pure function of the URL, so a page's evolution is independent of
/// the order in which *other* pages are observed. Each site's state sits
/// in one cache-line-aligned record guarded by that site's mutex, which
/// makes the fetch and oracle paths safe for concurrent crawl shards, and
/// shards fetching different sites never write a shared line. With
/// per-page streams, bit-identical across shard counts as long as each
/// individual page is observed at the same times. The only ordering
/// requirement is per page: one page's observation times must be
/// non-decreasing (naturally true for a crawler driving a simulation
/// clock, and preserved by the ShardedCrawlEngine's per-site shard
/// ownership).
///
/// Serial callers keep the historical contract that global fetch times
/// never move backwards. A concurrent batch relaxes it: between
/// BeginConcurrentBatch(floor) and EndConcurrentBatch(), shard threads
/// may interleave fetches with non-monotonic times >= floor.
///
/// The class distinguishes the *crawler-visible* API (`Fetch`, which
/// counts as traffic and returns only what a real crawler could see)
/// from the *oracle* API (ground truth for evaluation: true versions,
/// change rates, liveness).
class SimulatedWeb;

/// Snapshot/restore of the web's lazily materialised evolution state
/// (web_snapshot.cc). Page versions are sampled per observation
/// interval from per-page RNG streams, so a *fresh* web re-observed
/// only at later times would diverge from one that lived through the
/// earlier observations — a crawler checkpoint that promises
/// bit-identical resume across processes must therefore carry the
/// web's state alongside the crawler's. A full checkpoint and every
/// incremental delta segment carry this one format whole: observation
/// moves nearly every site between two checkpoints.
Status SaveWeb(const SimulatedWeb& web, std::ostream& out);
Status RestoreWeb(std::istream& in, SimulatedWeb* web);

class SimulatedWeb {
 public:
  /// Builds the initial web at time 0. Pages present at the start are
  /// given stationary ages (uniform within their lifespan), so the
  /// population starts in steady state rather than all-new. CHECK-fails
  /// (prints the Status and aborts, in every build) on invalid config;
  /// call config.Validate() first to handle errors gracefully.
  explicit SimulatedWeb(const WebConfig& config);

  // Not copyable (large, and it owns mutexes).
  SimulatedWeb(const SimulatedWeb&) = delete;
  SimulatedWeb& operator=(const SimulatedWeb&) = delete;

  /// Current simulation time (days); the max time observed so far.
  double now() const { return now_.load(std::memory_order_relaxed); }

  /// --- Concurrent batch window ---------------------------------------

  /// Enters a concurrent fetch window: until EndConcurrentBatch, Fetch
  /// may be called from multiple shard threads with non-monotonic times,
  /// provided every time is >= `floor`. Called by the engine's serial
  /// driver thread, never concurrently with fetches.
  void BeginConcurrentBatch(double floor);

  /// Leaves the concurrent fetch window and restores the serial
  /// monotonic-time contract.
  void EndConcurrentBatch();

  /// --- Crawler-visible API -------------------------------------------

  /// Which of a page's links a fetch resolves and returns.
  enum class LinkScope {
    kAll,      ///< every link, in the page's link order
    kOwnSite,  ///< only links into the fetched URL's own site
  };

  /// Fetches `url` at time `t`. Returns NotFound if the URL's page is
  /// dead or not yet born, InvalidArgument if `t` moves backwards
  /// (before the current time outside a batch; before the batch floor
  /// inside one). Counts toward fetch statistics either way.
  ///
  /// With fault injection active (config.HasFaults()) a fetch may also
  /// fail Unavailable (transient error, outage, overload, dead site) or
  /// DeadlineExceeded (timeout), or succeed slowly. Fault outcomes are
  /// drawn from per-site lanes advanced once per fetch, so they require
  /// each *site*'s fetch times to be non-decreasing — the same ordering
  /// the engine's per-site shard ownership already guarantees. A faulted
  /// fetch counts as traffic but never advances the page's own change
  /// process. When `latency_days` is non-null it receives the stall the
  /// caller paid (timeout and slow outcomes; 0 otherwise), which a
  /// polite crawler adds to the site's politeness window.
  ///
  /// With `scope` kOwnSite the result's links are the full fetch's
  /// links into `url`'s site, in the same order, and everything else is
  /// what the full fetch returns. Such a fetch never resolves a
  /// cross-site target, so it takes no other site's lock and creates
  /// no page on another site.
  StatusOr<FetchResult> Fetch(const Url& url, double t,
                              double* latency_days = nullptr,
                              LinkScope scope = LinkScope::kAll);

  const WebConfig& config() const { return config_; }

  /// Root URL of a site (the root page is immortal, like the paper's
  /// monitored site roots).
  Url RootUrl(uint32_t site) const;

  /// Synthetic page body for a given page and version. Pure function of
  /// (page, version, config), so bodies are reproducible across runs
  /// and shard counts. The checksum in FetchResult is the digest of
  /// exactly these bytes, but Fetch streams them into the digest
  /// without building this string.
  std::string PageBody(PageId page, uint64_t version) const;

  uint32_t num_sites() const { return static_cast<uint32_t>(sites_.size()); }
  Domain site_domain(uint32_t site) const { return sites_[site].domain; }
  uint32_t site_size(uint32_t site) const {
    return static_cast<uint32_t>(sites_[site].slots.size());
  }
  /// Total page slots across all sites (= live pages at any instant).
  uint64_t TotalSlots() const { return total_slots_; }

  /// Traffic counters. Each fetch counts on its site's record only, so
  /// the totals are sums over the sites.
  uint64_t fetch_count() const;
  uint64_t not_found_count() const;
  uint64_t site_fetch_count(uint32_t site) const {
    return sites_[site].fetches.load(std::memory_order_relaxed);
  }

  /// --- Oracle API (evaluation only; does not count as traffic) -------

  /// PageId for a URL, alive or dead. NotFound for a never-created URL.
  StatusOr<PageId> OracleLookup(const Url& url) const;

  /// True content version of `url` at time `t`; NotFound if dead/unborn.
  StatusOr<uint64_t> OracleVersion(const Url& url, double t);

  /// Whether `url`'s page is alive at `t`.
  bool OracleAlive(const Url& url, double t) const;

  /// Whether a stored copy (url, version) is fresh at `t`: the page is
  /// alive and has not changed past the stored version. This is the
  /// per-page freshness indicator of [CGM99b] that collection-level
  /// freshness averages.
  bool OracleIsFresh(const Url& url, uint64_t stored_version, double t);

  /// URL currently occupying (site, slot) at time `t`.
  Url OracleCurrentUrl(uint32_t site, uint32_t slot, double t);

  /// The page's true Poisson change rate (per day).
  double OracleChangeRate(PageId page) const;
  /// Time of the page's most recent change at or before `t` (its birth
  /// time if it has never changed). Advances the lazy change process.
  StatusOr<double> OracleLastChangeTime(const Url& url, double t);
  /// The page's birth time and death time (death may be +infinity).
  double OracleBirthTime(PageId page) const;
  double OracleDeathTime(PageId page) const;

  /// Total pages ever created (live + dead): the slot histories' total
  /// length.
  uint64_t OracleTotalPagesCreated() const;

  /// --- Adversarial classification (pure in (config, site)) -----------
  /// Which sites are traps / mirrors / migrators is a pure hash draw of
  /// (seed, site), never advanced by observation — the adversarial
  /// *shape* is identical at every shard count. These are oracle-grade
  /// facts: the crawler's defense layer must not consult them (it
  /// detects traps by yield and mirrors by fingerprint), but tests and
  /// benches may.

  /// Whether `site` is a spider trap: every successful fetch on it
  /// mints fresh never-before-seen same-site URLs (virtual slots past
  /// the site's real size) that fetch successfully and mint more.
  bool IsTrapSite(uint32_t site) const;

  /// Whether `site` belongs to a mirror farm (its content is
  /// byte-identical to its group leader's, under distinct URLs).
  bool IsMirroredSite(uint32_t site) const;

  /// Mirror-group leader of `site`; `site` itself when not mirrored.
  uint32_t MirrorLeaderOf(uint32_t site) const;

  /// The day source `site` migrates away (+infinity when it never
  /// does). From that day the site answers kUnavailable forever while
  /// its twin (site + 1) resurrects its pages under new URLs.
  double MigrationDayOf(uint32_t site) const;

  /// The source site that `site` resurrects as a migration twin, or
  /// num_sites() when `site` is no one's twin.
  uint32_t TwinSourceOf(uint32_t site) const;

  /// One directed site-to-site link with multiplicity.
  struct SiteLink {
    uint32_t from = 0;
    uint32_t to = 0;
    uint64_t count = 0;
  };

  /// Aggregated cross-site links of all pages alive at time `t`; the
  /// edge set of the paper's site-level hypergraph (Section 2.2), used
  /// to compute site PageRank for the Table 1 selection pipeline.
  std::vector<SiteLink> OracleSiteLinks(double t);

  /// Full-state snapshot/restore (see the free-function comments).
  friend Status SaveWeb(const SimulatedWeb& web, std::ostream& out);
  friend Status RestoreWeb(std::istream& in, SimulatedWeb* web);
  /// RestoreWeb's staged records (web_snapshot.cc).
  friend struct WebSiteRecords;

 private:
  struct PageRecord {
    Url url;
    double change_rate = 0.0;  // lambda, per day
    double birth_time = 0.0;
    double death_time = 0.0;  // +inf for immortal roots
    uint64_t version = 0;
    double state_time = 0.0;       // version is exact as of this time
    double last_change_time = 0.0;
    // Cross links as (site, slot); resolved to the slot's current
    // occupant at fetch time.
    std::vector<std::pair<uint32_t, uint32_t>> cross_links;
    // Private stream driving this page's change process, seeded from
    // (web seed, page identity): evolution is a pure function of the
    // page's own observation times, never of global observation order.
    Rng rng{0};
  };

  struct SlotState {
    // Successive occupants; index == incarnation. Their lifetimes
    // partition time: history[i] covers [birth_i, death_i) with
    // death_i == birth_{i+1}.
    std::vector<PageRecord> history;
  };

  /// Per-site fault-injection state, materialized lazily on a site's
  /// first fetch (so it exists for exactly the sites that were crawled,
  /// at every shard count). Guarded by the site's mutex.
  struct SiteFaultState {
    bool init = false;
    /// Per-fetch outcome lane — one uniform consumed per fetch that
    /// reaches the classified draw (dead-site and outage fetches short-
    /// circuit before it, but those conditions are pure in (site, t)).
    Rng draw{0};
    /// Outage-window renewal lane, advanced only as windows are
    /// materialized to cover the fetch time.
    Rng outage{0};
    double outage_start = 0.0;
    double outage_end = 0.0;  // next/current window is [start, end)
    double death_day = std::numeric_limits<double>::infinity();
    int64_t flash_bucket = -1;
    uint32_t flash_count = 0;
  };

  enum class FaultOutcome { kNone, kSlow, kTransient, kTimeout };

  /// Draws the fault outcome for a fetch of `site` at `t`, advancing
  /// the site's fault lanes; fills `latency_days` for timeout/slow
  /// outcomes. Caller holds the site mutex.
  FaultOutcome EvalFaultLocked(uint32_t site, double t,
                               double* latency_days);

  /// Per-site adversarial state: the only *evolving* adversarial state
  /// (classification is pure). Counters advance under the site's mutex
  /// in per-site fetch order, which the engine's shard ownership makes
  /// deterministic at every shard count.
  struct SiteAdvState {
    /// Fresh trap URLs minted so far by this (trap) site.
    uint64_t trap_minted = 0;
    /// Resurrected source slots announced so far by this (twin) site.
    uint64_t twin_emitted = 0;
  };

  /// Everything a fetch of one site writes, in one record that starts
  /// a cache line and shares none with another site's: threads fetching
  /// different sites never contend for a line. (Slot histories are heap
  /// blocks of their own.)
  struct alignas(64) SiteState {
    /// Guards the slot histories, `fault` and `adv`; only its holder
    /// writes the counters.
    mutable std::mutex mu;
    Domain domain = Domain::kCom;
    std::vector<SlotState> slots;  // count fixed at construction
    std::atomic<uint64_t> fetches{0};
    std::atomic<uint64_t> not_found{0};
    SiteFaultState fault;  // advanced only when config_.HasFaults()
    SiteAdvState adv;      // advanced only when config_.HasAdvState()
  };

  /// Adds one to a counter of the site whose mutex the caller holds: the
  /// lock already orders its writers, so a plain load and store replace
  /// a locked read-modify-write, and readers outside the lock still see
  /// whole values.
  static void BumpLocked(std::atomic<uint64_t>& counter) {
    counter.store(counter.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  }

  /// Counts a fetch of a URL naming no site or slot of this web (no
  /// site's record sees it) and returns its NotFound.
  Status StrayFetch(const Url& url);

  /// Appends `adv_trap_links_per_fetch` freshly minted trap URLs for a
  /// successful fetch on trap site `site`. Caller holds the site mutex.
  void MintTrapLinksLocked(uint32_t site, std::vector<Url>* links);

  /// Appends the next unannounced resurrected-source URLs for a
  /// successful post-migration fetch on twin `site`. Caller holds the
  /// site mutex.
  void EmitTwinLinksLocked(uint32_t site, uint32_t source,
                           std::vector<Url>* links);

  /// Fresh deterministic RNG stream for one page identity.
  Rng PageStream(PageId id) const;

  /// The one definition of a page body: passes the bytes of
  /// PageBody(page, version) to `sink` in order, the header and trailer
  /// through `sink.Append(std::string_view)` and each 8-byte filler word
  /// between them through `sink.AppendWord(word, n)`, which takes the
  /// first `n` bytes of the word's object representation (8, except for
  /// the last word, cut at page_body_bytes). ChecksumBuilder is a sink.
  template <typename Sink>
  void EmitPageBody(PageId page, uint64_t version, Sink& sink) const;

  /// Appends a new page to (site, slot)'s history, born at `birth`.
  /// `stationary` backdates the birth by a uniform fraction of the
  /// lifespan, for the initial steady-state population. Caller holds
  /// the site mutex (or is the constructor).
  PageRecord& CreatePageLocked(uint32_t site, uint32_t slot, double birth,
                               bool stationary);

  /// Extends (site, slot)'s history with successor pages until it
  /// covers time `t`. Caller holds the site mutex.
  void EnsureCoverageLocked(uint32_t site, uint32_t slot, double t);

  /// The record occupying (site, slot) at time `t`; requires coverage.
  /// Caller holds the site mutex.
  PageRecord& OccupantAtLocked(uint32_t site, uint32_t slot, double t);

  /// Record for a PageId known to exist. Caller holds the site mutex.
  PageRecord& RecordOf(PageId id);
  const PageRecord& RecordOf(PageId id) const;

  /// Locks a slot's site, ensures coverage, and returns the occupant's
  /// URL at `t` — the link-resolution primitive.
  Url ResolveOccupantUrl(uint32_t site, uint32_t slot, double t);

  /// Advances a page's lazily sampled change process to time `t`.
  /// Caller holds the page's site mutex.
  static void AdvancePage(PageRecord& page, double t);

  /// Raises now() to at least `t` (atomic max).
  void BumpNow(double t);

  /// The earliest admissible fetch time right now.
  double TimeFloor() const;

  WebConfig config_;
  Rng rng_;  // construction-time layout draws only (site sizes, shuffle)
  std::atomic<double> now_{0.0};
  bool concurrent_batch_ = false;
  double batch_floor_ = 0.0;
  std::vector<SiteState> sites_;
  uint64_t total_slots_ = 0;
  // Fetches and NotFound answers no site's record counts: stray URLs,
  // and whatever a restored snapshot's totals hold beyond its per-site
  // fetch counts (it keeps no per-site NotFound counts).
  std::atomic<uint64_t> stray_fetches_{0};
  std::atomic<uint64_t> stray_not_found_{0};
};

}  // namespace webevo::simweb

#endif  // WEBEVO_SIMWEB_SIMULATED_WEB_H_
