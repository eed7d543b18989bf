#ifndef WEBEVO_CRAWLER_INCREMENTAL_CRAWLER_H_
#define WEBEVO_CRAWLER_INCREMENTAL_CRAWLER_H_

#include <cstdint>
#include <iosfwd>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "crawler/admission_lease.h"
#include "crawler/all_urls.h"
#include "crawler/crawl_module.h"
#include "crawler/eval.h"
#include "crawler/ranking_module.h"
#include "crawler/sharded_collection.h"
#include "crawler/sharded_crawl_engine.h"
#include "crawler/sharded_frontier.h"
#include "crawler/update_module.h"
#include "freshness/freshness_tracker.h"
#include "simweb/simulated_web.h"
#include "storage/record_store.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"

namespace webevo::crawler {

class IncrementalCrawler;
struct CrawlerCheckpointOptions;
struct CheckpointIo;
Status SaveCrawler(const IncrementalCrawler& crawler, std::ostream& out,
                   const CrawlerCheckpointOptions& options);
Status LoadCrawler(std::istream& in, IncrementalCrawler* crawler);
Status CheckpointIncremental(IncrementalCrawler* crawler,
                             const std::string& path,
                             const CrawlerCheckpointOptions& options);
Status LoadCrawlerWithDeltasFromFile(const std::string& path,
                                     IncrementalCrawler* crawler);

/// Configuration of the incremental crawler.
struct IncrementalCrawlerConfig {
  /// Fixed collection size (Algorithm 5.1's assumption).
  std::size_t collection_capacity = 10000;

  /// Steady crawl speed in pages/day; also the UpdateModule's budget.
  /// The paper's steady crawler visits every page about once a month,
  /// so a natural setting is collection_capacity / 30.
  double crawl_rate_pages_per_day = 300.0;

  /// How often the RankingModule re-evaluates importance (expensive).
  double refine_interval_days = 7.0;

  /// How often the UpdateModule recomputes its allocation (cheap).
  double rebalance_interval_days = 1.0;

  /// How often freshness is sampled into the tracker (oracle only).
  double freshness_sample_interval_days = 0.5;

  /// Number of ShardedCrawlEngine shards (parallel CrawlModules).
  /// Results are bit-identical for any value; > 1 spreads each batch's
  /// fetches — and now each batch's apply — across that many worker
  /// threads.
  int crawl_parallelism = 1;

  /// Staged batch pipeline (default on): a freshness sample due at
  /// batch B's start defers its oracle walks into B's fetch workers
  /// (each shard measures its own sites *before* its fetches, so every
  /// page's observation order is the sequential one) and settles into
  /// the tracker before B's apply — the measure overlaps the fetch
  /// wall-clock instead of extending it. Results are bit-identical
  /// either way, at every shard count; `false` keeps the strictly
  /// sequential plan → fetch → apply → measure loop.
  bool pipeline = true;

  /// Auto-checkpointing: when > 0, RunUntil writes a crash-consistent
  /// SaveCrawler checkpoint to `checkpoint_path` every this many
  /// completed engine batches (always at a batch boundary, where the
  /// engine is quiesced). 0 disables.
  uint64_t checkpoint_every_batches = 0;
  std::string checkpoint_path;
  /// Whether auto-checkpoints bundle the simulated web's evolution
  /// state — required for bit-identical resume in a *fresh* process
  /// (see snapshot.h); skip it only when the resuming crawler shares
  /// this process's live web object.
  bool checkpoint_include_web = true;

  /// Incremental checkpointing (docs/STORAGE.md): the first
  /// auto-checkpoint writes a full base image to `checkpoint_path` and
  /// truncates `checkpoint_path + ".deltas"`; every later one appends
  /// an O(dirty) delta segment to the delta log instead of rewriting
  /// the base. Resume with LoadCrawlerWithDeltasFromFile.
  bool checkpoint_incremental = false;

  /// Whether checkpoints carry the per-module politeness/traffic
  /// accounting (the "traffic" section) so a resumed run's traffic
  /// report covers the whole crawl, not just the post-resume tail.
  bool checkpoint_module_traffic = false;

  /// Record-store backend of the Collection and AllUrls (memory map by
  /// default; the paged backend spills records to per-shard page
  /// files). Scheduling behaviour is identical either way.
  storage::StoreOptions store;

  /// Serving layer: when > 0, RunUntil publishes an immutable MVCC
  /// BatchView into the engine's ViewRegistry every this many
  /// completed engine batches (at the batch boundary, engine
  /// quiesced). 0 disables publishing. `retained_views` is the
  /// registry's retention K — how many published views stay
  /// acquirable by concurrent readers.
  uint64_t publish_view_every_batches = 0;
  int retained_views = serving::ViewRegistry::kDefaultRetention;

  /// Failure pipeline for classified fetch failures (Unavailable
  /// transient errors, DeadlineExceeded timeouts from the
  /// fault-injecting web). A failed URL is rescheduled with bounded
  /// exponential backoff — delay = base * 2^(k-1) * (1 + jitter * u)
  /// on the site's k-th consecutive failure, u drawn from the site's
  /// own backoff RNG lane so the schedule is deterministic at every
  /// shard count. A site reaching `fault_quarantine_threshold`
  /// consecutive failures trips its circuit breaker: every frontier
  /// entry of the site is *rescheduled* (never dropped) to no earlier
  /// than now + fault_quarantine_days. A URL failing
  /// `fault_url_retire_failures` times in a row is retired through the
  /// dead-page path (purged + tombstoned). Failed fetches never feed
  /// the change estimators or the freshness tracker.
  double fault_backoff_base_days = 0.25;
  double fault_backoff_jitter = 0.5;
  uint32_t fault_quarantine_threshold = 8;
  double fault_quarantine_days = 2.0;
  uint32_t fault_url_retire_failures = 6;
  /// Seed of the per-site backoff-jitter RNG lanes.
  uint64_t fault_backoff_seed = 0x6a09e667f3bcc908ull;

  /// Adversarial-web defense layer (docs/ARCHITECTURE.md). The
  /// content-fingerprint registry in AllUrls fills (and the
  /// wasted-fetch ledger counts) regardless of this switch — they are
  /// pure observation. `defense_enabled` gates the *actions*:
  ///  - diminishing-returns throttling: per site, every
  ///    `defense_yield_window` successful fetches the non-duplicate
  ///    yield (fetches serving content the fetched URL itself owns —
  ///    changed or not — over the window) is evaluated; a site below
  ///    `defense_min_yield` (almost everything it served was another
  ///    URL's content) has its frontier entries floored at now +
  ///    defense_throttle_base_days * 2^(level-1) and its links
  ///    barred from admission while any throttle level stands; a site
  ///    reaching `defense_quarantine_level` consecutive collapsed
  ///    windows is trap-quarantined (sticky) with a floor of now +
  ///    defense_quarantine_days. Honest sites never trip the
  ///    throttle, however static — spacing unchanged revisits is the
  ///    revisit scheduler's job, not the defense's;
  ///  - mirror dedup: a successful fetch whose fingerprint is owned by
  ///    a different live URL is suppressed (entry + frontier removed),
  ///    so duplicate content is indexed at most once, under the
  ///    first-fetch-in-slot-order canonical winner;
  ///  - migration-following: when the fingerprint's owner is a
  ///    retained page on a presumed-dead site (tripped circuit
  ///    breaker), the entry is re-homed to the new URL and the change
  ///    estimator carried over instead of relearned.
  /// With the switch off the crawl trajectory is byte-identical to a
  /// build without the defense layer.
  bool defense_enabled = false;
  uint32_t defense_yield_window = 24;
  double defense_min_yield = 0.125;
  double defense_throttle_base_days = 1.0;
  uint32_t defense_quarantine_level = 3;
  double defense_quarantine_days = 15.0;
  /// Sticky link-spam bar: once `defense_link_spam_threshold` of a
  /// site's URLs have been suppressed as duplicate content, its links
  /// stop being admitted for good — fetch yield cannot re-open
  /// admission the way it re-opens pacing, because a trap alternates
  /// healthy-looking real-page windows with link floods. The site's
  /// retained pages keep being recrawled normally. Must be >= 1.
  uint32_t defense_link_spam_threshold = 12;

  UpdateModuleConfig update;
  RankingModuleConfig ranking;
  CrawlModuleConfig crawl;
};

/// The paper's incremental crawler (Figure 12, Algorithm 5.1): a
/// *steady* crawler with *in-place* updates and *variable* revisit
/// frequency — the left-hand column of Figure 10.
///
/// The crawl loop runs in engine batches bounded by the next
/// housekeeping event (refine / rebalance / freshness sample):
///   1. *plan*: pop due URLs off the ShardedFrontier, one per crawl
///      slot (one slot every 1/crawl_rate days) — shard-local heaps
///      extract candidates in parallel, a deterministic tournament
///      merge assigns the slots;
///   2. *fetch*: the ShardedCrawlEngine executes the batch, shards in
///      parallel;
///   3. *apply*, under the capacity-lease protocol:
///        - *lease grant* (serial): the coordinator freezes the batch's
///          admission budget R = capacity - size - pending and grants
///          every shard a lease over it (each lease carries the full
///          remaining budget as an optimistic ceiling, plus the right
///          to overdraw capacity on inserts — bounded by the shard's
///          slot count — against canonical-order eviction candidates);
///        - *outcome pass* (parallel, fetch shard): each shard walks
///          its own outcomes in slot order — in-place collection
///          updates, checksum comparisons, dead-page purges and
///          AllUrls tombstones, UpdateModule visit records (whose
///          budget globals are frozen between barriers) — and queues
///          the admission-stream effects;
///        - *admission pass* (parallel, owner shard): each shard walks
///          the global-slot-ordered merge of its own slots' effects
///          and the link discoveries targeting its sites, performing
///          its own capacity-gated work against the lease: overdraft
///          inserts, greedy-fill link admissions (note + dedup + lease
///          gate in one walk), pending-admission settlement, frontier
///          schedules on coordinator-granted per-slot seq lanes, and
///          politeness-retry triage;
///        - *settle* (serial, the shrunken barrier): unused leases
///          settle as counters, overdrawn leases revoke admissions
///          past the frozen budget in global stream order, capacity
///          overdraft evicts the globally worst entries (per-shard
///          nominations merged in canonical BetterEvictionVictim
///          order), the seq-lane grant advances the global counter,
///          and the new-page latency ledger replays inserts in slot
///          order;
///   4. politeness rejections whose polite window reopens before the
///      batch window closes are refetched *within the batch* (reusing
///      their wasted slots, one retry per site per round); the rest
///      reschedule at the earliest polite time for the next batch.
/// URLs crawled or discovered within a batch become eligible for
/// (re)scheduling at the next batch — the batch is the engine's unit
/// of feedback, which is what keeps N-shard runs identical to serial
/// runs.
///
/// While the collection is below capacity, newly discovered URLs are
/// scheduled immediately (greedy fill); once full, admission is the
/// RankingModule's job alone.
class IncrementalCrawler {
 public:
  IncrementalCrawler(simweb::SimulatedWeb* web,
                     const IncrementalCrawlerConfig& config);

  /// Seeds AllUrls/CollUrls with every site root at time `t`. Call once
  /// before RunUntil.
  Status Bootstrap(double t);

  /// Advances the simulation to `until`, crawling at the configured
  /// steady rate.
  Status RunUntil(double until);

  double now() const { return now_; }
  const ShardedCollection& collection() const { return collection_; }
  const AllUrls& all_urls() const { return all_urls_; }
  const ShardedFrontier& coll_urls() const { return coll_urls_; }
  /// Module 0 — the only module at crawl_parallelism == 1; per-shard
  /// accounting for wider pools lives on crawl_pool().
  const CrawlModule& crawl_module() const { return engine_.pool().module(0); }
  const CrawlModulePool& crawl_pool() const { return engine_.pool(); }
  const ShardedCrawlEngine& engine() const { return engine_; }
  const UpdateModule& update_module() const { return update_module_; }
  const RankingModule& ranking_module() const { return ranking_module_; }
  const freshness::FreshnessTracker& tracker() const { return tracker_; }

  /// Oracle freshness of the collection right now.
  CollectionQuality MeasureNow();

  /// Counters for the paper's qualitative claims (timeliness of new
  /// pages, refinement churn, ...).
  struct Stats {
    uint64_t crawls = 0;
    uint64_t in_place_updates = 0;
    uint64_t pages_added = 0;
    uint64_t pages_evicted = 0;        ///< capacity-pressure evictions
    uint64_t replacements_executed = 0;
    uint64_t dead_pages_removed = 0;
    uint64_t changes_detected = 0;
    uint64_t politeness_retries = 0;  ///< fetches deferred, not failed
    /// Rejected fetches refetched within their own batch window —
    /// politeness retries retired without losing a batch of latency.
    uint64_t in_batch_retries = 0;
    /// Capacity-lease ledger: the admission budget granted to the
    /// shard leases (sum of each batch's frozen R) and the greedy-fill
    /// admissions that stood after settlement. Both are pure functions
    /// of the simulation — identical at every shard count — and are
    /// checkpointed. (Lease *revocations* are shard-layout dependent
    /// and live on the engine's wall-clock-free ledger instead.)
    uint64_t lease_budget_granted = 0;
    uint64_t lease_admissions = 0;
    /// Failure ledger (all pure functions of the simulation, identical
    /// at every shard count, checkpointed): classified fetch failures
    /// by kind, how they were disposed of, and the backoff the
    /// pipeline imposed. `fetch_failures` = transient + timeout;
    /// `failure_retries` counts failures rescheduled with backoff
    /// (the rest were retirements); `urls_retired` is deliberately
    /// separate from `dead_pages_removed` — a retired URL may well be
    /// alive, the crawler just gave up on it.
    uint64_t fetch_failures = 0;
    uint64_t transient_errors = 0;
    uint64_t timeout_errors = 0;
    uint64_t failure_retries = 0;
    uint64_t sites_quarantined = 0;
    uint64_t urls_retired = 0;
    /// Backoff delays imposed on failure reschedules, in days — fed
    /// serially in slot order at the settle (RunningStat accumulation
    /// order is observable through the checkpoint).
    RunningStat backoff_days;
    /// Defense ledger (pure functions of the simulation, identical at
    /// every shard count, checkpointed). `wasted_fetches` counts every
    /// successful fetch whose content fingerprint was already owned by
    /// a different URL — it accrues with the defense layer on OR off,
    /// which is what the graceful-degradation bench compares. The
    /// other three count defensive *actions* and stay 0 with the
    /// defense off: throttle events (a site's yield collapse tripping
    /// the pacing throttle 0->1, or its crossing the link-spam bar),
    /// duplicate-content URLs suppressed by mirror dedup, and
    /// collection entries re-homed by migration-following.
    uint64_t wasted_fetches = 0;
    uint64_t trap_sites_throttled = 0;
    uint64_t duplicate_urls_suppressed = 0;
    uint64_t pages_migrated = 0;
    /// Days from first discovery of a URL to its entering the
    /// collection — the "bring in new pages in a timely manner" metric.
    /// Only counted for URLs *discovered after* the collection first
    /// reached capacity: during the initial fill latency measures queue
    /// depth, and long-known candidates admitted late measure ranking
    /// churn — neither is the paper's "index a new page right after it
    /// is found" timeliness.
    RunningStat new_page_latency_days;
  };
  const Stats& stats() const { return stats_; }

  /// Completed engine batches (primary planned batches; their in-batch
  /// retry rounds are part of the batch) — the auto-checkpoint cadence
  /// counter, persisted by SaveCrawler.
  uint64_t batches_completed() const { return batches_completed_; }

  /// The serving layer's view registry (the engine's): reader threads
  /// Acquire/Release published BatchViews through it, lock-free,
  /// while RunUntil crawls. Empty until the first publish (enable
  /// with config.publish_view_every_batches).
  serving::ViewRegistry& views() { return engine_.views(); }
  const serving::ViewRegistry& views() const { return engine_.views(); }

  /// Builds and publishes a BatchView of the current state. Callable
  /// whenever the engine is quiescent (between RunUntil batches);
  /// RunUntil calls it on the publish_view_every_batches cadence, and
  /// LoadCrawler republishes the restored state through it.
  void PublishViewNow();

  /// Checkpoint/restore of the *whole* crawler — the four snapshot
  /// streams plus crawl clock, housekeeping timers, politeness state
  /// and counters, bundled into one container file (snapshot.cc).
  friend Status SaveCrawler(const IncrementalCrawler& crawler,
                            std::ostream& out,
                            const CrawlerCheckpointOptions& options);
  friend Status LoadCrawler(std::istream& in, IncrementalCrawler* crawler);

  /// Incremental checkpoint entry points (snapshot.cc): base image +
  /// O(dirty) delta segments, and the resume that replays them.
  friend Status CheckpointIncremental(IncrementalCrawler* crawler,
                                      const std::string& path,
                                      const CrawlerCheckpointOptions& options);
  friend Status LoadCrawlerWithDeltasFromFile(const std::string& path,
                                              IncrementalCrawler* crawler);
  /// The shared section builders/appliers behind all of the above
  /// (snapshot.cc) — one implementation of each checkpoint section.
  friend struct CheckpointIo;

 private:
  /// One admission-stream effect queued by the outcome pass, consumed
  /// by the owning shard's admission pass in ascending `slot` order.
  struct ApplyEffect {
    enum class Kind {
      kRetry,       ///< politeness rejection: reschedule or retry
      kDead,        ///< NotFound or retired: purged; pending settles
      kReschedule,  ///< success on a collection page: schedule + links
      kInsert,      ///< success on a new page: insert + schedule + links
      kFailed,      ///< transient/timeout: backoff reschedule
    };
    Kind kind = Kind::kReschedule;
    std::size_t slot = 0;  ///< index into the batch plan
    simweb::Url url;
    double at = 0.0;    ///< the slot's simulation time
    double when = 0.0;  ///< retry time (kRetry) or next visit
    /// Stored-copy fields for kInsert (the admission pass builds the
    /// collection entry from them).
    simweb::PageId page = simweb::kInvalidPage;
    uint64_t version = 0;
    Checksum128 checksum;
    /// Links extracted from the fetched body (successes only).
    std::vector<simweb::Url> links;
    /// kDead only: the purge actually removed a collection entry
    /// (feeds the settle's capacity replay).
    bool purged = false;
    /// Admission-pass outputs for the settle's latency/capacity
    /// ledger: the insert happened, and the URL's AllUrls first_seen
    /// at insert time (valid only when first_seen_valid).
    bool inserted = false;
    bool first_seen_valid = false;
    double first_seen = 0.0;
    /// kFailed only: the backoff delay imposed (for the serial ledger
    /// replay) and, when the failure tripped the site's circuit
    /// breaker, the quarantine floor the admission pass must apply to
    /// the site's frontier entries.
    double backoff_delay = 0.0;
    bool quarantine = false;
    double quarantine_until = 0.0;
  };

  /// Everything one shard's outcome pass produces: counter deltas plus
  /// the effect queue, both in the shard's slot order.
  struct ShardApplyResult {
    uint64_t crawls = 0;
    uint64_t in_place_updates = 0;
    uint64_t changes_detected = 0;
    uint64_t politeness_retries = 0;
    uint64_t dead_pages_removed = 0;
    uint64_t fetch_failures = 0;
    uint64_t transient_errors = 0;
    uint64_t timeout_errors = 0;
    uint64_t failure_retries = 0;
    uint64_t sites_quarantined = 0;
    uint64_t urls_retired = 0;
    std::vector<ApplyEffect> effects;
    double seconds = 0.0;  ///< wall-clock of this shard's pass
  };

  /// A politeness rejection eligible for refetching; `slot` orders the
  /// cross-shard merge, `shard` stamps the owner for the retry round's
  /// plan.
  struct PendingRetry {
    simweb::Url url;
    uint32_t shard = 0;
    uint32_t slot = 0;
  };

  /// One shard's admission-pass output, everything in the shard's
  /// stream order.
  struct ShardAdmitResult {
    /// Greedy-fill admissions performed against the lease, by global
    /// (slot, pos) coordinates, plus — aligned by index — what the
    /// settle needs to revoke one: the URL (a pointer into the
    /// effects' link lists), the lane seq its frontier entry was
    /// granted (a later reschedule of the same URL supersedes the
    /// admission; revocation must then leave the newer entry alone),
    /// and whether the pending insert was genuine (an admission of an
    /// already-pending URL must not clear that standing reservation).
    std::vector<AdmissionRef> admitted;
    std::vector<const simweb::Url*> admitted_urls;
    std::vector<uint64_t> admitted_seqs;
    std::vector<uint8_t> admitted_fresh_pending;
    /// Politeness rejections whose window reopens inside the batch.
    std::vector<PendingRetry> retries;
    /// Slots whose kInsert actually inserted (always, under overdraft).
    std::vector<uint32_t> insert_slots;
    double seconds = 0.0;  ///< wall-clock of this shard's pass
  };

  /// Applies one executed batch through the lease-protocol apply
  /// (outcome pass, admission pass, serial settle). Politeness
  /// rejections whose polite window reopens before `batch_end` are
  /// appended to `retries` (for the in-batch retry rounds) instead of
  /// being rescheduled onto the frontier.
  void ApplyBatch(const std::vector<PlannedFetch>& plan,
                  std::vector<StatusOr<simweb::FetchResult>>& outcomes,
                  const std::vector<double>& retry_at, double batch_end,
                  std::vector<PendingRetry>& retries);

  /// Runs one refinement pass and executes the replacements.
  void RunRefinement();

  /// Per-site circuit-breaker state, owned by shard site % N like
  /// every other per-site structure: only the owning shard's outcome
  /// pass touches it. Checkpointed (the "failure" section) so a resume
  /// mid-backoff or mid-quarantine replays the exact same schedule.
  struct SiteFailureState {
    /// Consecutive classified failures since the last successful
    /// contact (a 404 is contact); resets to 0 when the breaker trips.
    uint32_t consecutive = 0;
    /// Floor below which no fetch of this site is scheduled; 0 when
    /// never quarantined (simulation time is non-negative).
    double quarantined_until = 0.0;
    /// The site's backoff-jitter lane, lazily seeded from
    /// (fault_backoff_seed, site); draws depend only on the site's own
    /// failure sequence, never on cross-site interleaving.
    Rng backoff{0};
    bool rng_init = false;
  };

  /// Per-site diminishing-returns state machine (the defense layer's
  /// analogue of SiteFailureState): tallied and evaluated only on the
  /// serial settle, in slot then ascending-site order, so it is a pure
  /// function of the simulation. Checkpointed in the "defense" section
  /// so a resume mid-throttle replays the exact schedule.
  struct SiteDefenseState {
    /// Successful fetches / fresh-yield fetches in the current window.
    uint64_t window_fetches = 0;
    uint64_t window_fresh = 0;
    /// Collapsed-window count; healthy windows decay it one step.
    uint32_t throttle_level = 0;
    /// Sticky trap verdict: links into the site stop being admitted.
    bool quarantined = false;
    double quarantined_until = 0.0;
    /// Lifetime count of the site's URLs suppressed as duplicate
    /// content; at defense_link_spam_threshold the admission bar
    /// becomes permanent (link spam).
    uint64_t suppressed_total = 0;
  };

  /// In-flight admission accounting across the owner-sharded sets.
  std::size_t PendingTotal() const;
  void PendingInsert(const simweb::Url& url) {
    pending_shards_[collection_.ShardOf(url.site)].insert(url);
  }

  /// Switches on dirty tracking across the stores, the web, and the
  /// frontier marking ledger — called when incremental checkpointing
  /// is configured (construction and checkpoint load).
  void EnableDeltaTracking();

  /// Ledger mark: `url`'s frontier position (or absence) must be
  /// recorded in the next delta segment.
  void MarkFrontierDirty(const simweb::Url& url) {
    if (delta_tracking_) frontier_dirty_.insert(url);
  }

  simweb::SimulatedWeb* web_;  // not owned
  IncrementalCrawlerConfig config_;
  ShardedCollection collection_;
  AllUrls all_urls_;
  ShardedFrontier coll_urls_;
  ShardedCrawlEngine engine_;
  UpdateModule update_module_;
  RankingModule ranking_module_;
  freshness::FreshnessTracker tracker_;
  Stats stats_;

  double now_ = 0.0;
  bool bootstrapped_ = false;
  double next_refine_ = 0.0;
  double next_rebalance_ = 0.0;
  double next_sample_ = 0.0;
  uint64_t batches_completed_ = 0;
  /// URLs admitted toward collection slots but not yet crawled — the
  /// in-flight half of the capacity lease (the budget R the coordinator
  /// freezes each batch is capacity - size - pending). Sharded by the
  /// engine's site % N ownership so the admission pass settles each
  /// slot's pending entry and records each admission inside the owning
  /// shard; the total is the sum over shards, shard-count free.
  std::vector<std::unordered_set<simweb::Url, simweb::UrlHash>>
      pending_shards_;
  /// Failure-pipeline state, sharded by site % N ownership and
  /// persisted in the checkpoint's "failure" section: the per-site
  /// circuit breakers and the per-URL consecutive-failure counts
  /// behind dead-after-K retirement.
  std::vector<std::unordered_map<uint32_t, SiteFailureState>>
      site_failure_shards_;
  std::vector<std::unordered_map<simweb::Url, uint32_t, simweb::UrlHash>>
      url_failure_shards_;
  /// Defense-layer state, sharded by the same site % N ownership (the
  /// admission pass reads its own shard's quarantine verdicts, frozen
  /// between barriers) and persisted in the checkpoint's "defense"
  /// section. Populated only while defense_enabled.
  std::vector<std::unordered_map<uint32_t, SiteDefenseState>>
      site_defense_shards_;
  bool reached_capacity_once_ = false;
  double steady_since_ = 0.0;
  /// Incremental-checkpoint state. `frontier_dirty_` is the serial
  /// marking ledger of URLs whose frontier position may have moved
  /// since the last checkpoint — maintained only at the settle and on
  /// the other serial mutation paths (refinement, spaced retries), in
  /// rules chosen so the marked set is a pure function of the
  /// simulation (identical at every shard count; see docs/STORAGE.md).
  /// `base_written_` is deliberately *not* checkpointed: a restarted
  /// process rebases (writes a fresh full image) on its first
  /// checkpoint instead of appending to a chain it has not verified.
  bool delta_tracking_ = false;
  bool base_written_ = false;
  std::set<simweb::Url, simweb::UrlIdentityLess> frontier_dirty_;
};

}  // namespace webevo::crawler

#endif  // WEBEVO_CRAWLER_INCREMENTAL_CRAWLER_H_
