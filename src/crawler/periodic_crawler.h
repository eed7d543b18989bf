#ifndef WEBEVO_CRAWLER_PERIODIC_CRAWLER_H_
#define WEBEVO_CRAWLER_PERIODIC_CRAWLER_H_

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "crawler/collection.h"
#include "crawler/crawl_module.h"
#include "crawler/eval.h"
#include "crawler/sharded_crawl_engine.h"
#include "freshness/freshness_tracker.h"
#include "simweb/simulated_web.h"
#include "util/status.h"

namespace webevo::crawler {

class PeriodicCrawler;
struct CrawlerCheckpointOptions;
Status SaveCrawler(const PeriodicCrawler& crawler, std::ostream& out,
                   const CrawlerCheckpointOptions& options);
Status LoadCrawler(std::istream& in, PeriodicCrawler* crawler);

/// Configuration of the periodic crawler.
struct PeriodicCrawlerConfig {
  std::size_t collection_capacity = 10000;

  /// Cycle length T: a fresh crawl starts every `cycle_days`.
  double cycle_days = 30.0;

  /// Active window w <= T: the crawl runs during the first
  /// `crawl_window_days` of each cycle at speed capacity / w. Setting
  /// w = T yields a *steady* crawler (continuous crawling at the low
  /// speed capacity / T); w < T yields the paper's *batch-mode* crawler
  /// with its higher peak speed.
  double crawl_window_days = 7.0;

  /// Shadowing (collect into a separate space, swap at crawl end) vs.
  /// in-place updates — Section 4, choice 2. The four combinations of
  /// (crawl_window_days == / < cycle_days) x shadowing are exactly the
  /// four cells of Table 2.
  bool shadowing = true;

  /// How often freshness is sampled into the tracker.
  double freshness_sample_interval_days = 0.25;

  /// Number of ShardedCrawlEngine shards (parallel CrawlModules).
  /// Results are bit-identical for any value; > 1 spreads each batch's
  /// fetches across that many worker threads.
  int crawl_parallelism = 1;

  /// Staged batch pipeline: when true, a freshness sample that is due
  /// at a batch boundary defers its oracle walk into the batch's fetch
  /// workers (each shard measures its own sites *before* its fetches,
  /// so every page's observation order is the sequential one) and
  /// settles into the tracker right after the fetch stage — the
  /// measure overlaps the fetch wall-clock instead of extending it.
  /// `false` runs the strictly sequential loop. Results are
  /// bit-identical either way.
  bool pipeline = true;

  /// Auto-checkpointing, as on the incremental crawler: when > 0,
  /// RunUntil writes a SaveCrawler checkpoint to `checkpoint_path`
  /// every this many completed engine batches. 0 disables.
  uint64_t checkpoint_every_batches = 0;
  std::string checkpoint_path;
  bool checkpoint_include_web = true;
  /// Whether checkpoints carry the pool's traffic aggregate (the
  /// "traffic" section), as on the incremental crawler. Note the
  /// periodic crawler has no *incremental* checkpoint mode: every
  /// cycle rewrites the whole collection, so an O(dirty) delta
  /// degenerates to O(everything) — see snapshot.h.
  bool checkpoint_module_traffic = false;

  /// Record-store backend of the collections (memory map by default;
  /// the paged backend spills records to page files). Behaviour is
  /// identical either way.
  storage::StoreOptions store;

  /// Serving layer, as on the incremental crawler: when > 0, RunUntil
  /// publishes an immutable MVCC BatchView every this many completed
  /// engine batches; `retained_views` is the registry's retention K.
  uint64_t publish_view_every_batches = 0;
  int retained_views = serving::ViewRegistry::kDefaultRetention;

  /// Failure handling: a transient error or timeout re-queues the URL
  /// at the back of the cycle's BFS frontier (a failed slot is
  /// refunded, like a dead fetch), at most this many times per URL per
  /// cycle; past the limit the URL is dropped *for this cycle only* —
  /// the next cycle starts from scratch anyway, which is the periodic
  /// crawler's natural quarantine. Unlike a dead fetch, a failure
  /// never purges an in-place entry: the page may be perfectly alive
  /// behind the outage.
  uint32_t fault_requeue_limit = 3;

  CrawlModuleConfig crawl;
};

/// The paper's periodic crawler (the right-hand column of Figure 10 in
/// its default batch + shadowing configuration): every cycle it
/// recrawls from the site roots in breadth-first order, rebuilding the
/// collection from scratch, with a fixed revisit frequency for every
/// page. With in-place updates pages become visible as they are
/// fetched; with shadowing the current collection is replaced
/// atomically when the crawl finishes (or its window closes).
///
/// The crawl loop runs in engine batches bounded by the next freshness
/// sample and the window end: *plan* pops the BFS frontier one URL per
/// crawl slot (a deque pop — O(1), nothing to shard; the owning shard
/// is stamped on the slot here), *fetch* executes the batch across
/// shards, *apply* runs the shared capacity-lease admission pass (each
/// shard tests-and-marks the discoveries whose target site it owns
/// against its own seen-set, in slot order, gated by a lease over the
/// cycle's frozen frontier-memory budget; the serial settle revokes
/// any optimistic overdraft in global stream order) and then stores
/// pages and expands the frontier serially in slot order. The
/// freshness *measure* at each sample fans out across the engine's
/// worker pool — and with `config.pipeline` it fuses into the next
/// batch's fetch workers (each shard walks its sites' oracles before
/// its fetches), overlapping the measure with the fetch wall-clock.
/// Cycle seeding (StartCycle) is likewise sharded: per-shard
/// collect/sort/seen-filter in parallel, then a canonical merge that
/// reproduces the single globally sorted append.
/// Fetches that fail (dead URLs) refund their slots at the batch
/// boundary — the serial crawler's "try the next URL immediately" — so
/// a cycle still stores exactly `collection_capacity` pages whenever
/// frontier and window allow.
///
/// The BFS order is deterministic, so each page is revisited at the
/// same offset in every cycle — matching the assumptions behind the
/// analytic curves of Figures 7 and 8.
class PeriodicCrawler {
 public:
  PeriodicCrawler(simweb::SimulatedWeb* web,
                  const PeriodicCrawlerConfig& config);

  /// Starts the first cycle at time `t`.
  Status Bootstrap(double t);

  /// Advances the simulation to `until`.
  Status RunUntil(double until);

  double now() const { return now_; }

  /// The collection users query (the current collection under
  /// shadowing; the single collection otherwise).
  const Collection& current_collection() const;

  /// Module 0 — the only module at crawl_parallelism == 1; per-shard
  /// accounting for wider pools lives on crawl_pool().
  const CrawlModule& crawl_module() const { return engine_.pool().module(0); }
  const CrawlModulePool& crawl_pool() const { return engine_.pool(); }
  const ShardedCrawlEngine& engine() const { return engine_; }
  const freshness::FreshnessTracker& tracker() const { return tracker_; }
  int64_t cycles_completed() const { return cycles_completed_; }

  /// Oracle freshness of the user-visible collection right now.
  CollectionQuality MeasureNow();

  struct Stats {
    uint64_t crawls = 0;
    uint64_t pages_stored = 0;
    uint64_t dead_fetches = 0;
    /// Fetches skipped for this cycle by an enforced per-site delay;
    /// unlike dead fetches they never purge an in-place entry.
    uint64_t politeness_rejections = 0;
    uint64_t swaps = 0;
    /// Failure ledger: classified fetch failures by kind, the bounded
    /// re-queues they triggered, and the URLs the cycle gave up on
    /// (requeue limit reached — dropped for the cycle, not purged).
    uint64_t fetch_failures = 0;
    uint64_t transient_errors = 0;
    uint64_t timeout_errors = 0;
    uint64_t failure_retries = 0;
    uint64_t failures_dropped = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Completed engine batches — the auto-checkpoint cadence counter,
  /// persisted by SaveCrawler.
  uint64_t batches_completed() const { return batches_completed_; }

  /// URLs queued in the BFS frontier for the current cycle.
  std::size_t frontier_depth() const { return frontier_.size(); }

  /// The serving layer's view registry (the engine's); see the
  /// incremental crawler. Enable publishing with
  /// config.publish_view_every_batches.
  serving::ViewRegistry& views() { return engine_.views(); }
  const serving::ViewRegistry& views() const { return engine_.views(); }

  /// Builds and publishes a BatchView of the current state; engine
  /// must be quiescent.
  void PublishViewNow();

  /// Checkpoint/restore of the whole crawler — collections, BFS
  /// frontier and seen-set, crawl clock, cycle state, politeness —
  /// bundled into one container file (snapshot.cc).
  friend Status SaveCrawler(const PeriodicCrawler& crawler,
                            std::ostream& out,
                            const CrawlerCheckpointOptions& options);
  friend Status LoadCrawler(std::istream& in, PeriodicCrawler* crawler);

 private:
  /// Prepares the BFS frontier for a new cycle starting at `t`.
  void StartCycle(double t);

  /// Finishes the active cycle (swap under shadowing).
  void FinishCycle();

  /// Applies one fetch outcome at now_: store / purge, then expand the
  /// frontier with the links the lease-admission pass marked fresh
  /// (null means the batch discovered no links at all).
  void ApplyOutcome(const simweb::Url& url,
                    StatusOr<simweb::FetchResult> result,
                    const std::vector<uint8_t>* fresh_links);

  Collection& target_collection();

  /// Total size of the sharded seen-set.
  std::size_t SeenCount() const;

  /// Marks `url` seen this cycle; true if it was new.
  bool SeenInsert(const simweb::Url& url);

  simweb::SimulatedWeb* web_;  // not owned
  PeriodicCrawlerConfig config_;
  ShadowedCollection store_;
  Collection inplace_;  // used when shadowing is off
  ShardedCrawlEngine engine_;
  freshness::FreshnessTracker tracker_;
  Stats stats_;

  double now_ = 0.0;
  bool bootstrapped_ = false;
  double cycle_start_ = 0.0;
  bool cycle_active_ = false;
  int64_t cycles_completed_ = 0;
  uint64_t stored_this_cycle_ = 0;
  double next_sample_ = 0.0;
  uint64_t batches_completed_ = 0;
  std::deque<simweb::Url> frontier_;
  /// URLs seen this cycle, sharded by target site (site % N) so the
  /// apply phase's link dedup can run one worker per shard.
  std::vector<std::unordered_set<simweb::Url, simweb::UrlHash>>
      seen_shards_;
  /// Per-cycle failure re-queue counts (cleared by StartCycle);
  /// persisted in the checkpoint's "failure" section so a mid-cycle
  /// resume replays the same bounded retries.
  std::unordered_map<simweb::Url, uint32_t, simweb::UrlHash>
      requeue_counts_;
};

}  // namespace webevo::crawler

#endif  // WEBEVO_CRAWLER_PERIODIC_CRAWLER_H_
