#ifndef WEBEVO_CRAWLER_PERIODIC_CRAWLER_H_
#define WEBEVO_CRAWLER_PERIODIC_CRAWLER_H_

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "crawler/collection.h"
#include "crawler/crawl_module.h"
#include "crawler/eval.h"
#include "crawler/sharded_crawl_engine.h"
#include "freshness/freshness_tracker.h"
#include "simweb/simulated_web.h"
#include "util/ledger.h"
#include "util/status.h"

namespace webevo::crawler {

class PeriodicCrawler;
struct CheckpointIo;
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
  /// fetches and each freshness sample's oracle walk across that many
  /// worker threads. Everything else runs serially.
  int crawl_parallelism = 1;

  /// Auto-checkpointing, as on the incremental crawler: when > 0,
  /// RunUntil writes a SaveCrawler checkpoint to `checkpoint_path`
  /// every this many completed engine batches. 0 disables.
  uint64_t checkpoint_every_batches = 0;
  std::string checkpoint_path;
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
  /// engine batches.
  uint64_t publish_view_every_batches = 0;

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
/// crawl slot (a deque pop), *fetch* executes the batch across the
/// engine's shards, each fetch on the shard that owns its site, and
/// *apply* runs serially in slot order: store or purge each page, then
/// append its new links to the frontier while the cycle's seen set
/// holds fewer than 4 x capacity URLs (the frontier-memory bound). A
/// freshness sample, when due, is measured before the batch, its
/// oracle walks spread over the engine's worker pool.
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
  const Collection& current_collection() const { return current_; }

  /// The crawl modules; AggregateTraffic() is the crawl's load.
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

    /// The ledger table (util/ledger.h), in the order of the
    /// checkpoint's C record. Every row is deterministic and
    /// checkpointed, so a new field takes a row here and a
    /// kPerMetaVersion bump.
    template <typename Fn>
    static constexpr void Visit(Fn&& fn) {
      using S = Stats;
      using ledger::Row;
      fn(Row{"crawls"}, &S::crawls);
      fn(Row{"pages_stored"}, &S::pages_stored);
      fn(Row{"dead_fetches"}, &S::dead_fetches);
      fn(Row{"politeness_rejections"}, &S::politeness_rejections);
      fn(Row{"swaps"}, &S::swaps);
      fn(Row{"fetch_failures"}, &S::fetch_failures);
      fn(Row{"transient_errors"}, &S::transient_errors);
      fn(Row{"timeout_errors"}, &S::timeout_errors);
      fn(Row{"failure_retries"}, &S::failure_retries);
      fn(Row{"failures_dropped"}, &S::failures_dropped);
    }
  };
  const Stats& stats() const { return stats_; }

  /// A view's summary rows (serving/view_builder.cc): the ledger's, in
  /// table order, with cycles_completed — the crawler's own count, not
  /// a Stats field — right after swaps.
  ledger::SummaryRows SummaryRows() const;

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
  /// bundled into one container file (snapshot.cc): CheckpointIo
  /// builds the sections, LoadCrawler restores them.
  friend struct CheckpointIo;
  friend Status LoadCrawler(std::istream& in, PeriodicCrawler* crawler);

 private:
  /// Prepares the BFS frontier for a new cycle starting at `t`.
  void StartCycle(double t);

  /// Finishes the active cycle (swap under shadowing).
  void FinishCycle();

  /// Applies one fetch outcome at now_: store / purge, then expand the
  /// frontier with the outcome's new links, in link order.
  void ApplyOutcome(const simweb::Url& url,
                    StatusOr<simweb::FetchResult> result);

  Collection& target_collection() {
    return shadow_.has_value() ? *shadow_ : current_;
  }

  simweb::SimulatedWeb* web_;  // not owned
  PeriodicCrawlerConfig config_;
  /// The collection users read. Under shadowing the crawl writes into
  /// `shadow_`, and FinishCycle swaps the two (the instantaneous
  /// replacement the paper assumes); otherwise it updates `current_`
  /// in place and `shadow_` is empty. Each holds one store: the
  /// periodic crawler applies its outcomes serially.
  Collection current_;
  std::optional<Collection> shadow_;
  /// Shadow swaps performed. The checkpoint's B record carries it and
  /// its C record `stats_.swaps`; a restore takes each from its own
  /// record, so the two are kept apart.
  int64_t swap_count_ = 0;
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
  /// URLs seen this cycle: the roots, the in-place seeds and every
  /// link admitted to the frontier.
  std::unordered_set<simweb::Url, simweb::UrlHash> seen_;
  /// Per-cycle failure re-queue counts (cleared by StartCycle);
  /// persisted in the checkpoint's "failure" section so a mid-cycle
  /// resume replays the same bounded retries.
  std::unordered_map<simweb::Url, uint32_t, simweb::UrlHash>
      requeue_counts_;
};

static_assert(ledger::CoversEveryField<PeriodicCrawler::Stats>(),
              "every PeriodicCrawler::Stats field needs one ledger row");

}  // namespace webevo::crawler

#endif  // WEBEVO_CRAWLER_PERIODIC_CRAWLER_H_
