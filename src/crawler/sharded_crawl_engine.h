#ifndef WEBEVO_CRAWLER_SHARDED_CRAWL_ENGINE_H_
#define WEBEVO_CRAWLER_SHARDED_CRAWL_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "crawler/crawl_module.h"
#include "crawler/crawl_module_pool.h"
#include "serving/view_registry.h"
#include "simweb/simulated_web.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace webevo::crawler {

/// One crawl slot planned by a crawler: fetch `url` at simulation time
/// `at`. Crawlers accumulate a batch of slots (typically one
/// rebalance/sample interval's worth) and hand it to the engine.
///
/// `shard` is the owning engine shard (url.site % num_shards), stamped
/// once at plan time so the fetch/apply/noting passes reuse it instead
/// of recomputing the modulo per touch. Callers that do not plan
/// through a sharded frontier may leave it kUnassignedShard and the
/// engine computes it.
struct PlannedFetch {
  static constexpr uint32_t kUnassignedShard = ~0u;
  simweb::Url url;
  double at = 0.0;
  uint32_t shard = kUnassignedShard;
};

/// Wall-clock seconds elapsed since `begin` — the timing source for
/// the engine's phase accounting (Record*Seconds below).
double SecondsSince(std::chrono::steady_clock::time_point begin);

/// The sharded fetch engine behind the paper's "multiple CrawlModule's
/// may run in parallel" (Section 5.3): sites are partitioned across the
/// CrawlModulePool's modules, and each batch of planned fetches is
/// executed concurrently, one worker thread per shard, against the
/// SimulatedWeb's thread-safe fetch path.
///
/// Crawl loops follow a plan / fetch / apply cycle:
///   1. *plan* (parallel extract + serial merge): pop due URLs and
///      assign slot times;
///   2. *fetch* (parallel): ExecuteBatch performs the fetches, each
///      shard processing its own sites in plan order;
///   3. *apply* (parallel shard pass + serial barrier): each shard
///      applies its own outcomes to the state it owns (sharded
///      collection and update module) in plan order, then cross-shard
///      effects — inserts against the global capacity, evictions,
///      link admissions, frontier schedules — reduce serially at the
///      batch barrier in slot order.
///
/// Determinism: N = 1 and N = 8 shards produce bit-identical
/// simulations because (a) each site's fetches stay in plan order
/// inside the one shard that owns the site, (b) page evolution draws
/// from per-page RNG streams, so cross-site interleaving is
/// irrelevant, and (c) every mutation is either confined to the state
/// its shard owns (applied in the site's own plan order) or deferred
/// to the serial barrier and applied in canonical slot order. Per-
/// shard accounting is merged at the batch barrier in shard index
/// order, never in completion order.
class ShardedCrawlEngine {
 public:
  /// Creates `num_shards` crawl modules (>= 1; clamped) and as many
  /// worker threads. `retained_views` is the view registry's MVCC
  /// retention K (how many published BatchViews stay acquirable).
  ShardedCrawlEngine(simweb::SimulatedWeb* web,
                     const CrawlModuleConfig& config, int num_shards,
                     int retained_views =
                         serving::ViewRegistry::kDefaultRetention);

  /// Pipeline stage hook fused into a batch's shard workers — how the
  /// staged crawl loop overlaps batch B-1's deferred freshness measure
  /// with batch B's fetch stage on the same pool dispatch. The hook
  /// runs once per shard, in shard s's worker, *before* any of its
  /// fetches: a site's oracle walk at the sample time must precede that
  /// same site's batch-B fetches, and both live in shard s. Every shard
  /// is visited, including shards with no planned fetches. The hook
  /// must follow the shard-ownership discipline: hook s touches only
  /// shard-s state.
  using StageHook = std::function<void(std::size_t)>;

  /// Executes every planned fetch, in parallel across shards, and
  /// returns the outcomes in plan order: outcome i corresponds to
  /// batch[i]. Politeness rejections and dead pages surface as the
  /// usual CrawlModule error Statuses. Times within a batch may be
  /// non-monotonic across sites (shards interleave), but each single
  /// site's planned times must be non-decreasing — true for any
  /// batch planned by a forward-moving crawl clock.
  ///
  /// When `retry_at` is non-null it is resized to the batch and
  /// retry_at[i] receives the site's earliest polite fetch time *as of
  /// attempt i* — captured inside the owning shard immediately after
  /// the attempt, in plan order, so it is deterministic at every shard
  /// count. For politeness rejections this is the per-shard retry
  /// lane's reschedule time (earlier than the batch-end
  /// NextAllowedTime whenever later same-site fetches follow in the
  /// batch); for other outcomes it is merely the site's next polite
  /// time after the fetch.
  ///
  /// `before_fetch` (optional) fuses a pipeline stage into the shard
  /// workers; see StageHook. Hook wall-clock is recorded in the overlap
  /// ledger (measure_overlap_seconds).
  std::vector<StatusOr<simweb::FetchResult>> ExecuteBatch(
      const std::vector<PlannedFetch>& batch,
      std::vector<double>* retry_at = nullptr,
      const StageHook& before_fetch = {});

  CrawlModulePool& pool() { return pool_; }
  const CrawlModulePool& pool() const { return pool_; }
  int num_shards() const { return pool_.parallelism(); }

  /// The engine's worker pool, idle between batches; crawlers borrow it
  /// for the shard-parallel plan and measure phases.
  ThreadPool& threads() { return threads_; }

  /// The serving layer's publication point: the ring of the K most
  /// recent immutable BatchViews, acquired/released lock-free by any
  /// number of reader threads while the engine crawls.
  serving::ViewRegistry& views() { return views_; }
  const serving::ViewRegistry& views() const { return views_; }

  /// Publishes `view` at the apply barrier — the MVCC publish hook.
  /// Must be called at a batch boundary (quiescent engine): a view
  /// built mid-batch would tear the per-shard state it summarises.
  /// Records the publish in the engine ledger; returns false (and
  /// drops nothing — the view is simply not published) when called
  /// mid-batch.
  bool PublishView(std::unique_ptr<const serving::BatchView> view);

  /// Barrier-merged engine accounting.
  struct Stats {
    uint64_t batches = 0;
    uint64_t fetches = 0;
    /// Classified fetch failures (transient errors + timeouts) the
    /// owning crawler's apply pass reported — a pure function of the
    /// simulation, identical at every shard count, so it belongs to
    /// the deterministic side of the ledger.
    uint64_t fetch_failures = 0;
    /// Fetches handled per batch, and by each batch's busiest shard —
    /// together they measure how well site-hashing balances the load
    /// (busiest == batch size means one shard did all the work).
    RunningStat batch_fetches;
    RunningStat busiest_shard_fetches;
    /// Wall-clock seconds per fetch, accumulated by each shard locally
    /// and merged at the batch barrier in shard index order. The
    /// *values* are wall-clock (not reproducible); the merge structure
    /// is, so shard count never reorders the accumulation.
    RunningStat fetch_latency_seconds;
    /// Wall-clock seconds per plan / fetch / apply / measure phase —
    /// the Amdahl ledger behind bench_sharded_scaling's per-phase
    /// breakdown. Fetch is recorded by ExecuteBatch; the other phases
    /// are reported by the owning crawler via RecordPlanSeconds and
    /// friends. Plan, fetch and apply each carry one sample per
    /// *non-empty* batch (matching `batches`), measure one per
    /// freshness sample. Values are wall-clock and not reproducible;
    /// the sample structure is.
    RunningStat plan_seconds;
    RunningStat fetch_seconds;
    RunningStat apply_seconds;
    RunningStat measure_seconds;
    /// The apply phase split open: per-shard wall-clock of the parallel
    /// pass (one sample per busy shard per batch, merged in shard index
    /// order) and the serial barrier reduction (one sample per batch).
    /// barrier / apply is the apply phase's remaining serial fraction.
    RunningStat apply_shard_seconds;
    RunningStat apply_barrier_seconds;
    /// In-batch politeness retry rounds per planned batch (one sample
    /// per primary batch, 0 when nothing was rejected) — the ledger
    /// entry that shows when hot-site skew is costing extra rounds.
    /// Unlike the wall-clock stats this one is deterministic.
    RunningStat retry_rounds;
    /// The capacity-lease ledger, one sample per applied batch.
    /// Budget (the frozen remaining capacity every shard's lease
    /// carries), settled admissions, and settle evictions are pure
    /// functions of the simulation — identical at every shard count,
    /// part of the bench fingerprint. Revocations count how often the
    /// optimistic leases *overdrew* and the settle had to claw back;
    /// that is a property of how the batch happened to split across
    /// shards (always 0 at N = 1), so like busiest_shard_fetches it is
    /// deliberately excluded from determinism fingerprints and
    /// checkpoints.
    RunningStat lease_admit_budget;
    RunningStat lease_admissions;
    RunningStat lease_revocations;
    RunningStat settle_evictions;
    /// Serving-layer ledger: views published through PublishView and
    /// the wall-clock cost of building + publishing each (the values
    /// are wall-clock and not reproducible; the count is a pure
    /// function of the publish cadence).
    uint64_t views_published = 0;
    RunningStat publish_seconds;
    /// Pipeline overlap ledger. measure_overlap_seconds records
    /// wall-clock spent inside the fused stage hook — work batch B's
    /// pool dispatch absorbed on behalf of the measure(B-1) stage (one
    /// sample per shard per hooked batch, merged in shard index
    /// order); pipelined_batches counts the hooked batches.
    RunningStat measure_overlap_seconds;
    uint64_t pipelined_batches = 0;
    /// Never written: the crawl loop no longer speculates plans. Only
    /// the perf/ harness still reads these four, and they stay zero.
    RunningStat plan_overlap_seconds;
    uint64_t speculative_plans = 0;
    RunningStat spec_lanes_reused;
    RunningStat spec_lanes_invalidated;
  };
  const Stats& stats() const { return stats_; }

  void RecordPlanSeconds(double s) { stats_.plan_seconds.Add(s); }
  void RecordApplySeconds(double s) { stats_.apply_seconds.Add(s); }
  void RecordMeasureSeconds(double s) { stats_.measure_seconds.Add(s); }
  void RecordApplyShardSeconds(double s) {
    stats_.apply_shard_seconds.Add(s);
  }
  void RecordApplyBarrierSeconds(double s) {
    stats_.apply_barrier_seconds.Add(s);
  }
  void RecordRetryRounds(double rounds) { stats_.retry_rounds.Add(rounds); }
  /// Classified fetch failures applied this batch (crawler-reported).
  void RecordFetchFailures(uint64_t n) { stats_.fetch_failures += n; }
  /// One capacity-lease settle per applied batch.
  void RecordLeaseSettle(double budget, double admissions,
                         double revocations, double evictions) {
    stats_.lease_admit_budget.Add(budget);
    stats_.lease_admissions.Add(admissions);
    stats_.lease_revocations.Add(revocations);
    stats_.settle_evictions.Add(evictions);
  }
  /// Quiesce-at-barrier hook for checkpointing: true whenever no batch
  /// is executing — the crawler sits at a batch boundary and every
  /// shard-owned structure is at rest. SaveCrawler refuses to snapshot
  /// a non-quiescent engine — a checkpoint taken mid-batch would tear
  /// the state it bundles.
  bool quiescent() const { return !in_batch_; }

 private:
  simweb::SimulatedWeb* web_;  // not owned
  CrawlModulePool pool_;
  ThreadPool threads_;
  serving::ViewRegistry views_;
  Stats stats_;
  bool in_batch_ = false;
};

}  // namespace webevo::crawler

#endif  // WEBEVO_CRAWLER_SHARDED_CRAWL_ENGINE_H_
