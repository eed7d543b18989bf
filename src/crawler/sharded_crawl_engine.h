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
#include "util/ledger.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace webevo::crawler {

/// One crawl slot planned by a crawler: fetch `url` at simulation time
/// `at`. Crawlers accumulate a batch of slots (typically one
/// rebalance/sample interval's worth) and hand it to the engine, which
/// runs it on the shard that owns the site (url.site % num_shards).
struct PlannedFetch {
  simweb::Url url;
  double at = 0.0;
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
///   1. *plan* (serial): pop due URLs and assign slot times;
///   2. *fetch* (parallel): ExecuteBatch performs the fetches, each
///      shard resolving its own sites' fetches in plan order and then
///      digesting all their page bodies in one call;
///   3. *apply* (parallel shard passes + serial barrier): each shard
///      applies its own outcomes and link admissions to the state its
///      sites own (their stores inside the Collection, AllUrls and
///      UpdateModule, their frontier heap) in plan order, then what
///      crosses shards — the global capacity's lease and evictions —
///      settles serially at the batch barrier in slot order.
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
  /// worker threads. The view registry keeps its default retention.
  ShardedCrawlEngine(simweb::SimulatedWeb* web,
                     const CrawlModuleConfig& config, int num_shards);

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
  /// for the shard-parallel apply and measure passes.
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
    /// Fetches handled per batch, and by each batch's busiest shard —
    /// together they measure how well site-hashing balances the load
    /// (busiest == batch size means one shard did all the work).
    RunningStat batch_fetches;
    RunningStat busiest_shard_fetches;
    /// Seconds per fetch, accumulated by each shard and merged at the
    /// batch barrier in shard index order. One sample per fetch: its
    /// resolve plus, when it succeeded, an even share of its shard's
    /// digest call, so the samples sum to the shard's whole fetch work.
    RunningStat fetch_latency_seconds;
    /// Seconds per plan / fetch / apply / measure phase — the Amdahl
    /// ledger behind bench_sharded_scaling's per-phase breakdown. Fetch
    /// is recorded by ExecuteBatch, the others by the owning crawler
    /// (RecordPlanSeconds and friends). Plan, fetch and apply carry one
    /// sample per *non-empty* batch (matching `batches`), measure one
    /// per freshness sample.
    RunningStat plan_seconds;
    RunningStat fetch_seconds;
    RunningStat apply_seconds;
    RunningStat measure_seconds;
    /// The crawl loop's serial housekeeping: one sample per
    /// UpdateModule::Rebalance call and one per refinement pass
    /// (RankingModule::Refine plus executing its decisions).
    RunningStat rebalance_seconds;
    RunningStat refine_seconds;
    /// The apply phase split open: the parallel pass per busy shard,
    /// and the serial barrier once per batch. barrier / apply is the
    /// apply phase's remaining serial fraction.
    RunningStat apply_shard_seconds;
    RunningStat apply_barrier_seconds;
    /// In-batch politeness retry rounds per primary batch (0 when
    /// nothing was rejected): shows when hot-site skew costs rounds.
    RunningStat retry_rounds;
    /// The capacity-lease ledger, one sample per applied batch: the
    /// frozen budget every shard's lease carries, settled admissions,
    /// revocations (optimistic leases that overdrew and were clawed
    /// back at the settle; always 0 at N = 1) and settle evictions.
    RunningStat lease_admit_budget;
    RunningStat lease_admissions;
    RunningStat lease_revocations;
    RunningStat settle_evictions;
    /// Views published through PublishView, and the cost of each.
    uint64_t views_published = 0;
    RunningStat publish_seconds;
    /// Pipeline overlap ledger: time inside the fused stage hook — work
    /// batch B's dispatch absorbed for the measure(B-1) stage, one
    /// sample per shard per hooked batch — and the hooked batches.
    RunningStat measure_overlap_seconds;
    uint64_t pipelined_batches = 0;
    /// Never written: the crawl loop no longer speculates plans. Only
    /// the perf/ harness still reads these four, and they stay zero.
    RunningStat plan_overlap_seconds;
    uint64_t speculative_plans = 0;
    RunningStat spec_lanes_reused;
    RunningStat spec_lanes_invalidated;

    /// The ledger table (util/ledger.h). None of it is checkpointed:
    /// the engine ledger restarts at zero on restore.
    template <typename Fn>
    static constexpr void Visit(Fn&& fn) {
      using S = Stats;
      using ledger::Row;
      using enum ledger::Class;
      fn(Row{"batches"}, &S::batches);
      fn(Row{"fetches"}, &S::fetches);
      fn(Row{"batch_fetches"}, &S::batch_fetches);
      fn(Row{"busiest_shard_fetches", kLayout}, &S::busiest_shard_fetches);
      fn(Row{"fetch_latency_seconds", kWallClock}, &S::fetch_latency_seconds);
      fn(Row{"plan_seconds", kWallClock}, &S::plan_seconds);
      fn(Row{"fetch_seconds", kWallClock}, &S::fetch_seconds);
      fn(Row{"apply_seconds", kWallClock}, &S::apply_seconds);
      fn(Row{"measure_seconds", kWallClock}, &S::measure_seconds);
      fn(Row{"rebalance_seconds", kWallClock}, &S::rebalance_seconds);
      fn(Row{"refine_seconds", kWallClock}, &S::refine_seconds);
      fn(Row{"apply_shard_seconds", kWallClock}, &S::apply_shard_seconds);
      fn(Row{"apply_barrier_seconds", kWallClock}, &S::apply_barrier_seconds);
      fn(Row{"retry_rounds"}, &S::retry_rounds);
      fn(Row{"lease_admit_budget"}, &S::lease_admit_budget);
      fn(Row{"lease_admissions"}, &S::lease_admissions);
      fn(Row{"lease_revocations", kLayout}, &S::lease_revocations);
      fn(Row{"settle_evictions"}, &S::settle_evictions);
      fn(Row{"views_published"}, &S::views_published);
      fn(Row{"publish_seconds", kWallClock}, &S::publish_seconds);
      fn(Row{"measure_overlap_seconds", kWallClock},
         &S::measure_overlap_seconds);
      fn(Row{"pipelined_batches", kLayout}, &S::pipelined_batches);
      fn(Row{"plan_overlap_seconds", kLayout}, &S::plan_overlap_seconds);
      fn(Row{"speculative_plans", kLayout}, &S::speculative_plans);
      fn(Row{"spec_lanes_reused", kLayout}, &S::spec_lanes_reused);
      fn(Row{"spec_lanes_invalidated", kLayout}, &S::spec_lanes_invalidated);
    }
  };
  const Stats& stats() const { return stats_; }

  void RecordPlanSeconds(double s) { stats_.plan_seconds.Add(s); }
  void RecordApplySeconds(double s) { stats_.apply_seconds.Add(s); }
  void RecordMeasureSeconds(double s) { stats_.measure_seconds.Add(s); }
  void RecordRebalanceSeconds(double s) { stats_.rebalance_seconds.Add(s); }
  void RecordRefineSeconds(double s) { stats_.refine_seconds.Add(s); }
  void RecordApplyShardSeconds(double s) {
    stats_.apply_shard_seconds.Add(s);
  }
  void RecordApplyBarrierSeconds(double s) {
    stats_.apply_barrier_seconds.Add(s);
  }
  void RecordRetryRounds(double rounds) { stats_.retry_rounds.Add(rounds); }
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

static_assert(ledger::CoversEveryField<ShardedCrawlEngine::Stats>(),
              "every ShardedCrawlEngine::Stats field needs one ledger row");

}  // namespace webevo::crawler

#endif  // WEBEVO_CRAWLER_SHARDED_CRAWL_ENGINE_H_
