#ifndef WEBEVO_CRAWLER_UPDATE_MODULE_H_
#define WEBEVO_CRAWLER_UPDATE_MODULE_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "estimator/change_estimator.h"
#include "simweb/url.h"
#include "util/random.h"
#include "util/status.h"

namespace webevo {
class ThreadPool;
}  // namespace webevo

namespace webevo::crawler {

/// How revisit frequency is assigned to pages (Section 4, choice 3).
enum class RevisitPolicy {
  /// Every page at the same frequency (the fixed-frequency policy
  /// natural for batch crawlers).
  kUniform,
  /// Frequency proportional to estimated change rate — the intuitive
  /// policy the paper's p1/p2 example shows can *lose* to uniform.
  kProportional,
  /// Freshness-optimal allocation from [CGM99b] (the Figure 9 curve):
  /// rises with change rate, then falls.
  kOptimal,
};

const char* RevisitPolicyName(RevisitPolicy policy);
/// The inverse of RevisitPolicyName; InvalidArgument listing the valid
/// names for any other string.
StatusOr<RevisitPolicy> ParseRevisitPolicy(const std::string& name);

/// Configuration of the UpdateModule.
struct UpdateModuleConfig {
  /// EB (Bayesian frequency classes) is the default because scheduling
  /// needs *shrinkage*: a frequentist estimator reports rate 0 for any
  /// page it has never seen change, and the optimal policy would then
  /// abandon pages whose changes simply haven't been caught yet. EB's
  /// posterior mean decays smoothly toward the slow classes instead.
  /// The ratio estimator remains the best choice when only accuracy on
  /// observed-change pages matters.
  estimator::EstimatorKind estimator_kind =
      estimator::EstimatorKind::kBayesian;
  RevisitPolicy policy = RevisitPolicy::kOptimal;

  /// Keep change statistics per site instead of per page — the paper's
  /// Section 5.3 alternative: tighter estimates when a site's pages
  /// change at similar rates, biased when they do not.
  bool site_level_stats = false;

  /// Total crawl budget in page visits per day; the crawler owner sets
  /// this to its steady crawl speed.
  double crawl_budget_pages_per_day = 100.0;

  /// Fraction of the budget the optimal/proportional allocations may
  /// plan for. Crucial headroom: scheduling overheads the allocation
  /// cannot see (probes, the max-interval clamp on abandoned pages,
  /// newly admitted pages) would otherwise push demand permanently
  /// above the crawl speed — and a saturated queue degenerates into
  /// round-robin, erasing the policy entirely.
  double budget_utilization = 0.8;

  /// Revisit intervals are clamped to this range. The lower bound
  /// prevents a hot page from monopolising the crawler; the upper bound
  /// guarantees that pages the optimal policy would abandon (f = 0) are
  /// still re-checked occasionally so their rate estimates can recover.
  double min_revisit_interval_days = 0.25;
  double max_revisit_interval_days = 60.0;

  /// Interval prior used before a page has enough visit history.
  double default_interval_days = 7.0;

  /// If > 0, multiply a page's revisit frequency by
  /// (importance / mean importance)^importance_exponent — the paper's
  /// note that a "highly important" page may deserve more frequent
  /// visits than its change rate alone suggests.
  double importance_exponent = 0.0;

  /// Probability of turning a reschedule into a *probe*: an early
  /// revisit at ~1/4 of the page's estimated change interval. A visit
  /// that is all but certain to observe a change carries no rate
  /// information (Figure 1(a)), so pages over-estimated as fast would
  /// otherwise be abandoned forever — every sparse revisit confirms
  /// "changed", a self-fulfilling misclassification. Probes are the
  /// cheap exploration that lets such pages be rescued.
  double probe_probability = 0.1;

  /// Seed for the probe coin flips. Each site draws from its own
  /// stream derived from (seed, site), so scheduling is deterministic
  /// at every shard count: a site's draws depend only on its own visit
  /// sequence, never on how other sites' visits interleave.
  uint64_t seed = 0x9e3779b9;

  /// Number of internal state shards, sites owned by shard `site % N`.
  /// Must match the crawl engine's shard count when OnCrawled/Forget
  /// are called concurrently from the engine's apply pass (so two
  /// workers can never touch one shard map); the module's decisions
  /// are identical at every value.
  int num_shards = 1;
};

/// The `UpdateModule` of Figure 12: decides *when to revisit* each
/// collection page (the update decision). It records checksum-change
/// outcomes into a per-page (or per-site) ChangeEstimator and maps the
/// estimated rate to a next-visit time through the configured policy.
///
/// The heavy lifting of the optimal policy — solving the budget-
/// constrained allocation — happens in Rebalance(), which the owning
/// crawler calls periodically (mirroring the paper's separation of the
/// fast update path from expensive global computation); between calls
/// each scheduling decision prices the page at the stored Lagrange
/// multiplier, which costs one bisection of 60-75 steps (about 1 us).
///
/// Concurrency contract: OnCrawled / Forget / EstimatedRate /
/// SetImportance touch only the shard owning `url.site` plus
/// *frozen* global scheduling quantities (the Lagrange multiplier,
/// the proportional normaliser, the mean importance, and the page
/// count snapshot), so the engine's apply pass may call them in
/// parallel for sites of different shards. The frozen quantities are
/// recomputed only on the serial path — Rebalance() and
/// RefreshSchedulingPageCount() at batch barriers — in canonical
/// (site, slot, incarnation) order, which makes every decision a pure
/// function of the visit history regardless of shard count.
class UpdateModule {
 public:
  explicit UpdateModule(const UpdateModuleConfig& config);

  /// Records the outcome of crawling `url` at `now` and returns the
  /// next time it should be visited. `changed` is whether the checksum
  /// differed from the stored copy; `first_visit` marks pages just
  /// added to the collection (no change information yet).
  /// `quiet_days`, when >= 0, is the server-reported time since the
  /// page last changed (Last-Modified); estimators that can exploit it
  /// (EL) do, others ignore it.
  double OnCrawled(const simweb::Url& url, double now, bool changed,
                   bool first_visit, double quiet_days = -1.0);

  /// Records that a fetch of `url` at `now` *failed* (transient error
  /// or timeout). Pure accounting: an unreachable page is not an
  /// unchanged page, so this must never feed the change estimators —
  /// and it leaves `last_visit` alone, because the page may well have
  /// changed during the outage and the next successful visit's
  /// observation interval legitimately spans it.
  void OnFetchFailed(const simweb::Url& url, double now);

  /// Successful visits OnCrawled has processed (in-memory diagnostic,
  /// not checkpointed): the estimator-evidence ledger the fault benches
  /// gate on — failed fetches must contribute to failures_recorded()
  /// and never to visits_recorded().
  uint64_t visits_recorded() const;
  uint64_t failures_recorded() const;

  /// Sets the importance hint used by importance-aware scheduling.
  void SetImportance(const simweb::Url& url, double importance);

  /// Drops all state for a page discarded from the collection. With
  /// site-level statistics the site aggregate is retained.
  void Forget(const simweb::Url& url);

  /// Migration-following: moves `from`'s learned page state (estimator
  /// statistics, visit history, importance) onto `to`, so content
  /// re-homed under a new URL keeps its change-rate knowledge instead
  /// of relearning it from scratch. Overwrites whatever state `to` had;
  /// no-op when `from` is untracked. With site-level statistics the
  /// source site's aggregate stays put (the new site accumulates its
  /// own). Serial-path only — the crawler's settle — like every
  /// cross-shard mutation.
  void CarryEstimator(const simweb::Url& from, const simweb::Url& to);

  /// Estimated change rate for a page (0 if unknown).
  double EstimatedRate(const simweb::Url& url) const;

  /// Recomputes the global quantities behind the per-page decision:
  /// the optimal policy's Lagrange multiplier, the proportional
  /// policy's normaliser, and the mean importance. Call on the order of
  /// once per simulated day. With `threads`, each shard's pages are
  /// read and sorted on the pool (one task per shard; the pool must be
  /// idle, as the crawl engine's is between batches); the result is the
  /// same bits either way.
  void Rebalance(ThreadPool* threads = nullptr);

  /// Re-freezes the tracked-page count used by the budget-spreading
  /// fallbacks (uniform policy, pre-rebalance optimal/proportional).
  /// Crawlers call this at each serial plan step — after housekeeping,
  /// before the batch executes — so the count advances once per batch
  /// on the serial path (never per page, which is what keeps OnCrawled
  /// shard-parallel *and* bit-deterministic) and reflects any pages
  /// refinement or rebalance just forgot or admitted, instead of a
  /// value frozen at the previous batch's barrier.
  void RefreshSchedulingPageCount();

  std::size_t tracked_pages() const;
  const UpdateModuleConfig& config() const { return config_; }

  /// Snapshot/restore of the module's *learned* state — estimator
  /// statistics, per-page visit history, rebalance outputs, and the
  /// per-site probe RNG streams. Persisting this is what lets a
  /// restarted incremental crawler keep its change-rate knowledge
  /// instead of relearning it from scratch. The section's one writer
  /// (over every record, or the dirty ones of a delta segment), reader
  /// and apply path are in crawler/snapshot.cc.
  friend struct UpdateModuleSection;

  /// Dirty-key tracking for incremental checkpoints. Marks are
  /// per-shard (the apply pass's workers each touch only their own
  /// shard's sets, like every other per-shard structure) and recorded
  /// only for *logical* mutations — SetImportance marks only on a
  /// value change, failed fetches mark nothing — so the merged sets
  /// are pure functions of the simulation, identical at every N.
  void EnableDirtyTracking();
  void AppendDirty(std::set<simweb::Url, simweb::UrlIdentityLess>* pages,
                   std::set<uint32_t>* sites,
                   std::set<uint32_t>* rngs) const;
  void ClearDirty();
  int64_t rebalance_count() const { return rebalance_count_; }
  /// Last solved Lagrange multiplier (0 before the first optimal
  /// rebalance); exposed for observability and tests.
  double multiplier() const { return multiplier_; }
  /// The proportional policy's normaliser (the sum of scheduling rates)
  /// and the mean importance, as the last rebalance left them.
  double total_rate() const { return total_rate_; }
  double mean_importance() const { return mean_importance_; }

  int num_shards() const { return static_cast<int>(page_shards_.size()); }
  std::size_t ShardOf(uint32_t site) const {
    return site % page_shards_.size();
  }

 private:
  struct PageState {
    /// Owned when page-level stats; with site-level stats the
    /// estimator lives in the site shard and this is null.
    std::unique_ptr<estimator::ChangeEstimator> estimator;
    double last_visit = 0.0;
    bool visited = false;
    double importance = 0.0;
    /// Whether the page's pending visit is a verification probe of an
    /// abandonment decision (see OnCrawled).
    bool probing_abandonment = false;
  };

  using PageMap =
      std::unordered_map<simweb::Url, PageState, simweb::UrlHash>;
  using SiteMap =
      std::unordered_map<uint32_t,
                         std::unique_ptr<estimator::ChangeEstimator>>;

  estimator::ChangeEstimator* EstimatorFor(const simweb::Url& url,
                                           PageState& state);
  const estimator::ChangeEstimator* EstimatorFor(
      const simweb::Url& url, const PageState& state) const;

  /// The probe stream owned by `site`, lazily seeded from
  /// (config_.seed, site); only the owning shard's worker touches it.
  Rng& ProbeRng(uint32_t site);

  /// Rate used for scheduling: the estimate when trustworthy, the
  /// prior while history is thin.
  double SchedulingRate(const estimator::ChangeEstimator* est) const;

  /// Maps a rate (and importance) to a visit frequency per the policy.
  double FrequencyFor(double rate, double importance) const;

  UpdateModuleConfig config_;
  std::vector<PageMap> page_shards_;
  std::vector<SiteMap> site_shards_;  // site-level aggregates
  std::vector<std::unordered_map<uint32_t, Rng>> rng_shards_;
  /// Per-shard evidence tallies (each shard's worker touches only its
  /// own slot, so the apply pass needs no synchronisation); summed on
  /// read. Diagnostics only — never checkpointed, never scheduled on.
  std::vector<uint64_t> visit_counts_;
  std::vector<uint64_t> failure_counts_;
  double multiplier_ = 0.0;        // kOptimal; 0 = not yet rebalanced
  double total_rate_ = 0.0;        // kProportional normaliser
  double mean_importance_ = 0.0;   // importance boost normaliser
  /// Page count snapshot behind FrequencyFor's fallbacks; advances only
  /// on the serial path (Rebalance / RefreshSchedulingPageCount).
  std::size_t frozen_page_count_ = 0;
  int64_t rebalance_count_ = 0;
  /// Incremental-checkpoint marking (see EnableDirtyTracking): URLs
  /// whose PageState changed, sites whose site-level estimator
  /// changed, sites whose probe RNG drew — each in the owning shard's
  /// slot.
  bool dirty_tracking_ = false;
  std::vector<std::set<simweb::Url, simweb::UrlIdentityLess>>
      dirty_page_shards_;
  std::vector<std::set<uint32_t>> dirty_site_shards_;
  std::vector<std::set<uint32_t>> dirty_rng_shards_;
};

}  // namespace webevo::crawler

#endif  // WEBEVO_CRAWLER_UPDATE_MODULE_H_
