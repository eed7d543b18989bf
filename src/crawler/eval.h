#ifndef WEBEVO_CRAWLER_EVAL_H_
#define WEBEVO_CRAWLER_EVAL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crawler/collection.h"
#include "simweb/simulated_web.h"
#include "util/thread_pool.h"

namespace webevo::crawler {

/// Oracle-measured quality of a collection at one instant.
struct CollectionQuality {
  /// Fraction of entries that are up-to-date (page alive and unchanged
  /// since the stored version) — the paper's freshness metric. 0 for an
  /// empty collection.
  double freshness = 0.0;
  /// Mean age of the *stale* entries' staleness in days, measured from
  /// each page's most recent change (a lower bound on the [CGM99b] age,
  /// which counts from the first unseen change). 0 if nothing is stale.
  double mean_stale_age_days = 0.0;
  std::size_t size = 0;
  std::size_t fresh = 0;
  std::size_t dead = 0;  ///< entries whose page no longer exists
};

/// Measures `collection` against ground truth at time `t`. Uses the
/// oracle API only — no crawl traffic is generated.
///
/// Accumulation is *canonical*: entries are grouped by site, ordered by
/// (slot, incarnation) within each site, and per-site partial sums are
/// reduced in ascending site order. The canonical order makes the
/// floating-point sums independent of store iteration order and of
/// how the work is split, so the serial and sharded measurements below
/// are bit-identical to each other at every shard count.
CollectionQuality MeasureCollection(simweb::SimulatedWeb& web,
                                    const Collection& collection, double t);

/// MeasureCollection with the per-site oracle walks fanned out over
/// `threads`, sites partitioned site % num_shards (the engine's shard
/// ownership, so each site's lazy page evolution is advanced by exactly
/// one worker). Integer counts and the canonical reduction order make
/// the result bit-identical to the serial MeasureCollection.
CollectionQuality MeasureCollectionSharded(simweb::SimulatedWeb& web,
                                           const Collection& collection,
                                           double t, ThreadPool& threads,
                                           int num_shards);

/// The measurement above split into pipeline stages, so the pipelined
/// crawl loop can fuse the per-shard oracle walks into the engine's
/// fetch workers (batch B-1's freshness evaluation riding batch B's
/// pool dispatch) instead of paying a separate parallel pass:
///
///   1. Prepare (serial): bucket entry pointers by site. Entry
///      pointers must stay stable until Finish — i.e. the collection
///      must not be mutated, which holds between a batch's plan and
///      its apply barrier.
///   2. RunShard(s) (one call per shard, concurrently from the worker
///      that owns shard s): oracle-walks sites ≡ s (mod num_shards).
///      Because a site's measure runs *before* that same worker's
///      fetches, every page's observation times stay non-decreasing
///      and partitioned exactly as in the unfused serial order.
///   3. Finish (serial): canonical ascending-site reduction.
///
/// The three stages compute bit-identically to MeasureCollectionSharded
/// — they *are* its implementation.
class StagedMeasure {
 public:
  /// Per-site accumulator; doubles are summed in (slot, incarnation)
  /// order within the site, so a site's partial is a pure function of
  /// its entries regardless of threading.
  struct SitePartial {
    std::size_t fresh = 0;
    std::size_t dead = 0;
    std::size_t stale_with_age = 0;
    double stale_age_sum = 0.0;
  };

  void Prepare(simweb::SimulatedWeb& web, const Collection& collection,
               double t, int num_shards);

  /// Walks shard `shard`'s sites. Touches only partials_[site] slots of
  /// its own sites and per-page web state of its own sites, so distinct
  /// shards may run concurrently.
  void RunShard(std::size_t shard);

  /// Runs every not-yet-run shard serially, reduces, and resets to the
  /// unprepared state.
  CollectionQuality Finish();

  int num_shards() const { return static_cast<int>(shards_); }

 private:
  simweb::SimulatedWeb* web_ = nullptr;
  double t_ = 0.0;
  std::size_t shards_ = 1;
  std::size_t size_ = 0;
  std::size_t foreign_ = 0;  // entries from outside this web: never fresh
  bool prepared_ = false;
  std::vector<std::vector<const CollectionEntry*>> by_site_;
  std::vector<SitePartial> partials_;
  std::vector<uint8_t> shard_done_;
};

}  // namespace webevo::crawler

#endif  // WEBEVO_CRAWLER_EVAL_H_
