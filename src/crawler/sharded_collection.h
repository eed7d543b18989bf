#ifndef WEBEVO_CRAWLER_SHARDED_COLLECTION_H_
#define WEBEVO_CRAWLER_SHARDED_COLLECTION_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "crawler/collection.h"
#include "simweb/url.h"
#include "util/status.h"

namespace webevo::crawler {

/// A Collection partitioned into N shard-local stores, sites owned by
/// shard `site % N` — the same ownership mapping the ShardedCrawlEngine
/// fetches under and the ShardedFrontier schedules under. This is what
/// lets the apply phase run shard-parallel: during a batch's shard-local
/// pass each worker mutates only `shard(s)` (in-place updates, dead-page
/// removals), while every cross-shard effect — inserts against the
/// *global* capacity, eviction of the *globally* least important entry —
/// is applied serially at the batch barrier.
///
/// Behavioural contract: shard count is invisible. The capacity is
/// global (a shard may hold any fraction of it), `size()` is the sum
/// over shards, and `LowestImportance()` breaks importance ties by URL
/// identity (site, slot, incarnation) rather than map order, so the
/// eviction victim is a pure function of the stored entries at every N.
class ShardedCollection {
 public:
  /// Creates `num_shards` shard stores (>= 1; clamped) sharing one
  /// global `capacity`, on the default memory backend.
  ShardedCollection(std::size_t capacity, int num_shards)
      : ShardedCollection(capacity, num_shards, storage::StoreOptions{}) {}

  /// Backend-selecting constructor (see storage::StoreOptions): every
  /// shard store uses `options`' backend.
  ShardedCollection(std::size_t capacity, int num_shards,
                    const storage::StoreOptions& options);

  /// Inserts a new entry or updates the existing one in place. Returns
  /// ResourceExhausted if the entry is new and the *global* size is at
  /// capacity. Serial-phase only (routes through global state).
  Status Upsert(CollectionEntry entry);

  /// Overdraft insert into shard `s` (which must own the entry's
  /// site): the lease-apply pass's primitive. The global capacity is
  /// deliberately *not* checked — a shard holding a capacity lease may
  /// overdraw by up to its batch slot count, and SettleOverdraft
  /// restores the bound at the barrier. Safe to call concurrently for
  /// distinct shards; the cached global size goes stale until
  /// ReconcileSize().
  void InsertOverdraft(std::size_t s, CollectionEntry entry) {
    shards_[s].UpsertUnchecked(std::move(entry));
  }

  /// The canonical eviction settle for a batch's overdraft: selects
  /// the size() - capacity() globally best eviction victims — each
  /// shard nominates its own candidates, the nominations merge in
  /// BetterEvictionVictim order (importance, then URL identity), a
  /// pure function of the stored entries at every shard count.
  /// Requires ReconcileSize() first; returns the victims best-first
  /// *without* removing them (the caller also owns frontier/update-
  /// module cleanup per victim).
  std::vector<simweb::Url> CollectOverdraftVictims();

  /// Removes an entry; NotFound if absent.
  Status Remove(const simweb::Url& url);

  /// Looks up an entry; nullptr if absent. Invalidated by mutations.
  const CollectionEntry* Find(const simweb::Url& url) const;
  CollectionEntry* FindMutable(const simweb::Url& url);

  bool Contains(const simweb::Url& url) const {
    return shards_[ShardOf(url.site)].Contains(url);
  }

  /// O(1): the count is cached across Upsert/Remove/Clear. After
  /// mutating shard stores directly (the apply shard pass), call
  /// ReconcileSize() before reading any global state.
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool full() const { return size() >= capacity_; }

  /// Recomputes the cached count from the shard stores — the serial
  /// re-sync after a phase of direct shard(s) mutations.
  void ReconcileSize();

  /// Applies `fn` to every entry, shard-major (unspecified order within
  /// a shard). Use ForEachCanonical when the visit order is observable.
  void ForEach(const std::function<void(const CollectionEntry&)>& fn) const;

  /// Applies `fn` to every entry in ascending (site, slot, incarnation)
  /// order — independent of shard count and hash-map layout, for
  /// snapshots and ranking walks whose output depends on the order.
  void ForEachCanonical(
      const std::function<void(const CollectionEntry&)>& fn) const;

  /// Entry with the lowest importance, ties broken by smallest URL
  /// identity (nullptr if empty) — the deterministic eviction victim.
  const CollectionEntry* LowestImportance() const;

  void Clear();

  int num_shards() const { return static_cast<int>(shards_.size()); }
  std::size_t ShardOf(uint32_t site) const { return site % shards_.size(); }

  /// Shard-local store, for the parallel apply pass: during that pass a
  /// worker may only touch the shards it owns, and only through
  /// in-place updates and removals (never inserts, which are gated on
  /// the global capacity and belong to the barrier).
  Collection& shard(std::size_t i) { return shards_[i]; }
  const Collection& shard(std::size_t i) const { return shards_[i]; }

  /// Barrier hook: per-shard store compaction (paged backend; no-op on
  /// memory). Invalidates outstanding entry pointers.
  void Flush();

  /// Dirty-key tracking for incremental checkpoints: per-shard sets,
  /// merged canonically by AppendDirty. The merged set is a pure
  /// function of the logical mutations and thus identical at every N.
  void EnableDirtyTracking();
  void AppendDirty(storage::RecordStore<CollectionEntry>::DirtySet* out)
      const;
  void ClearDirty();

 private:
  std::size_t capacity_;
  std::size_t size_ = 0;
  std::vector<Collection> shards_;
};

}  // namespace webevo::crawler

#endif  // WEBEVO_CRAWLER_SHARDED_COLLECTION_H_
