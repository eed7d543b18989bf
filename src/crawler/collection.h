#ifndef WEBEVO_CRAWLER_COLLECTION_H_
#define WEBEVO_CRAWLER_COLLECTION_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "simweb/page.h"
#include "simweb/url.h"
#include "storage/record_store.h"
#include "util/hash.h"
#include "util/status.h"

namespace webevo::crawler {

/// One stored page copy in the local collection, carrying exactly what
/// the paper's architecture needs: the checksum the UpdateModule
/// compares across crawls, the link structure the RankingModule scans,
/// and the importance score it maintains.
struct CollectionEntry {
  simweb::Url url;
  /// Ground-truth page identity from the fetch; used only by oracle
  /// evaluation and tests, never by crawl policy.
  simweb::PageId page = simweb::kInvalidPage;
  /// Content version at crawl time (oracle evaluation only).
  uint64_t version = 0;
  Checksum128 checksum;
  double crawled_at = 0.0;
  double importance = 0.0;
  /// Out-links extracted at crawl time.
  std::vector<simweb::Url> links;
};

/// The one definition of "a is a better eviction victim than b":
/// lower importance, ties broken by smaller URL identity. A total
/// order, so the victims are the same pure function of the stored
/// entries at every shard count and backend layout.
bool BetterEvictionVictim(const CollectionEntry& a,
                          const CollectionEntry& b);

/// A bounded page store with in-place updates — the `Collection` box of
/// Figure 12. The fixed capacity models the paper's fixed-size local
/// collection (Section 5.2, Algorithm 5.1): inserting a new page into a
/// full collection fails, forcing the caller to make a refinement
/// decision (discard something) first.
///
/// Internally partitioned into `num_shards` record stores (memory or
/// paged — see storage::StoreOptions) under one global capacity, sites
/// owned by store `site % N` (the engine's ownership rule), as AllUrls
/// is. Remove, Find, FindMutable, Contains and InsertUnchecked touch
/// only the owning store, so concurrent calls are safe exactly when
/// callers partition their work by ShardOf — the incremental crawler's
/// apply passes do. Everything else (Upsert, size, full, the walks and
/// victim selections) reads every store and belongs to serial code.
/// The results are identical at every shard count; only the
/// (unspecified) ForEach visit order differs.
///
/// Pointer-returning lookups keep the store's contract: results stay
/// valid until the next mutating call on the owning store
/// (Upsert/InsertUnchecked/Remove/Clear/Flush).
class Collection {
 public:
  using Store = storage::RecordStore<CollectionEntry>;

  /// Creates `num_shards` stores (>= 1; clamped) on the memory backend.
  explicit Collection(std::size_t capacity, int num_shards = 1)
      : Collection(capacity, num_shards, storage::StoreOptions{},
                   "collection") {}

  /// Backend-selecting constructor; `name` seeds the paged backend's
  /// scratch-file names (one per store).
  Collection(std::size_t capacity, int num_shards,
             const storage::StoreOptions& options, const std::string& name);

  /// Inserts a new entry or updates the existing one in place.
  /// Returns ResourceExhausted if the entry is new and the collection
  /// is at capacity.
  Status Upsert(CollectionEntry entry);

  /// Upsert without the capacity bound — the lease-apply pass's
  /// overdraft primitive. A shard inserting against its capacity lease
  /// may overdraw the collection (by at most its batch slot count);
  /// the caller settles the bound afterwards by evicting
  /// OverdraftVictims().
  void InsertUnchecked(CollectionEntry entry);

  /// Removes an entry; NotFound if absent.
  Status Remove(const simweb::Url& url);

  /// Looks up an entry; nullptr if absent. The pointer is invalidated
  /// by the next mutating call on the owning store.
  const CollectionEntry* Find(const simweb::Url& url) const {
    return shards_[ShardOf(url.site)]->Find(url);
  }
  CollectionEntry* FindMutable(const simweb::Url& url) {
    return shards_[ShardOf(url.site)]->FindMutable(url);
  }

  bool Contains(const simweb::Url& url) const {
    return shards_[ShardOf(url.site)]->Contains(url);
  }

  /// The sum over the stores.
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  bool full() const { return size() >= capacity_; }

  /// Applies `fn` to every entry, store-major (unspecified order
  /// within a store). Use ForEachCanonical when the visit order is
  /// observable.
  void ForEach(const std::function<void(const CollectionEntry&)>& fn) const;

  /// Applies `fn` to every entry in ascending (site, slot, incarnation)
  /// order — independent of shard count and store layout, for
  /// snapshots, views and walks whose output depends on the order.
  void ForEachCanonical(
      const std::function<void(const CollectionEntry&)>& fn) const;

  /// Entry with the lowest importance, ties broken by smallest URL
  /// identity (nullptr if empty) — the default victim of the refinement
  /// decision.
  const CollectionEntry* LowestImportance() const;

  /// The canonical eviction settle for a capacity overdraft: the
  /// size() - capacity() best eviction victims, best first (none when
  /// the collection is within capacity). Removes nothing — the caller
  /// also owns the frontier and update-module cleanup per victim.
  std::vector<simweb::Url> OverdraftVictims() const;

  void Clear();

  /// Barrier hook: compacts mutated records into pages and trims the
  /// paged backend's decoded-record overlay (no-op on the memory
  /// backend). Invalidates outstanding entry pointers.
  void Flush();

  /// Dirty-key tracking for incremental checkpoints: enables tracking
  /// on every store; AppendDirty merges the per-store dirty sets into
  /// `out` (already canonical — std::set union). The merged set is a
  /// pure function of the logical mutations and thus identical at
  /// every N.
  void EnableDirtyTracking();
  void AppendDirty(Store::DirtySet* out) const;
  void ClearDirty();

  int num_shards() const { return static_cast<int>(shards_.size()); }
  std::size_t ShardOf(uint32_t site) const { return site % shards_.size(); }

  /// One store, for its observability counters.
  const Store& shard(std::size_t i) const { return *shards_[i]; }

 private:
  std::size_t capacity_;
  std::vector<std::unique_ptr<Store>> shards_;
};

}  // namespace webevo::crawler

#endif  // WEBEVO_CRAWLER_COLLECTION_H_
