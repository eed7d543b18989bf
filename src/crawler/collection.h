#ifndef WEBEVO_CRAWLER_COLLECTION_H_
#define WEBEVO_CRAWLER_COLLECTION_H_

#include <cstddef>
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
/// lower importance, ties broken by smaller URL identity. Shared by
/// Collection and ShardedCollection so the victim is the same pure
/// function of the stored entries at every shard count.
bool BetterEvictionVictim(const CollectionEntry& a,
                          const CollectionEntry& b);

/// A bounded page store with in-place updates — the `Collection` box of
/// Figure 12. The fixed capacity models the paper's fixed-size local
/// collection (Section 5.2, Algorithm 5.1): inserting a new page into a
/// full collection fails, forcing the caller to make a refinement
/// decision (discard something) first.
///
/// Since the storage-layer refactor the entries live behind a
/// storage::RecordStore — the in-memory map backend by default
/// (behaviour-preserving) or the paged disk backend when constructed
/// with StoreOptions{kPaged}. All pointer-returning lookups keep the
/// historical contract: results stay valid until the next mutating
/// call (Upsert/Remove/Clear/Flush).
class Collection {
 public:
  explicit Collection(std::size_t capacity)
      : Collection(capacity, storage::StoreOptions{}, "collection") {}

  /// Backend-selecting constructor; `name` seeds the paged backend's
  /// scratch-file name.
  Collection(std::size_t capacity, const storage::StoreOptions& options,
             const std::string& name);

  /// Inserts a new entry or updates the existing one in place.
  /// Returns ResourceExhausted if the entry is new and the collection
  /// is at capacity.
  Status Upsert(CollectionEntry entry);

  /// Upsert without the capacity bound — the sharded lease-apply's
  /// overdraft primitive. A shard inserting against its capacity lease
  /// may temporarily overdraw this store (by at most its batch slot
  /// count); the caller settles the global bound afterwards by
  /// evicting the canonical overdraft victims.
  void UpsertUnchecked(CollectionEntry entry);

  /// Removes an entry; NotFound if absent.
  Status Remove(const simweb::Url& url);

  /// Looks up an entry; nullptr if absent. The pointer is invalidated
  /// by the next mutating call.
  const CollectionEntry* Find(const simweb::Url& url) const;
  CollectionEntry* FindMutable(const simweb::Url& url);

  bool Contains(const simweb::Url& url) const {
    return store_->Contains(url);
  }

  std::size_t size() const { return store_->size(); }
  std::size_t capacity() const { return capacity_; }
  bool full() const { return size() >= capacity_; }

  /// Applies `fn` to every entry (unspecified order).
  void ForEach(const std::function<void(const CollectionEntry&)>& fn) const;

  /// Applies `fn` to every entry in ascending URL identity order.
  void ForEachCanonical(
      const std::function<void(const CollectionEntry&)>& fn) const;

  /// Entry with the lowest importance, ties broken by smallest URL
  /// identity (nullptr if empty) — the default victim of the refinement
  /// decision, deterministic regardless of backend layout.
  const CollectionEntry* LowestImportance() const;

  /// Appends this store's `k` best eviction victims to `out` in
  /// BetterEvictionVictim order (fewer if the store is smaller) — one
  /// shard's nomination list for the sharded collection's canonical
  /// cross-shard eviction settle. Deterministic regardless of backend
  /// layout (the victim order is total).
  void LowestImportanceK(std::size_t k,
                         std::vector<const CollectionEntry*>* out) const;

  void Clear() { store_->Clear(); }

  /// Barrier hook: compacts mutated records into pages and trims the
  /// paged backend's decoded-record overlay (no-op on the memory
  /// backend). Invalidates outstanding entry pointers.
  void Flush() { store_->Flush(); }

  /// Dirty-key tracking for incremental checkpoints (delegates to the
  /// store; see storage::RecordStore).
  void EnableDirtyTracking() { store_->EnableDirtyTracking(); }
  const storage::RecordStore<CollectionEntry>::DirtySet& dirty() const {
    return store_->dirty();
  }
  void ClearDirty() { store_->ClearDirty(); }

  storage::StoreStats store_stats() const { return store_->stats(); }

 private:
  std::size_t capacity_;
  std::unique_ptr<storage::RecordStore<CollectionEntry>> store_;
};

}  // namespace webevo::crawler

#endif  // WEBEVO_CRAWLER_COLLECTION_H_
