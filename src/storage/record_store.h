#ifndef WEBEVO_STORAGE_RECORD_STORE_H_
#define WEBEVO_STORAGE_RECORD_STORE_H_

#include <cstddef>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

#include "simweb/url.h"

namespace webevo::storage {

/// How a RecordStore keeps its records.
struct StoreOptions {
  enum class Backend {
    /// Flat in-memory hash map — the historical behaviour, and the
    /// default. Behaviour-preserving: a store built with kMemory is
    /// bit-identical to the pre-storage-layer code paths.
    kMemory,
    /// Paged, slotted-page disk store: encoded records live in
    /// fixed-size pages of a per-store scratch file, an in-memory
    /// canonical index maps URL -> page location, and an LRU page
    /// cache with dirty accounting bounds resident page bytes. See
    /// docs/STORAGE.md.
    kPaged,
  };
  Backend backend = Backend::kMemory;
  /// Directory for the paged backend's page files ("." when empty).
  std::string dir;
  /// Page size in bytes (paged backend).
  std::size_t page_bytes = 8192;
  /// LRU page-cache capacity, in pages (paged backend).
  std::size_t cache_pages = 256;
  /// Decoded-record overlay: how many *clean* materialised records a
  /// paged store keeps across Flush() calls (dirty records are always
  /// kept until compacted).
  std::size_t overlay_entries = 4096;
};

/// Observability counters for a store (all zero on the memory backend).
struct StoreStats {
  std::size_t pages = 0;             ///< allocated pages
  std::size_t cached_pages = 0;      ///< pages resident in the LRU cache
  std::size_t overlay_records = 0;   ///< decoded records materialised
  std::size_t dirty_records = 0;     ///< records awaiting Flush
  std::size_t page_evictions = 0;    ///< cache evictions (write-backs)
  std::size_t page_reads = 0;        ///< pages faulted in from disk
  std::size_t page_compactions = 0;  ///< in-place page compactions
};

/// A keyed record store — the storage abstraction between the crawler's
/// state structures (Collection, AllUrls) and how their records are
/// kept. Two backends share this interface: MapRecordStore (the
/// historical unordered_map) and PagedRecordStore (slotted pages on
/// disk behind an LRU cache).
///
/// Reference contract (both backends): pointers returned by Put, Find
/// and FindMutable, and references passed to ForEach callbacks, stay
/// valid until the next *mutating* call on the store (Put, Erase,
/// Clear, Flush) — exactly the node stability unordered_map gave the
/// pre-storage-layer code.
///
/// Dirty-key tracking: with EnableDirtyTracking(), every Put, Erase
/// and FindMutable records the touched key into a canonical
/// (site, slot, incarnation)-ordered set, which the incremental
/// checkpoint drains into per-batch delta records. The tracked *set*
/// is a pure function of the logical mutations, so it is identical at
/// every shard count. Clear() marks nothing: a record delta cannot
/// express a wholesale clear, so the one caller that clears a tracked
/// store, a checkpoint restore, also drops the marks and makes the next
/// checkpoint rebase.
template <typename Record>
class RecordStore {
 public:
  using ForEachFn =
      std::function<void(const simweb::Url&, const Record&)>;
  using DirtySet = std::set<simweb::Url, simweb::UrlIdentityLess>;

  virtual ~RecordStore() = default;

  /// Inserts or replaces the record; returns a pointer to the stored
  /// copy (stable until the next mutating call).
  virtual Record* Put(const simweb::Url& url, Record&& record) = 0;

  /// Removes a record; false if absent.
  virtual bool Erase(const simweb::Url& url) = 0;

  virtual const Record* Find(const simweb::Url& url) const = 0;

  /// Find for mutation-in-place; marks the key dirty (the caller is
  /// assumed to write through the pointer).
  virtual Record* FindMutable(const simweb::Url& url) = 0;

  virtual bool Contains(const simweb::Url& url) const = 0;
  virtual std::size_t size() const = 0;
  virtual void Clear() = 0;

  /// Barrier hook: writes the records mutated since the last Flush back
  /// to their pages and trims the decoded-record overlay (paged backend;
  /// no-op on memory).
  /// Invalidates outstanding record pointers.
  virtual void Flush() {}

  /// Visits every record in unspecified order.
  virtual void ForEach(const ForEachFn& fn) const = 0;

  virtual StoreStats store_stats() const { return {}; }

  void EnableDirtyTracking() { tracking_ = true; }
  const DirtySet& dirty() const { return dirty_; }
  void ClearDirty() { dirty_.clear(); }

 protected:
  void MarkDirty(const simweb::Url& url) {
    if (tracking_) dirty_.insert(url);
  }

 private:
  bool tracking_ = false;
  DirtySet dirty_;
};

/// The historical in-memory backend: an unordered_map with the
/// interface's reference contract for free.
template <typename Record>
class MapRecordStore final : public RecordStore<Record> {
 public:
  using typename RecordStore<Record>::ForEachFn;

  Record* Put(const simweb::Url& url, Record&& record) override {
    this->MarkDirty(url);
    auto [it, inserted] = map_.insert_or_assign(url, std::move(record));
    (void)inserted;
    return &it->second;
  }

  bool Erase(const simweb::Url& url) override {
    if (map_.erase(url) == 0) return false;
    this->MarkDirty(url);
    return true;
  }

  const Record* Find(const simweb::Url& url) const override {
    auto it = map_.find(url);
    return it == map_.end() ? nullptr : &it->second;
  }

  Record* FindMutable(const simweb::Url& url) override {
    auto it = map_.find(url);
    if (it == map_.end()) return nullptr;
    this->MarkDirty(url);
    return &it->second;
  }

  bool Contains(const simweb::Url& url) const override {
    return map_.count(url) > 0;
  }

  std::size_t size() const override { return map_.size(); }

  void Clear() override { map_.clear(); }

  void ForEach(const ForEachFn& fn) const override {
    for (const auto& [url, record] : map_) fn(url, record);
  }

 private:
  std::unordered_map<simweb::Url, Record, simweb::UrlHash> map_;
};

}  // namespace webevo::storage

#endif  // WEBEVO_STORAGE_RECORD_STORE_H_
