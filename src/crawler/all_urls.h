#ifndef WEBEVO_CRAWLER_ALL_URLS_H_
#define WEBEVO_CRAWLER_ALL_URLS_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "simweb/url.h"
#include "storage/record_store.h"
#include "util/hash.h"
#include "util/status.h"

namespace webevo::crawler {

/// The `AllUrls` structure of Figure 12: every URL the crawler has ever
/// discovered, with the metadata the RankingModule needs to estimate
/// the importance of pages *not* in the collection — the paper's
/// footnote 2: "even if a page p does not exist in the Collection, the
/// RankingModule can estimate PageRank of p based on how many pages in
/// the Collection have a link to p".
///
/// Internally partitioned into `num_shards` record stores (memory or
/// paged — see storage::StoreOptions), sites owned by shard `site % N`
/// (the engine's ownership rule). Concurrent mutation is safe exactly
/// when callers partition their work by `ShardOf` — the incremental
/// crawler's parallel link-noting pass does — since every operation
/// touches only the owning shard's store. The results are identical at
/// every shard count; only the (unspecified) ForEach visit order
/// differs.
class AllUrls {
 public:
  struct UrlInfo {
    double first_seen = 0.0;   ///< when the URL was first discovered
    uint64_t in_links = 0;     ///< links seen pointing at it
    bool dead = false;         ///< a crawl of it returned NotFound
  };

  using DirtySet = std::set<simweb::Url, simweb::UrlIdentityLess>;

  /// Creates `num_shards` shard stores (>= 1; clamped) on the memory
  /// backend.
  explicit AllUrls(int num_shards = 1)
      : AllUrls(num_shards, storage::StoreOptions{}, "allurls") {}

  /// Backend-selecting constructor; `name` seeds the paged backend's
  /// scratch-file names (one per shard).
  AllUrls(int num_shards, const storage::StoreOptions& options,
          const std::string& name);

  /// Registers a URL discovered at `time`. Returns true if it was new.
  bool Add(const simweb::Url& url, double time);

  /// Registers that some crawled page links to `url` (discovering it
  /// at `time` if new), and returns the updated record — the admission
  /// pass reads the dead flag off the same hash probe the note paid
  /// for, instead of a second Find. The reference is invalidated by
  /// any later mutation of the owning shard.
  const UrlInfo& NoteInLink(const simweb::Url& url, double time);

  /// Marks a URL dead after a failed crawl; dead URLs stay recorded so
  /// repeated discovery of a stale link does not resurrect them, but
  /// they are skipped by candidate scans.
  Status MarkDead(const simweb::Url& url);

  bool Contains(const simweb::Url& url) const {
    return shards_[ShardOf(url.site)]->Contains(url);
  }
  const UrlInfo* Find(const simweb::Url& url) const;

  std::size_t size() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  std::size_t ShardOf(uint32_t site) const { return site % shards_.size(); }

  /// One shard's store, for walks that visit the shards in parallel.
  const storage::RecordStore<UrlInfo>& shard(std::size_t i) const {
    return *shards_[i];
  }

  /// Iterates (url, info) pairs shard-major, in unspecified order
  /// within each shard. Callers whose output depends on the visit
  /// order must sort what they collect (the order varies with N).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& shard : shards_) {
      shard->ForEach(
          [&fn](const simweb::Url& url, const UrlInfo& info) {
            fn(url, info);
          });
    }
  }

  /// Content-fingerprint registry (mirror detection): the canonical URL
  /// that first served each page checksum. Mutated ONLY on the
  /// crawler's serial settle path, in global slot order, so the
  /// canonical winner is a pure function of the simulation — identical
  /// at every shard count. The registry is an observation ledger, not a
  /// policy: it fills whether or not the defense layer acts on it.
  ///
  /// Returns the canonical owner of `fp`, or nullptr when unclaimed.
  const simweb::Url* FingerprintOwner(const Checksum128& fp) const;
  /// Claims `fp` for `url` if unclaimed; returns true when `url` became
  /// the canonical owner (false leaves the standing owner in place).
  bool ClaimFingerprint(const Checksum128& fp, const simweb::Url& url);
  /// Re-homes `fp` onto `url` unconditionally (migration-following and
  /// checkpoint replay).
  void ReassignFingerprint(const Checksum128& fp, const simweb::Url& url);
  /// All (fingerprint, owner) pairs sorted by (hi, lo) — the canonical
  /// checkpoint order.
  std::vector<std::pair<Checksum128, simweb::Url>> SortedFingerprints()
      const;
  void ClearFingerprints() { fingerprints_.clear(); }

  /// Overwrites (or creates) a record verbatim — checkpoint restore.
  void Restore(const simweb::Url& url, const UrlInfo& info);

  /// Drops every record and the fingerprint registry, keeping the
  /// backend (a paged store keeps its page files) — the checkpoint
  /// load empties the live table before restoring into it.
  void Clear();

  /// Barrier hook (paged backend compaction; no-op on memory).
  void Flush();

  /// Dirty-key tracking for incremental checkpoints: enables tracking
  /// on every shard store; AppendDirty merges the per-shard dirty sets
  /// into `out` (already canonical — std::set union).
  void EnableDirtyTracking();
  void AppendDirty(DirtySet* out) const;
  void ClearDirty();

 private:
  std::vector<std::unique_ptr<storage::RecordStore<UrlInfo>>> shards_;
  /// The fingerprint registry is a single cross-site map precisely
  /// because mirrors span sites (and therefore shards); keeping it off
  /// the shard stores is safe because only the serial settle touches
  /// it.
  std::unordered_map<Checksum128, simweb::Url, Checksum128Hash>
      fingerprints_;
};

}  // namespace webevo::crawler

#endif  // WEBEVO_CRAWLER_ALL_URLS_H_
