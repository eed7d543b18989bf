#include "crawler/sharded_collection.h"

#include <algorithm>
#include <utility>

namespace webevo::crawler {
namespace {

constexpr simweb::UrlIdentityLess IdentityLess;

}  // namespace

ShardedCollection::ShardedCollection(std::size_t capacity, int num_shards,
                                     const storage::StoreOptions& options)
    : capacity_(capacity) {
  const auto shards =
      static_cast<std::size_t>(std::max(1, num_shards));
  // Each shard store carries the global capacity: site hashing may skew
  // arbitrarily, so the per-shard bound must never bind. The global
  // bound is enforced here in Upsert.
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.emplace_back(capacity, options,
                         "collection-shard" + std::to_string(s));
  }
}

Status ShardedCollection::Upsert(CollectionEntry entry) {
  Collection& owner = shards_[ShardOf(entry.url.site)];
  const bool existed = owner.Contains(entry.url);
  if (!existed && size_ >= capacity_) {
    return Status::ResourceExhausted("collection at capacity");
  }
  Status st = owner.Upsert(std::move(entry));
  if (st.ok() && !existed) ++size_;
  return st;
}

Status ShardedCollection::Remove(const simweb::Url& url) {
  Status st = shards_[ShardOf(url.site)].Remove(url);
  if (st.ok()) --size_;
  return st;
}

void ShardedCollection::ReconcileSize() {
  size_ = 0;
  for (const Collection& shard : shards_) size_ += shard.size();
}

const CollectionEntry* ShardedCollection::Find(
    const simweb::Url& url) const {
  return shards_[ShardOf(url.site)].Find(url);
}

CollectionEntry* ShardedCollection::FindMutable(const simweb::Url& url) {
  return shards_[ShardOf(url.site)].FindMutable(url);
}

void ShardedCollection::ForEach(
    const std::function<void(const CollectionEntry&)>& fn) const {
  for (const Collection& shard : shards_) shard.ForEach(fn);
}

void ShardedCollection::ForEachCanonical(
    const std::function<void(const CollectionEntry&)>& fn) const {
  std::vector<const CollectionEntry*> entries;
  entries.reserve(size());
  ForEach([&](const CollectionEntry& e) { entries.push_back(&e); });
  std::sort(entries.begin(), entries.end(),
            [](const CollectionEntry* a, const CollectionEntry* b) {
              return IdentityLess(a->url, b->url);
            });
  for (const CollectionEntry* e : entries) fn(*e);
}

std::vector<simweb::Url> ShardedCollection::CollectOverdraftVictims() {
  if (size_ <= capacity_) return {};
  const std::size_t needed = size_ - capacity_;
  // Each shard nominates its own `needed` best victims — enough that
  // the global best `needed` are always among the nominations.
  std::vector<std::vector<const CollectionEntry*>> nominated(
      shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].size() > 0) {
      shards_[s].LowestImportanceK(needed, &nominated[s]);
    }
  }
  // Canonical merge over the per-shard nomination heads.
  std::vector<std::size_t> next(shards_.size(), 0);
  std::vector<simweb::Url> victims;
  victims.reserve(needed);
  while (victims.size() < needed) {
    const CollectionEntry* best = nullptr;
    std::size_t best_shard = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (next[s] >= nominated[s].size()) continue;
      const CollectionEntry* head = nominated[s][next[s]];
      if (best == nullptr || BetterEvictionVictim(*head, *best)) {
        best = head;
        best_shard = s;
      }
    }
    if (best == nullptr) break;  // unreachable: size() > capacity()
    ++next[best_shard];
    victims.push_back(best->url);
  }
  return victims;
}

const CollectionEntry* ShardedCollection::LowestImportance() const {
  const CollectionEntry* lowest = nullptr;
  for (const Collection& shard : shards_) {
    const CollectionEntry* candidate = shard.LowestImportance();
    if (candidate == nullptr) continue;
    if (lowest == nullptr || BetterEvictionVictim(*candidate, *lowest)) {
      lowest = candidate;
    }
  }
  return lowest;
}

void ShardedCollection::Clear() {
  for (Collection& shard : shards_) shard.Clear();
  size_ = 0;
}

void ShardedCollection::Flush() {
  for (Collection& shard : shards_) shard.Flush();
}

void ShardedCollection::EnableDirtyTracking() {
  for (Collection& shard : shards_) shard.EnableDirtyTracking();
}

void ShardedCollection::AppendDirty(
    storage::RecordStore<CollectionEntry>::DirtySet* out) const {
  for (const Collection& shard : shards_) {
    out->insert(shard.dirty().begin(), shard.dirty().end());
  }
}

void ShardedCollection::ClearDirty() {
  for (Collection& shard : shards_) shard.ClearDirty();
}

}  // namespace webevo::crawler
