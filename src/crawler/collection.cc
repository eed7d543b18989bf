#include "crawler/collection.h"

#include <algorithm>
#include <utility>

#include "crawler/store_codecs.h"
#include "storage/paged_record_store.h"

namespace webevo::crawler {

Collection::Collection(std::size_t capacity, int num_shards,
                       const storage::StoreOptions& options,
                       const std::string& name)
    : capacity_(capacity) {
  const std::size_t n = static_cast<std::size_t>(std::max(1, num_shards));
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (options.backend == storage::StoreOptions::Backend::kPaged) {
      shards_.push_back(
          std::make_unique<storage::PagedRecordStore<CollectionEntry,
                                                     CollectionEntryCodec>>(
              options, name + "-shard" + std::to_string(i)));
    } else {
      shards_.push_back(
          std::make_unique<storage::MapRecordStore<CollectionEntry>>());
    }
  }
}

Status Collection::Upsert(CollectionEntry entry) {
  if (!Contains(entry.url) && full()) {
    return Status::ResourceExhausted("collection at capacity");
  }
  InsertUnchecked(std::move(entry));
  return Status::Ok();
}

void Collection::InsertUnchecked(CollectionEntry entry) {
  const simweb::Url url = entry.url;
  shards_[ShardOf(url.site)]->Put(url, std::move(entry));
}

Status Collection::Remove(const simweb::Url& url) {
  if (!shards_[ShardOf(url.site)]->Erase(url)) {
    return Status::NotFound("url not in collection");
  }
  return Status::Ok();
}

std::size_t Collection::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->size();
  return total;
}

void Collection::ForEach(
    const std::function<void(const CollectionEntry&)>& fn) const {
  for (const auto& shard : shards_) {
    shard->ForEach([&fn](const simweb::Url&, const CollectionEntry& entry) {
      fn(entry);
    });
  }
}

void Collection::ForEachCanonical(
    const std::function<void(const CollectionEntry&)>& fn) const {
  std::vector<const CollectionEntry*> entries;
  entries.reserve(size());
  ForEach([&](const CollectionEntry& e) { entries.push_back(&e); });
  std::sort(entries.begin(), entries.end(),
            [](const CollectionEntry* a, const CollectionEntry* b) {
              return simweb::UrlIdentityLess{}(a->url, b->url);
            });
  for (const CollectionEntry* e : entries) fn(*e);
}

bool BetterEvictionVictim(const CollectionEntry& a,
                          const CollectionEntry& b) {
  if (a.importance != b.importance) return a.importance < b.importance;
  return simweb::UrlIdentityLess{}(a.url, b.url);
}

const CollectionEntry* Collection::LowestImportance() const {
  const CollectionEntry* lowest = nullptr;
  ForEach([&lowest](const CollectionEntry& entry) {
    if (lowest == nullptr || BetterEvictionVictim(entry, *lowest)) {
      lowest = &entry;
    }
  });
  return lowest;
}

std::vector<simweb::Url> Collection::OverdraftVictims() const {
  const std::size_t stored = size();
  if (stored <= capacity_) return {};
  const std::size_t needed = stored - capacity_;
  // Bounded selection: keep the `needed` best victims seen so far as a
  // heap whose top is the *worst* of them, so each entry costs
  // O(log needed).
  auto worse = [](const CollectionEntry* a, const CollectionEntry* b) {
    return BetterEvictionVictim(*a, *b);  // heap top = worst victim
  };
  std::vector<const CollectionEntry*> best;
  best.reserve(needed + 1);
  ForEach([&](const CollectionEntry& entry) {
    if (best.size() < needed) {
      best.push_back(&entry);
      std::push_heap(best.begin(), best.end(), worse);
    } else if (BetterEvictionVictim(entry, *best.front())) {
      std::pop_heap(best.begin(), best.end(), worse);
      best.back() = &entry;
      std::push_heap(best.begin(), best.end(), worse);
    }
  });
  std::sort(best.begin(), best.end(), worse);  // best victim first
  std::vector<simweb::Url> victims;
  victims.reserve(best.size());
  for (const CollectionEntry* e : best) victims.push_back(e->url);
  return victims;
}

void Collection::Clear() {
  for (auto& shard : shards_) shard->Clear();
}

void Collection::Flush() {
  for (auto& shard : shards_) shard->Flush();
}

void Collection::EnableDirtyTracking() {
  for (auto& shard : shards_) shard->EnableDirtyTracking();
}

void Collection::AppendDirty(Store::DirtySet* out) const {
  for (const auto& shard : shards_) {
    out->insert(shard->dirty().begin(), shard->dirty().end());
  }
}

void Collection::ClearDirty() {
  for (auto& shard : shards_) shard->ClearDirty();
}

}  // namespace webevo::crawler
