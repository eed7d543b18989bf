#include "crawler/collection.h"

#include <algorithm>
#include <utility>

#include "crawler/store_codecs.h"
#include "storage/paged_record_store.h"

namespace webevo::crawler {

Collection::Collection(std::size_t capacity,
                       const storage::StoreOptions& options,
                       const std::string& name)
    : capacity_(capacity) {
  if (options.backend == storage::StoreOptions::Backend::kPaged) {
    store_ = std::make_unique<
        storage::PagedRecordStore<CollectionEntry, CollectionEntryCodec>>(
        options, name);
  } else {
    store_ = std::make_unique<storage::MapRecordStore<CollectionEntry>>();
  }
}

Status Collection::Upsert(CollectionEntry entry) {
  const simweb::Url url = entry.url;
  if (!store_->Contains(url)) {
    if (full()) {
      return Status::ResourceExhausted("collection at capacity");
    }
  }
  store_->Put(url, std::move(entry));
  return Status::Ok();
}

void Collection::UpsertUnchecked(CollectionEntry entry) {
  const simweb::Url url = entry.url;
  store_->Put(url, std::move(entry));
}

Status Collection::Remove(const simweb::Url& url) {
  if (!store_->Erase(url)) {
    return Status::NotFound("url not in collection");
  }
  return Status::Ok();
}

const CollectionEntry* Collection::Find(const simweb::Url& url) const {
  return store_->Find(url);
}

CollectionEntry* Collection::FindMutable(const simweb::Url& url) {
  return store_->FindMutable(url);
}

void Collection::ForEach(
    const std::function<void(const CollectionEntry&)>& fn) const {
  store_->ForEach(
      [&fn](const simweb::Url& url, const CollectionEntry& entry) {
        (void)url;
        fn(entry);
      });
}

void Collection::ForEachCanonical(
    const std::function<void(const CollectionEntry&)>& fn) const {
  store_->ForEachCanonical(
      [&fn](const simweb::Url& url, const CollectionEntry& entry) {
        (void)url;
        fn(entry);
      });
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

void Collection::LowestImportanceK(
    std::size_t k, std::vector<const CollectionEntry*>* out) const {
  if (k == 0) return;
  // Bounded selection: keep the k best victims seen so far as a heap
  // whose top is the *worst* of them, so each entry costs O(log k).
  auto worse = [](const CollectionEntry* a, const CollectionEntry* b) {
    return BetterEvictionVictim(*a, *b);  // heap top = worst victim
  };
  std::vector<const CollectionEntry*> best;
  best.reserve(k + 1);
  ForEach([&](const CollectionEntry& entry) {
    if (best.size() < k) {
      best.push_back(&entry);
      std::push_heap(best.begin(), best.end(), worse);
      return;
    }
    if (BetterEvictionVictim(entry, *best.front())) {
      std::pop_heap(best.begin(), best.end(), worse);
      best.back() = &entry;
      std::push_heap(best.begin(), best.end(), worse);
    }
  });
  std::sort(best.begin(), best.end(),
            [](const CollectionEntry* a, const CollectionEntry* b) {
              return BetterEvictionVictim(*a, *b);
            });
  out->insert(out->end(), best.begin(), best.end());
}

}  // namespace webevo::crawler
