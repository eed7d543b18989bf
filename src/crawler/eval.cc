#include "crawler/eval.h"

#include <algorithm>
#include <functional>
#include <vector>

namespace webevo::crawler {
namespace {

void MeasureSite(simweb::SimulatedWeb& web,
                 std::vector<const CollectionEntry*>& entries, double t,
                 StagedMeasure::SitePartial& partial) {
  std::sort(entries.begin(), entries.end(),
            [](const CollectionEntry* a, const CollectionEntry* b) {
              if (a->url.slot != b->url.slot) return a->url.slot < b->url.slot;
              return a->url.incarnation < b->url.incarnation;
            });
  for (const CollectionEntry* entry : entries) {
    auto version = web.OracleVersion(entry->url, t);
    if (!version.ok()) {
      ++partial.dead;  // a dead page can never be fresh
      continue;
    }
    if (*version == entry->version) {
      ++partial.fresh;
      continue;
    }
    auto changed_at = web.OracleLastChangeTime(entry->url, t);
    if (changed_at.ok()) {
      partial.stale_age_sum += t - *changed_at;
      ++partial.stale_with_age;
    }
  }
}

// Only size() and an (order-insensitive) ForEach are needed, since
// entries are re-bucketed by site before any order-dependent
// accumulation happens. One code path for the serial, pool-parallel,
// and pipelined (StagedMeasure driven externally) measurements, so
// they can never drift apart.
CollectionQuality MeasureImpl(simweb::SimulatedWeb& web,
                              const Collection& collection, double t,
                              ThreadPool* threads, int num_shards) {
  StagedMeasure staged;
  staged.Prepare(web, collection, t, num_shards);
  const auto shards = static_cast<std::size_t>(std::max(1, num_shards));
  if (threads != nullptr && shards > 1) {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(shards);
    for (std::size_t shard = 0; shard < shards; ++shard) {
      tasks.push_back([&staged, shard] { staged.RunShard(shard); });
    }
    threads->RunAndWait(std::move(tasks));
  }
  return staged.Finish();
}

}  // namespace

void StagedMeasure::Prepare(simweb::SimulatedWeb& web,
                            const Collection& collection, double t,
                            int num_shards) {
  web_ = &web;
  t_ = t;
  shards_ = static_cast<std::size_t>(std::max(1, num_shards));
  size_ = collection.size();
  foreign_ = 0;
  prepared_ = true;
  by_site_.assign(web.num_sites(), {});
  partials_.assign(by_site_.size(), SitePartial{});
  shard_done_.assign(shards_, 0);
  // Bucket entries by site (cheap pointer shuffling; the oracle walks
  // in RunShard are the expensive part).
  collection.ForEach([&](const CollectionEntry& entry) {
    if (entry.url.site < by_site_.size()) {
      by_site_[entry.url.site].push_back(&entry);
    } else {
      ++foreign_;
    }
  });
}

void StagedMeasure::RunShard(std::size_t shard) {
  if (!prepared_ || shard >= shards_ || shard_done_[shard]) return;
  shard_done_[shard] = 1;
  for (std::size_t site = shard; site < by_site_.size(); site += shards_) {
    if (by_site_[site].empty()) continue;
    MeasureSite(*web_, by_site_[site], t_, partials_[site]);
  }
}

CollectionQuality StagedMeasure::Finish() {
  CollectionQuality q;
  q.size = size_;
  if (!prepared_) return q;
  for (std::size_t shard = 0; shard < shards_; ++shard) RunShard(shard);

  // Canonical reduction: ascending site order, independent of the
  // site -> shard mapping, so every shard count sums in the same order.
  double stale_age_sum = 0.0;
  std::size_t stale_with_age = 0;
  q.dead += foreign_;
  for (const SitePartial& partial : partials_) {
    q.fresh += partial.fresh;
    q.dead += partial.dead;
    stale_age_sum += partial.stale_age_sum;
    stale_with_age += partial.stale_with_age;
  }
  if (q.size > 0) {
    q.freshness = static_cast<double>(q.fresh) / static_cast<double>(q.size);
  }
  if (stale_with_age > 0) {
    q.mean_stale_age_days =
        stale_age_sum / static_cast<double>(stale_with_age);
  }
  prepared_ = false;
  by_site_.clear();
  partials_.clear();
  shard_done_.clear();
  web_ = nullptr;
  return q;
}

CollectionQuality MeasureCollection(simweb::SimulatedWeb& web,
                                    const Collection& collection,
                                    double t) {
  return MeasureImpl(web, collection, t, nullptr, 1);
}

CollectionQuality MeasureCollectionSharded(simweb::SimulatedWeb& web,
                                           const Collection& collection,
                                           double t, ThreadPool& threads,
                                           int num_shards) {
  return MeasureImpl(web, collection, t, &threads, num_shards);
}

}  // namespace webevo::crawler
