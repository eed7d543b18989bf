#include "crawler/sharded_crawl_engine.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <utility>

namespace webevo::crawler {

double SecondsSince(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
      .count();
}

ShardedCrawlEngine::ShardedCrawlEngine(simweb::SimulatedWeb* web,
                                       const CrawlModuleConfig& config,
                                       int num_shards)
    : web_(web),
      pool_(web, config, num_shards),
      threads_(pool_.parallelism()) {}

bool ShardedCrawlEngine::PublishView(
    std::unique_ptr<const serving::BatchView> view) {
  if (in_batch_ || view == nullptr) return false;
  auto publish_begin = std::chrono::steady_clock::now();
  views_.Publish(std::move(view));
  ++stats_.views_published;
  stats_.publish_seconds.Add(SecondsSince(publish_begin));
  return true;
}

std::vector<StatusOr<simweb::FetchResult>> ShardedCrawlEngine::ExecuteBatch(
    const std::vector<PlannedFetch>& batch,
    std::vector<double>* retry_at, const StageHook& before_fetch) {
  if (retry_at != nullptr) retry_at->assign(batch.size(), 0.0);
  // Hooks fuse into fetch workers, so they need a batch to ride on;
  // callers run their stages inline when the plan came up empty.
  if (batch.empty()) return {};
  auto batch_begin = std::chrono::steady_clock::now();
  in_batch_ = true;

  const auto shards = static_cast<std::size_t>(num_shards());
  std::vector<std::vector<std::size_t>> by_shard(shards);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    by_shard[pool_.ShardOf(batch[i].url.site)].push_back(i);
  }

  // Slot times may interleave across shards, so the web must accept
  // non-monotonic fetch times down to the batch's earliest slot.
  double floor = batch.front().at;
  for (const PlannedFetch& planned : batch) {
    floor = std::min(floor, planned.at);
  }

  // Each outcome is written in place by the worker of its site's shard,
  // so the placeholder (StatusOr has no empty state) never survives.
  std::vector<StatusOr<simweb::FetchResult>> out(
      batch.size(), Status::Unavailable("not fetched"));

  web_->BeginConcurrentBatch(floor);
  std::vector<RunningStat> shard_latency(shards);
  std::vector<double> measure_overlap(shards, 0.0);
  // Each fetch's resolve seconds, written by its shard's worker only.
  std::vector<double> resolve_seconds(batch.size(), 0.0);
  auto run_shard = [&](std::size_t shard,
                       const std::vector<std::size_t>& indices,
                       RunningStat& latency) {
    if (before_fetch) {
      // Fused stage: batch B-1's deferred measure walks this shard's
      // sites *before* any of the shard's batch-B fetches, preserving
      // each page's observation order.
      auto hook_begin = std::chrono::steady_clock::now();
      before_fetch(shard);
      measure_overlap[shard] = SecondsSince(hook_begin);
    }
    std::vector<simweb::FetchResult*> bodies;
    bodies.reserve(indices.size());
    for (std::size_t i : indices) {
      auto begin = std::chrono::steady_clock::now();
      out[i] = pool_.Crawl(batch[i].url, batch[i].at);
      if (out[i].ok()) bodies.push_back(&*out[i]);
      if (retry_at != nullptr) {
        // Captured right after the attempt, inside the site's owning
        // shard: the same value at every shard count, because only
        // this shard's plan-ordered fetches touch the site's
        // politeness state.
        (*retry_at)[i] = pool_.NextAllowedTime(batch[i].url.site);
      }
      resolve_seconds[i] = SecondsSince(begin);
    }
    // The resolves took the site locks in plan order; the digests are
    // pure, so the shard digests all its bodies in one call, in lanes.
    // A fetch's latency is its resolve plus its share of that call.
    auto digest_begin = std::chrono::steady_clock::now();
    web_->DigestBodies(bodies);
    const double digest_seconds = SecondsSince(digest_begin);
    for (std::size_t i : indices) {
      double seconds = resolve_seconds[i];
      if (out[i].ok()) {
        seconds += digest_seconds / static_cast<double>(bodies.size());
      }
      latency.Add(seconds);
    }
  };
  // Shards with planned fetches — or every shard when the stage hook
  // is set (a shard with nothing to fetch can still owe a measure
  // walk).
  std::vector<std::size_t> busy_shards;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    if (before_fetch || !by_shard[shard].empty()) {
      busy_shards.push_back(shard);
    }
  }
  if (busy_shards.size() <= 1) {
    // Single active shard (always true at parallelism 1): skip the
    // thread handoff and run inline — same code path, same results.
    for (std::size_t shard : busy_shards) {
      run_shard(shard, by_shard[shard], shard_latency[shard]);
    }
  } else {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(busy_shards.size());
    for (std::size_t shard : busy_shards) {
      tasks.push_back([&run_shard, shard, indices = &by_shard[shard],
                       latency = &shard_latency[shard]] {
        run_shard(shard, *indices, *latency);
      });
    }
    threads_.RunAndWait(std::move(tasks));
  }
  web_->EndConcurrentBatch();

  // Barrier-point accounting, merged in shard index order (not
  // completion order) so the numbers are reproducible.
  ++stats_.batches;
  stats_.fetches += batch.size();
  stats_.batch_fetches.Add(static_cast<double>(batch.size()));
  std::size_t busiest = 0;
  for (const auto& indices : by_shard) {
    busiest = std::max(busiest, indices.size());
  }
  stats_.busiest_shard_fetches.Add(static_cast<double>(busiest));
  for (const RunningStat& latency : shard_latency) {
    stats_.fetch_latency_seconds.Merge(latency);
  }
  stats_.fetch_seconds.Add(SecondsSince(batch_begin));
  if (before_fetch) {
    ++stats_.pipelined_batches;
    for (double seconds : measure_overlap) {
      stats_.measure_overlap_seconds.Add(seconds);
    }
  }

  in_batch_ = false;
  return out;
}

}  // namespace webevo::crawler
