#include "crawler/periodic_crawler.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "crawler/admission_lease.h"
#include "crawler/snapshot.h"
#include "serving/view_builder.h"

namespace webevo::crawler {

PeriodicCrawler::PeriodicCrawler(simweb::SimulatedWeb* web,
                                 const PeriodicCrawlerConfig& config)
    : web_(web),
      config_(config),
      store_(config.collection_capacity, config.store),
      inplace_(config.collection_capacity, config.store, "periodic-inplace"),
      engine_(web, config.crawl, config.crawl_parallelism,
              config.retained_views) {
  seen_shards_.resize(static_cast<std::size_t>(engine_.num_shards()));
}

const Collection& PeriodicCrawler::current_collection() const {
  return config_.shadowing ? store_.current() : inplace_;
}

Collection& PeriodicCrawler::target_collection() {
  return config_.shadowing ? store_.shadow() : inplace_;
}

std::size_t PeriodicCrawler::SeenCount() const {
  std::size_t total = 0;
  for (const auto& shard : seen_shards_) total += shard.size();
  return total;
}

bool PeriodicCrawler::SeenInsert(const simweb::Url& url) {
  return seen_shards_[url.site % seen_shards_.size()].insert(url).second;
}

Status PeriodicCrawler::Bootstrap(double t) {
  if (bootstrapped_) {
    return Status::FailedPrecondition("already bootstrapped");
  }
  if (config_.cycle_days <= 0.0 || config_.crawl_window_days <= 0.0 ||
      config_.crawl_window_days > config_.cycle_days) {
    return Status::InvalidArgument("need 0 < window <= cycle");
  }
  now_ = t;
  next_sample_ = t;
  StartCycle(t);
  bootstrapped_ = true;
  return Status::Ok();
}

void PeriodicCrawler::StartCycle(double t) {
  cycle_start_ = t;
  cycle_active_ = true;
  stored_this_cycle_ = 0;
  frontier_.clear();
  for (auto& shard : seen_shards_) shard.clear();
  requeue_counts_.clear();
  for (uint32_t s = 0; s < web_->num_sites(); ++s) {
    simweb::Url root = web_->RootUrl(s);
    frontier_.push_back(root);
    SeenInsert(root);
  }
  if (!config_.shadowing) {
    // The paper's batch crawler updates *all pages in the collection*
    // each crawl: with in-place updates the existing entries join the
    // frontier, so vanished pages are re-fetched, detected dead, and
    // purged (a shadowed cycle rebuilds from scratch instead). The
    // entries join in canonical (site, slot, incarnation) order, never
    // hash-map order — map layout depends on insertion history, which
    // a checkpoint-restored collection does not share with the live
    // one, and the BFS seed order is observable in every fetch time
    // that follows.
    // Seeding is sharded over the engine pool: bucket members by
    // owning shard (site % N), then sort and seen-filter each bucket
    // on its own worker — each worker touches only its shard's
    // seen-set, and the site roots above already claimed their slots
    // serially. A canonical N-way merge then appends in exactly the
    // single globally sorted order (identity order never ties across
    // shards: same site -> same shard, and a collection holds each
    // URL at most once).
    const std::size_t shards = seen_shards_.size();
    std::vector<std::vector<simweb::Url>> members(shards);
    inplace_.ForEach([&](const CollectionEntry& entry) {
      members[entry.url.site % shards].push_back(entry.url);
    });
    std::vector<std::size_t> targets;
    for (std::size_t s = 0; s < shards; ++s) {
      if (!members[s].empty()) targets.push_back(s);
    }
    engine_.threads().RunForIndices(targets, [&](std::size_t s) {
      std::vector<simweb::Url>& urls = members[s];
      std::sort(urls.begin(), urls.end(), simweb::UrlIdentityLess{});
      std::size_t kept = 0;
      for (const simweb::Url& url : urls) {
        if (SeenInsert(url)) urls[kept++] = url;
      }
      urls.resize(kept);
    });
    std::vector<std::size_t> cursor(shards, 0);
    for (;;) {
      std::size_t best = shards;
      for (std::size_t s = 0; s < shards; ++s) {
        if (cursor[s] >= members[s].size()) continue;
        if (best == shards ||
            simweb::UrlIdentityLess{}(members[s][cursor[s]],
                                      members[best][cursor[best]])) {
          best = s;
        }
      }
      if (best == shards) break;
      frontier_.push_back(members[best][cursor[best]++]);
    }
  }
}

void PeriodicCrawler::FinishCycle() {
  if (!cycle_active_) return;
  cycle_active_ = false;
  ++cycles_completed_;
  if (config_.shadowing) {
    store_.Swap();
    ++stats_.swaps;
  }
}

void PeriodicCrawler::ApplyOutcome(
    const simweb::Url& url, StatusOr<simweb::FetchResult> result,
    const std::vector<uint8_t>* fresh_links) {
  ++stats_.crawls;
  if (!result.ok()) {
    const StatusCode code = result.status().code();
    if (code == StatusCode::kFailedPrecondition) {
      // Politeness rejection: the page is alive, this cycle just
      // skips it (the fixed-frequency crawler has no retry queue).
      // It must *not* be purged like a dead page.
      ++stats_.politeness_rejections;
      return;
    }
    if (code == StatusCode::kUnavailable ||
        code == StatusCode::kDeadlineExceeded) {
      // Classified failure: the page may be perfectly alive behind
      // the outage, so never purge. Bounded re-queue at the back of
      // the BFS frontier; past the limit the cycle gives up on the
      // URL (the next cycle starts fresh — the periodic crawler's
      // natural quarantine).
      ++stats_.fetch_failures;
      if (code == StatusCode::kUnavailable) {
        ++stats_.transient_errors;
      } else {
        ++stats_.timeout_errors;
      }
      engine_.RecordFetchFailures(1);
      uint32_t& requeues = requeue_counts_[url];
      if (requeues < config_.fault_requeue_limit) {
        ++requeues;
        ++stats_.failure_retries;
        frontier_.push_back(url);
      } else {
        ++stats_.failures_dropped;
      }
      return;
    }
    ++stats_.dead_fetches;
    // With in-place updates a page that vanished must also leave the
    // collection; a shadowed crawl simply never adds it.
    if (!config_.shadowing) {
      Status st = inplace_.Remove(url);
      (void)st;
    }
    return;
  }
  CollectionEntry entry;
  entry.url = url;
  entry.page = result->page;
  entry.version = result->version;
  entry.checksum = result->checksum;
  entry.crawled_at = now_;
  entry.links = result->links;
  Status st = target_collection().Upsert(std::move(entry));
  if (st.ok()) {
    ++stats_.pages_stored;
    ++stored_this_cycle_;
  }
  // Breadth-first expansion. The crawl loop stops once `capacity`
  // pages are stored; the frontier keeps a few extra discoveries so
  // that URLs dying between discovery and fetch do not leave the
  // collection under-filled (the 4x frontier-memory bound is the
  // lease budget the admission pass was gated by). The pass already
  // test-and-marked every link against its owning shard's seen-set in
  // slot order and the settle revoked any overdraft, so appending the
  // surviving winners here, still in slot order, reproduces the
  // serial capped expansion exactly.
  if (fresh_links == nullptr) return;  // batch discovered no links
  for (std::size_t j = 0; j < result->links.size(); ++j) {
    if ((*fresh_links)[j] != 0) frontier_.push_back(result->links[j]);
  }
}

Status PeriodicCrawler::RunUntil(double until) {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("call Bootstrap first");
  }
  const double rate = static_cast<double>(config_.collection_capacity) /
                      config_.crawl_window_days;
  const double step = 1.0 / rate;
  while (now_ < until) {
    // Pipelined measure stage: when a sample is due, bucket the
    // current collection now (cheap, serial) but defer the oracle
    // walks — if a batch follows this iteration they fuse into its
    // fetch workers; every other path settles them inline below.
    // The walk reads `current_collection()` through entry pointers, so
    // settlement always happens before any ApplyOutcome mutation and
    // before FinishCycle's swap.
    StagedMeasure staged_measure;
    double sample_time = 0.0;
    double measure_serial_seconds = 0.0;
    if (now_ >= next_sample_) {
      if (config_.pipeline) {
        auto measure_begin = std::chrono::steady_clock::now();
        sample_time = now_;
        staged_measure.Prepare(*web_, current_collection(), sample_time,
                               engine_.num_shards());
        measure_serial_seconds = SecondsSince(measure_begin);
      } else {
        tracker_.AddSample(now_, MeasureNow().freshness);
      }
      while (next_sample_ <= now_) {
        next_sample_ += config_.freshness_sample_interval_days;
      }
    }
    // Settles a deferred sample: runs whatever shards the fused hooks
    // did not cover (all of them on the non-batch paths) and records
    // the sample at its due time. No-op once settled.
    auto settle_measure = [&] {
      if (!staged_measure.prepared()) return;
      auto finish_begin = std::chrono::steady_clock::now();
      tracker_.AddSample(sample_time, staged_measure.Finish().freshness);
      engine_.RecordMeasureSeconds(measure_serial_seconds +
                                   SecondsSince(finish_begin));
    };

    double cycle_end = cycle_start_ + config_.cycle_days;
    double window_end = cycle_start_ + config_.crawl_window_days;

    if (cycle_active_) {
      if (stored_this_cycle_ >= config_.collection_capacity ||
          now_ >= window_end) {
        settle_measure();
        FinishCycle();
      } else {
        // Plan one engine batch: one frontier URL per crawl slot, at
        // most the remaining storage budget, bounded by the next
        // sample and the window end.
        const double horizon = std::min({next_sample_, window_end, until});
        const std::size_t budget = static_cast<std::size_t>(
            config_.collection_capacity - stored_this_cycle_);
        const double batch_start = now_;
        auto plan_begin = std::chrono::steady_clock::now();
        const auto shards = static_cast<uint32_t>(engine_.num_shards());
        std::vector<PlannedFetch> plan;
        double t = now_;
        while (t < horizon && plan.size() < budget && !frontier_.empty()) {
          // Stamp the owning shard once at plan time; the fetch and
          // apply passes reuse it instead of recomputing site % N.
          plan.push_back(PlannedFetch{frontier_.front(), t,
                                      frontier_.front().site % shards});
          frontier_.pop_front();
          t += step;
        }
        if (!plan.empty()) {
          engine_.RecordPlanSeconds(SecondsSince(plan_begin));
        }
        if (plan.empty()) {
          settle_measure();
          FinishCycle();  // frontier exhausted before the window closed
        } else {
          ShardedCrawlEngine::StageHook before_fetch;
          if (staged_measure.prepared()) {
            // Fuse the deferred measure into the fetch stage: each
            // shard walks its own sites' oracles before its fetches
            // (same shard -> same worker, so per-page observation
            // times stay non-decreasing), and shards with nothing to
            // fetch still get a visit for their measure walk.
            before_fetch = [&staged_measure](std::size_t s) {
              staged_measure.RunShard(s);
            };
          }
          std::vector<StatusOr<simweb::FetchResult>> outcomes =
              engine_.ExecuteBatch(plan, nullptr, before_fetch);
          // Settle batch B-1's sample before the apply stage touches
          // the collection the walk's entry pointers reference.
          settle_measure();
          auto apply_begin = std::chrono::steady_clock::now();

          // The shared capacity-lease admission pass: each shard
          // test-and-marks the links whose target site it owns
          // against its own seen-set, in slot order, gated by a lease
          // over the cycle's frozen frontier-memory budget (the 4x
          // cap minus the seen count, every shard's lease carrying
          // the full remainder as an optimistic ceiling). The serial
          // settle then revokes admissions past the budget in global
          // (slot, position) order — the capped serial expansion, bit
          // for bit, at every shard count.
          std::size_t total_links = 0;
          for (const auto& outcome : outcomes) {
            if (outcome.ok()) total_links += outcome->links.size();
          }
          std::vector<std::vector<uint8_t>> fresh;
          if (total_links > 0) {
            fresh.resize(plan.size());
            const std::size_t frontier_cap =
                4 * config_.collection_capacity;
            const std::size_t seen0 = SeenCount();
            const std::size_t lease_budget =
                frontier_cap > seen0 ? frontier_cap - seen0 : 0;
            // Bucket (outcome, link) pairs by the target site's shard
            // once — (slot, position) order within each bucket — so
            // each worker walks only its own links.
            struct LinkRef {
              uint32_t outcome;
              uint32_t link;
            };
            std::vector<std::vector<LinkRef>> buckets(
                seen_shards_.size());
            for (std::size_t i = 0; i < plan.size(); ++i) {
              if (!outcomes[i].ok()) continue;
              const auto& links = outcomes[i]->links;
              fresh[i].assign(links.size(), 0);
              for (std::size_t j = 0; j < links.size(); ++j) {
                buckets[links[j].site % seen_shards_.size()].push_back(
                    LinkRef{static_cast<uint32_t>(i),
                            static_cast<uint32_t>(j)});
              }
            }
            std::vector<std::size_t> targets;
            for (std::size_t t = 0; t < buckets.size(); ++t) {
              if (!buckets[t].empty()) targets.push_back(t);
            }
            std::vector<std::vector<AdmissionRef>> admitted(
                seen_shards_.size());
            std::vector<double> shard_seconds(seen_shards_.size(), 0.0);
            engine_.threads().RunForIndices(
                targets, [&](std::size_t target) {
                  auto begin = std::chrono::steady_clock::now();
                  std::size_t count = 0;
                  for (const LinkRef& ref : buckets[target]) {
                    if (count >= lease_budget) break;
                    const simweb::Url& link =
                        outcomes[ref.outcome]->links[ref.link];
                    if (seen_shards_[target].insert(link).second) {
                      fresh[ref.outcome][ref.link] = 1;
                      admitted[target].push_back(
                          AdmissionRef{ref.outcome, ref.link});
                      ++count;
                    }
                  }
                  shard_seconds[target] = SecondsSince(begin);
                });
            for (std::size_t t : targets) {
              engine_.RecordApplyShardSeconds(shard_seconds[t]);
            }
            std::size_t total_admitted = 0;
            for (const auto& a : admitted) total_admitted += a.size();
            std::vector<RevokedAdmission> revoked =
                SettleAdmissionLease(admitted, lease_budget);
            for (const RevokedAdmission& r : revoked) {
              const AdmissionRef& ref = admitted[r.shard][r.index];
              const simweb::Url& link =
                  outcomes[ref.slot]->links[ref.pos];
              seen_shards_[r.shard].erase(link);
              fresh[ref.slot][ref.pos] = 0;
            }
            engine_.RecordLeaseSettle(
                static_cast<double>(lease_budget),
                static_cast<double>(total_admitted - revoked.size()),
                static_cast<double>(revoked.size()), 0.0);
          }

          auto barrier_begin = std::chrono::steady_clock::now();
          uint64_t successes = 0;
          for (std::size_t i = 0; i < plan.size(); ++i) {
            now_ = plan[i].at;
            if (outcomes[i].ok()) ++successes;
            ApplyOutcome(plan[i].url, std::move(outcomes[i]),
                         total_links > 0 ? &fresh[i] : nullptr);
          }
          engine_.RecordApplyBarrierSeconds(SecondsSince(barrier_begin));
          engine_.RecordApplySeconds(SecondsSince(apply_begin));
          // Failed fetches refund their slots — the serial crawler
          // tried the next URL immediately — so the slot clock
          // advances only by the successful fetches (which consume a
          // slot even when the store is refused, e.g. a full in-place
          // collection, exactly like the serial crawler did).
          now_ = batch_start + static_cast<double>(successes) * step;
          // Barrier hook for the paged backend: compact mutated
          // records into pages (no-op on memory) while no entry
          // pointers are outstanding.
          target_collection().Flush();
          ++batches_completed_;
          if (config_.publish_view_every_batches > 0 &&
              batches_completed_ % config_.publish_view_every_batches ==
                  0) {
            // MVCC publish at the apply barrier; readers acquire the
            // new view lock-free while the next batch runs.
            PublishViewNow();
          }
          if (config_.checkpoint_every_batches > 0 &&
              batches_completed_ % config_.checkpoint_every_batches ==
                  0) {
            // Auto-checkpoint at the batch boundary (engine quiesced).
            CrawlerCheckpointOptions options;
            options.include_web = config_.checkpoint_include_web;
            options.module_traffic = config_.checkpoint_module_traffic;
            Status saved = SaveCrawlerToFile(
                *this, config_.checkpoint_path, options);
            if (!saved.ok()) return saved;
          }
          continue;
        }
      }
    }
    // Idle until the next cycle or housekeeping, whichever is earlier.
    settle_measure();  // no batch this iteration: run the walk inline
    double target = std::min(next_sample_, cycle_end);
    if (now_ >= cycle_end) {
      StartCycle(cycle_end);
      continue;
    }
    now_ = std::min(until, std::max(target, now_ + 1e-12));
  }
  return Status::Ok();
}

void PeriodicCrawler::PublishViewNow() {
  engine_.PublishView(serving::BuildBatchView(*this));
}

CollectionQuality PeriodicCrawler::MeasureNow() {
  auto measure_begin = std::chrono::steady_clock::now();
  CollectionQuality q =
      MeasureCollectionSharded(*web_, current_collection(), now_,
                               engine_.threads(), engine_.num_shards());
  engine_.RecordMeasureSeconds(SecondsSince(measure_begin));
  return q;
}

}  // namespace webevo::crawler
