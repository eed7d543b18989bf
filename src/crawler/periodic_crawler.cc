#include "crawler/periodic_crawler.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "crawler/snapshot.h"
#include "serving/view_builder.h"

namespace webevo::crawler {
namespace {

// Failure handling: a transient error or timeout re-queues the URL at
// the back of the cycle's BFS frontier (a failed slot is refunded,
// like a dead fetch), at most this many times per URL per cycle; past
// the limit the URL is dropped *for this cycle only* — the next cycle
// starts from scratch anyway, which is the periodic crawler's natural
// quarantine. Unlike a dead fetch, a failure never purges an in-place
// entry: the page may be perfectly alive behind the outage.
constexpr uint32_t kFaultRequeueLimit = 3;

}  // namespace

PeriodicCrawler::PeriodicCrawler(simweb::SimulatedWeb* web,
                                 const PeriodicCrawlerConfig& config)
    : web_(web),
      config_(config),
      current_(config.collection_capacity, /*num_shards=*/1, config.store,
               "periodic-current"),
      engine_(web, config.crawl, config.crawl_parallelism) {
  if (config.shadowing) {
    shadow_.emplace(config.collection_capacity, /*num_shards=*/1,
                    config.store, "periodic-shadow");
  }
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
  seen_.clear();
  requeue_counts_.clear();
  for (uint32_t s = 0; s < web_->num_sites(); ++s) {
    simweb::Url root = web_->RootUrl(s);
    frontier_.push_back(root);
    seen_.insert(root);
  }
  if (!shadow_.has_value()) {
    // The paper's batch crawler updates *all pages in the collection*
    // each crawl: with in-place updates the existing entries join the
    // frontier after the roots, so vanished pages are re-fetched,
    // detected dead, and purged (a shadowed cycle rebuilds from scratch
    // instead). The entries join in canonical (site, slot, incarnation)
    // order, never hash-map order — map layout depends on insertion
    // history, which a checkpoint-restored collection does not share
    // with the live one, and the BFS seed order is observable in every
    // fetch time that follows.
    current_.ForEachCanonical([this](const CollectionEntry& entry) {
      if (seen_.insert(entry.url).second) frontier_.push_back(entry.url);
    });
  }
}

void PeriodicCrawler::FinishCycle() {
  if (!cycle_active_) return;
  cycle_active_ = false;
  ++cycles_completed_;
  if (shadow_.has_value()) {
    // The shadow becomes current; the old current, cleared, is the
    // next cycle's shadow. Each Collection keeps its own store (and,
    // under the paged backend, its page file and flushed pages).
    std::swap(current_, *shadow_);
    shadow_->Clear();
    ++swap_count_;
    ++stats_.swaps;
  }
}

void PeriodicCrawler::ApplyOutcome(const simweb::Url& url,
                                   StatusOr<simweb::FetchResult> result) {
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
      uint32_t& requeues = requeue_counts_[url];
      if (requeues < kFaultRequeueLimit) {
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
    if (!shadow_.has_value()) {
      Status st = current_.Remove(url);
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
  // collection under-filled, up to 4x capacity URLs seen per cycle.
  const std::size_t frontier_cap = 4 * config_.collection_capacity;
  for (const simweb::Url& link : result->links) {
    if (seen_.size() >= frontier_cap) break;
    if (seen_.insert(link).second) frontier_.push_back(link);
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
    if (now_ >= next_sample_) {
      tracker_.AddSample(now_, MeasureNow().freshness);
      while (next_sample_ <= now_) {
        next_sample_ += config_.freshness_sample_interval_days;
      }
    }

    double cycle_end = cycle_start_ + config_.cycle_days;
    double window_end = cycle_start_ + config_.crawl_window_days;

    if (cycle_active_) {
      if (stored_this_cycle_ >= config_.collection_capacity ||
          now_ >= window_end) {
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
        std::vector<PlannedFetch> plan;
        double t = now_;
        while (t < horizon && plan.size() < budget && !frontier_.empty()) {
          plan.push_back(PlannedFetch{frontier_.front(), t});
          frontier_.pop_front();
          t += step;
        }
        if (plan.empty()) {
          FinishCycle();  // frontier exhausted before the window closed
        } else {
          engine_.RecordPlanSeconds(SecondsSince(plan_begin));
          std::vector<StatusOr<simweb::FetchResult>> outcomes =
              engine_.ExecuteBatch(plan);
          auto apply_begin = std::chrono::steady_clock::now();
          uint64_t successes = 0;
          for (std::size_t i = 0; i < plan.size(); ++i) {
            now_ = plan[i].at;
            if (outcomes[i].ok()) ++successes;
            ApplyOutcome(plan[i].url, std::move(outcomes[i]));
          }
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

ledger::SummaryRows PeriodicCrawler::SummaryRows() const {
  ledger::SummaryRows rows;
  ledger::ForEachRow(stats_, [&](const ledger::Row& row, const uint64_t& n) {
    ledger::AppendShown(row, n, &rows);
    if (&n == &stats_.swaps) {
      ledger::AppendShown({"cycles_completed"},
                          static_cast<uint64_t>(cycles_completed_), &rows);
    }
  });
  return rows;
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
