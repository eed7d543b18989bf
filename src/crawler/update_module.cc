#include "crawler/update_module.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "estimator/last_modified_estimator.h"
#include "freshness/revisit_optimizer.h"
#include "util/sorted_runs.h"
#include "util/thread_pool.h"

namespace webevo::crawler {
namespace {

// Estimates from fewer than this many observations lean on the prior.
constexpr int64_t kMinObservations = 2;

// Derives a site's probe-stream seed from the module seed. The odd
// multiplier (SplitMix64's increment) decorrelates neighbouring sites;
// Rng's own SplitMix64 seeding does the heavy scrambling.
uint64_t ProbeSeed(uint64_t seed, uint32_t site) {
  return seed ^ (0x9e3779b97f4a7c15ULL *
                 (static_cast<uint64_t>(site) + 1));
}

}  // namespace

const char* RevisitPolicyName(RevisitPolicy policy) {
  switch (policy) {
    case RevisitPolicy::kUniform:
      return "uniform";
    case RevisitPolicy::kProportional:
      return "proportional";
    case RevisitPolicy::kOptimal:
      return "optimal";
  }
  return "?";
}

StatusOr<RevisitPolicy> ParseRevisitPolicy(const std::string& name) {
  std::string valid;
  for (RevisitPolicy policy : {RevisitPolicy::kUniform,
                               RevisitPolicy::kProportional,
                               RevisitPolicy::kOptimal}) {
    if (name == RevisitPolicyName(policy)) return policy;
    valid += std::string(valid.empty() ? "" : ", ") + RevisitPolicyName(policy);
  }
  return Status::InvalidArgument("unknown revisit policy '" + name +
                                 "' (valid: " + valid + ")");
}

UpdateModule::UpdateModule(const UpdateModuleConfig& config)
    : config_(config) {
  const auto shards =
      static_cast<std::size_t>(std::max(1, config.num_shards));
  page_shards_.resize(shards);
  site_shards_.resize(shards);
  rng_shards_.resize(shards);
  visit_counts_.assign(shards, 0);
  failure_counts_.assign(shards, 0);
}

estimator::ChangeEstimator* UpdateModule::EstimatorFor(
    const simweb::Url& url, PageState& state) {
  if (!config_.site_level_stats) {
    if (!state.estimator) {
      state.estimator = estimator::MakeEstimator(config_.estimator_kind);
    }
    return state.estimator.get();
  }
  auto& slot = site_shards_[ShardOf(url.site)][url.site];
  if (!slot) slot = estimator::MakeEstimator(config_.estimator_kind);
  return slot.get();
}

const estimator::ChangeEstimator* UpdateModule::EstimatorFor(
    const simweb::Url& url, const PageState& state) const {
  if (!config_.site_level_stats) return state.estimator.get();
  const SiteMap& sites = site_shards_[ShardOf(url.site)];
  auto it = sites.find(url.site);
  return it == sites.end() ? nullptr : it->second.get();
}

Rng& UpdateModule::ProbeRng(uint32_t site) {
  auto& shard = rng_shards_[ShardOf(site)];
  auto it = shard.find(site);
  if (it == shard.end()) {
    it = shard.emplace(site, Rng(ProbeSeed(config_.seed, site))).first;
  }
  return it->second;
}

double UpdateModule::SchedulingRate(
    const estimator::ChangeEstimator* est) const {
  if (est == nullptr || est->observation_count() < kMinObservations) {
    return 1.0 / config_.default_interval_days;
  }
  return est->EstimatedRate();
}

double UpdateModule::FrequencyFor(double rate, double importance) const {
  // The budget-spreading fallbacks divide by the page count *frozen* at
  // the last serial refresh, never the live count: the live count moves
  // under concurrent first visits, the frozen one is the same pure
  // function of history at every shard count. Before the first refresh
  // (frozen count 0) there is no population information at all; the
  // scheduling prior stands in — granting the full budget to every
  // page of the first batch would flood the next batch with immediate
  // revisits.
  const double spread =
      frozen_page_count_ > 0
          ? config_.crawl_budget_pages_per_day /
                static_cast<double>(frozen_page_count_)
          : 1.0 / config_.default_interval_days;
  double f = 0.0;
  switch (config_.policy) {
    case RevisitPolicy::kUniform: {
      f = spread;
      break;
    }
    case RevisitPolicy::kProportional: {
      if (total_rate_ > 0.0) {
        f = config_.crawl_budget_pages_per_day *
            config_.budget_utilization * rate / total_rate_;
      } else {
        // Nothing rebalanced yet (or no changes seen): spread evenly.
        f = spread;
      }
      break;
    }
    case RevisitPolicy::kOptimal: {
      if (multiplier_ > 0.0) {
        f = freshness::RevisitOptimizer::FrequencyAtMultiplier(
            rate, multiplier_);
      } else {
        f = spread;
      }
      break;
    }
  }
  if (config_.importance_exponent > 0.0 && mean_importance_ > 0.0 &&
      importance > 0.0) {
    f *= std::pow(importance / mean_importance_,
                  config_.importance_exponent);
  }
  return f;
}

double UpdateModule::OnCrawled(const simweb::Url& url, double now,
                               bool changed, bool first_visit,
                               double quiet_days) {
  const std::size_t shard = ShardOf(url.site);
  ++visit_counts_[shard];
  if (dirty_tracking_) {
    dirty_page_shards_[shard].insert(url);
    // With site-level stats the visit record lands in the site
    // aggregate (created on first touch), so the site record moves
    // whenever the page record does.
    if (config_.site_level_stats) dirty_site_shards_[shard].insert(url.site);
  }
  PageState& state = page_shards_[shard][url];
  estimator::ChangeEstimator* est = EstimatorFor(url, state);
  if (!first_visit && state.visited && now > state.last_visit) {
    double interval = now - state.last_visit;
    auto* el = dynamic_cast<estimator::LastModifiedEstimator*>(est);
    if (el != nullptr && quiet_days >= 0.0) {
      el->RecordObservationWithTimestamp(interval, changed, quiet_days);
    } else {
      est->RecordObservation(interval, changed);
    }
  }
  state.last_visit = now;
  state.visited = true;

  double rate = SchedulingRate(est);
  double f = FrequencyFor(rate, state.importance);
  double interval =
      f > 0.0 ? 1.0 / f : config_.max_revisit_interval_days;
  interval = std::clamp(interval, config_.min_revisit_interval_days,
                        config_.max_revisit_interval_days);
  // Exploration, for every policy except the strictly fixed-frequency
  // uniform baseline. Guards against estimation lock-in: a page
  // misjudged as hopelessly fast is deferred to the maximum interval,
  // where every visit observes a change and could otherwise never clear
  // its name — the adaptive-recrawl analogue of Figure 1(a).
  //
  //  1. Abandonment verification (deterministic, stateful): whenever
  //     the policy abandons a page (f = 0), the *next* visit is an
  //     immediate probe well inside its estimated change interval.
  //     If the probe observes a change, the abandonment is confirmed
  //     and the page defers for a full max interval (a truly hopeless
  //     page thus alternates one cheap probe with one long deferral);
  //     if it observes no change, the estimate has already dropped and
  //     the verification repeats — a misjudged page climbs back within
  //     a few probes instead of being stuck forever.
  //  2. Random probes for scheduled pages, with probability growing in
  //     the scheduled interval (deferred pages get proportionally more
  //     scrutiny). The coin flips come from the site's own stream, so
  //     they depend only on the site's visit sequence.
  //
  // Probes only shorten the schedule, never delay it.
  if (config_.policy != RevisitPolicy::kUniform && !first_visit &&
      rate > 0.0) {
    double probe =
        std::max(0.25 / rate, config_.min_revisit_interval_days);
    if (f <= 0.0) {
      bool confirmed = state.probing_abandonment && changed;
      if (!confirmed) {
        interval = std::min(interval, probe);
        state.probing_abandonment = true;
      } else {
        // Confirmed hopeless: give it the longest leash the module
        // ever grants — twice the normal cap — so the probe+defer pair
        // stays a negligible share of the crawl budget.
        interval = 2.0 * config_.max_revisit_interval_days;
        state.probing_abandonment = false;
      }
    } else {
      state.probing_abandonment = false;
      // The coin flip advances the site's probe stream whichever way
      // it lands — the stream position is checkpointed state.
      if (dirty_tracking_) {
        dirty_rng_shards_[ShardOf(url.site)].insert(url.site);
      }
      if (ProbeRng(url.site).Bernoulli(config_.probe_probability)) {
        interval = std::min(interval, probe);
      }
    }
  }
  return now + interval;
}

void UpdateModule::OnFetchFailed(const simweb::Url& url, double now) {
  // Accounting only. No estimator record (an unreachable page carries
  // no change evidence), no last_visit update (the next success's
  // observation interval legitimately spans the outage), no state
  // creation for pages the module has never seen.
  (void)now;
  ++failure_counts_[ShardOf(url.site)];
}

uint64_t UpdateModule::visits_recorded() const {
  uint64_t total = 0;
  for (uint64_t n : visit_counts_) total += n;
  return total;
}

uint64_t UpdateModule::failures_recorded() const {
  uint64_t total = 0;
  for (uint64_t n : failure_counts_) total += n;
  return total;
}

void UpdateModule::SetImportance(const simweb::Url& url,
                                 double importance) {
  PageMap& pages = page_shards_[ShardOf(url.site)];
  auto it = pages.find(url);
  if (it == pages.end()) return;
  if (it->second.importance == importance) return;
  // Change-detected mark: refinement sweeps *every* entry's hint, and
  // an unchanged value must not drag the whole collection into the
  // next delta segment.
  if (dirty_tracking_) dirty_page_shards_[ShardOf(url.site)].insert(url);
  it->second.importance = importance;
}

void UpdateModule::Forget(const simweb::Url& url) {
  const std::size_t shard = ShardOf(url.site);
  if (page_shards_[shard].erase(url) > 0 && dirty_tracking_) {
    dirty_page_shards_[shard].insert(url);
  }
}

void UpdateModule::CarryEstimator(const simweb::Url& from,
                                  const simweb::Url& to) {
  const std::size_t from_shard = ShardOf(from.site);
  PageMap& from_pages = page_shards_[from_shard];
  auto it = from_pages.find(from);
  if (it == from_pages.end()) return;
  const std::size_t to_shard = ShardOf(to.site);
  if (dirty_tracking_) {
    dirty_page_shards_[from_shard].insert(from);
    dirty_page_shards_[to_shard].insert(to);
  }
  PageState carried = std::move(it->second);
  from_pages.erase(it);
  page_shards_[to_shard][to] = std::move(carried);
}

double UpdateModule::EstimatedRate(const simweb::Url& url) const {
  const PageMap& pages = page_shards_[ShardOf(url.site)];
  auto it = pages.find(url);
  if (it == pages.end()) return 0.0;
  const estimator::ChangeEstimator* est = EstimatorFor(url, it->second);
  return est == nullptr ? 0.0 : est->EstimatedRate();
}

std::size_t UpdateModule::tracked_pages() const {
  std::size_t total = 0;
  for (const PageMap& shard : page_shards_) total += shard.size();
  return total;
}

void UpdateModule::RefreshSchedulingPageCount() {
  frozen_page_count_ = tracked_pages();
}

void UpdateModule::EnableDirtyTracking() {
  dirty_tracking_ = true;
  dirty_page_shards_.resize(page_shards_.size());
  dirty_site_shards_.resize(site_shards_.size());
  dirty_rng_shards_.resize(rng_shards_.size());
}

void UpdateModule::AppendDirty(
    std::set<simweb::Url, simweb::UrlIdentityLess>* pages,
    std::set<uint32_t>* sites, std::set<uint32_t>* rngs) const {
  for (const auto& shard : dirty_page_shards_) {
    pages->insert(shard.begin(), shard.end());
  }
  for (const auto& shard : dirty_site_shards_) {
    sites->insert(shard.begin(), shard.end());
  }
  for (const auto& shard : dirty_rng_shards_) {
    rngs->insert(shard.begin(), shard.end());
  }
}

void UpdateModule::ClearDirty() {
  for (auto& shard : dirty_page_shards_) shard.clear();
  for (auto& shard : dirty_site_shards_) shard.clear();
  for (auto& shard : dirty_rng_shards_) shard.clear();
}

void UpdateModule::Rebalance(ThreadPool* threads) {
  ++rebalance_count_;
  RefreshSchedulingPageCount();
  // One flat record per page, bucketed by scheduling rate on a log grid
  // so the optimiser sees a bounded number of groups regardless of
  // collection size. Each shard fills and sorts its own slice of the
  // array (on its worker when given a pool: the slices are allocated
  // here, and a worker reads only its own shard's state), and the
  // slices merge into canonical URL-identity order, so the
  // floating-point sums below add in the same order at every shard
  // count.
  struct PageRecord {
    simweb::UrlKey key;
    double rate;
    double importance;
    int bucket;
  };
  const std::size_t num_shards = page_shards_.size();
  std::vector<std::size_t> bounds(num_shards + 1, 0);
  for (std::size_t s = 0; s < num_shards; ++s) {
    bounds[s + 1] = bounds[s] + page_shards_[s].size();
  }
  std::vector<PageRecord> pages(bounds.back());
  auto by_key = [](const PageRecord& a, const PageRecord& b) {
    return a.key < b.key;
  };
  auto fill_shard = [&](std::size_t s) {
    PageRecord* out = pages.data() + bounds[s];
    for (const auto& [url, state] : page_shards_[s]) {
      const double rate = SchedulingRate(EstimatorFor(url, state));
      const int bucket =
          rate > 0.0 ? static_cast<int>(std::lround(8.0 * std::log2(rate)))
                     : std::numeric_limits<int>::min();
      *out++ = PageRecord{simweb::KeyOf(url), rate, state.importance, bucket};
    }
    std::sort(pages.begin() + bounds[s], pages.begin() + bounds[s + 1],
              by_key);
  };
  RunForEachIndex(threads, num_shards, fill_shard);
  MergeSortedRuns(pages, std::move(bounds), by_key);

  total_rate_ = 0.0;
  double importance_sum = 0.0;
  std::map<int, freshness::RateGroup> buckets;
  for (const PageRecord& page : pages) {
    total_rate_ += page.rate;
    importance_sum += page.importance;
    auto [it, inserted] = buckets.try_emplace(page.bucket);
    if (inserted) it->second.rate = page.rate;
    it->second.weight += 1.0;
  }
  mean_importance_ =
      pages.empty() ? 0.0
                    : importance_sum / static_cast<double>(pages.size());

  if (config_.policy != RevisitPolicy::kOptimal || buckets.empty()) {
    return;
  }
  std::vector<freshness::RateGroup> groups;
  groups.reserve(buckets.size());
  bool any_positive = false;
  for (const auto& [key, group] : buckets) {
    groups.push_back(group);
    any_positive |= group.rate > 0.0;
  }
  if (!any_positive) {
    multiplier_ = 0.0;  // fall back to uniform spreading
    return;
  }
  auto alloc = freshness::RevisitOptimizer::Optimize(
      groups,
      config_.crawl_budget_pages_per_day * config_.budget_utilization);
  if (alloc.ok()) multiplier_ = alloc->multiplier;
}

}  // namespace webevo::crawler
