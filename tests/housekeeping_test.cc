// Bit-identity tests for the housekeeping the incremental crawler runs
// between batches. Each reference below is the computation as it was
// specified before its flat-array rebuild: PageRank as a push over the
// out-lists, refinement through a URL-keyed hash index, the rebalance
// walk over pages sorted into canonical order with a std::map of rate
// buckets, and the revisit optimizer with one plain bisection per
// inverse. The library must reproduce their bits exactly, at every
// shard count, with or without a thread pool.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "crawler/all_urls.h"
#include "crawler/collection.h"
#include "crawler/ranking_module.h"
#include "crawler/update_module.h"
#include "estimator/change_estimator.h"
#include "freshness/revisit_optimizer.h"
#include "graph/hits.h"
#include "graph/link_graph.h"
#include "graph/pagerank.h"
#include "simweb/url.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace webevo {
namespace {

using simweb::Url;

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// ---------------------------------------------------------------- PageRank

/// Power iteration as a push over the out-lists.
graph::PageRankResult ReferencePageRank(const graph::LinkGraph& graph,
                                        const graph::PageRankOptions& options) {
  const graph::NodeId n = graph.num_nodes();
  const double nd = static_cast<double>(n);
  const double d = options.damping;
  graph::PageRankResult result;
  std::vector<double> rank(n, 1.0);
  std::vector<double> next(n, 0.0);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    double dangling = 0.0;
    if (options.redistribute_dangling) {
      for (graph::NodeId v = 0; v < n; ++v) {
        if (graph.OutDegree(v) == 0) dangling += rank[v];
      }
    }
    const double base = (1.0 - d) + d * dangling / nd;
    std::fill(next.begin(), next.end(), base);
    for (graph::NodeId v = 0; v < n; ++v) {
      const uint32_t deg = graph.OutDegree(v);
      if (deg == 0) continue;
      const double share = d * rank[v] / static_cast<double>(deg);
      for (graph::NodeId to : graph.OutNeighbors(v)) next[to] += share;
    }
    double residual = 0.0;
    for (graph::NodeId v = 0; v < n; ++v) {
      residual += std::abs(next[v] - rank[v]);
    }
    rank.swap(next);
    result.iterations = iter + 1;
    result.residual = residual;
    if (residual < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.rank = std::move(rank);
  return result;
}

/// A random multigraph: parallel edges, self-loops, dangling and
/// isolated nodes, a few heavy sources, and edges added in shuffled
/// order when `shuffled`.
graph::LinkGraph RandomGraph(Rng& rng, bool shuffled) {
  const auto n = static_cast<graph::NodeId>(rng.UniformInt(1, 300));
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  const auto sources = static_cast<graph::NodeId>(rng.UniformInt(0, n));
  for (graph::NodeId k = 0; k < sources; ++k) {
    const auto from = static_cast<graph::NodeId>(rng.NextBounded(n));
    const int out = rng.Bernoulli(0.1) ? static_cast<int>(rng.UniformInt(10, 40))
                                       : static_cast<int>(rng.UniformInt(1, 6));
    for (int e = 0; e < out; ++e) {
      graph::NodeId to = static_cast<graph::NodeId>(rng.NextBounded(n));
      if (rng.Bernoulli(0.05)) to = from;  // self-loop
      edges.emplace_back(from, to);
      if (rng.Bernoulli(0.1)) edges.emplace_back(from, to);  // parallel
    }
  }
  if (shuffled) {
    rng.Shuffle(edges);
  } else {
    std::stable_sort(edges.begin(), edges.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
  }
  graph::LinkGraph graph(n);
  for (const auto& [from, to] : edges) EXPECT_TRUE(graph.AddEdge(from, to).ok());
  graph.Finalize();
  return graph;
}

void ExpectSameRanks(const graph::PageRankResult& want,
                     const graph::PageRankResult& got) {
  ASSERT_EQ(want.rank.size(), got.rank.size());
  for (std::size_t v = 0; v < want.rank.size(); ++v) {
    ASSERT_EQ(Bits(want.rank[v]), Bits(got.rank[v])) << "node " << v;
  }
  EXPECT_EQ(want.iterations, got.iterations);
  EXPECT_EQ(Bits(want.residual), Bits(got.residual));
  EXPECT_EQ(want.converged, got.converged);
}

// Catches in-lists kept in insertion order (the pull then sums a
// target's shares in another order than the push) and a pull that
// drops the residual terms of nodes without edges.
TEST(HousekeepingPageRank, PullMatchesPushBitForBit) {
  Rng rng(20260401);
  for (int trial = 0; trial < 400; ++trial) {
    const graph::LinkGraph graph = RandomGraph(rng, trial % 2 == 0);
    graph::PageRankOptions options;
    switch (trial % 4) {
      case 1:
        options.redistribute_dangling = false;
        break;
      case 2:
        options.max_iterations = static_cast<int>(rng.UniformInt(0, 5));
        break;
      case 3:
        options.damping = rng.Uniform(0.0, 0.99);
        break;
    }
    SCOPED_TRACE(trial);
    auto got = graph::ComputePageRank(graph, options);
    ASSERT_TRUE(got.ok());
    ExpectSameRanks(ReferencePageRank(graph, options), *got);
  }
}

TEST(HousekeepingPageRank, InListsAscendBySourceWhateverTheInsertionOrder) {
  graph::LinkGraph graph(4);
  for (auto [from, to] : {std::pair{3u, 0u}, {1u, 0u}, {3u, 0u}, {0u, 0u},
                          {2u, 0u}, {1u, 0u}}) {
    ASSERT_TRUE(graph.AddEdge(from, to).ok());
  }
  graph.Finalize();
  const auto in = graph.InNeighbors(0);
  EXPECT_EQ(std::vector<graph::NodeId>(in.begin(), in.end()),
            (std::vector<graph::NodeId>{0, 1, 1, 2, 3, 3}));
}

// ---------------------------------------------------------- Refinement

/// Refinement through a URL-keyed hash index over the node universe, a
/// Collection::Contains probe per AllUrls entry and the push PageRank.
crawler::RefinementResult ReferenceRefine(
    const crawler::RankingModuleConfig& config,
    const crawler::AllUrls& all_urls, crawler::Collection& collection) {
  constexpr simweb::UrlIdentityLess kLess;
  crawler::RefinementResult result;
  std::vector<const crawler::CollectionEntry*> members;
  collection.ForEach(
      [&](const crawler::CollectionEntry& e) { members.push_back(&e); });
  std::sort(members.begin(), members.end(),
            [&](const auto* a, const auto* b) { return kLess(a->url, b->url); });
  std::vector<Url> urls;
  for (const auto* entry : members) urls.push_back(entry->url);
  all_urls.ForEach([&](const Url& url, const crawler::AllUrls::UrlInfo& info) {
    if (info.dead || collection.Contains(url)) return;
    urls.push_back(url);
  });
  const auto m = static_cast<graph::NodeId>(members.size());
  std::sort(urls.begin() + m, urls.end(), kLess);
  std::unordered_map<Url, graph::NodeId, simweb::UrlHash> index;
  for (graph::NodeId id = 0; id < urls.size(); ++id) index.emplace(urls[id], id);
  graph::LinkGraph graph(static_cast<graph::NodeId>(urls.size()));
  for (graph::NodeId from = 0; from < m; ++from) {
    for (const Url& to : members[from]->links) {
      auto it = index.find(to);
      if (it != index.end()) {
        EXPECT_TRUE(graph.AddEdge(from, it->second).ok());
      }
    }
  }
  graph.Finalize();
  result.graph_nodes = graph.num_nodes();
  result.graph_edges = graph.num_edges();
  if (graph.num_nodes() == 0) return result;
  std::vector<double> score;
  switch (config.metric) {
    case crawler::ImportanceMetric::kPageRank: {
      graph::PageRankOptions options;
      options.damping = config.damping;
      graph::PageRankResult pr = ReferencePageRank(graph, options);
      score = std::move(pr.rank);
      result.iterations = pr.iterations;
      break;
    }
    case crawler::ImportanceMetric::kHitsAuthority: {
      auto hits = graph::ComputeHits(graph);
      score = std::move(hits->authority);
      result.iterations = hits->iterations;
      break;
    }
    case crawler::ImportanceMetric::kInLinks:
      for (graph::NodeId v = 0; v < graph.num_nodes(); ++v) {
        score.push_back(static_cast<double>(graph.InDegree(v)));
      }
      break;
  }
  for (graph::NodeId id = 0; id < m; ++id) {
    collection.FindMutable(urls[id])->importance = score[id];
  }
  std::vector<graph::NodeId> candidates(urls.size() - m);
  std::iota(candidates.begin(), candidates.end(), m);
  std::sort(candidates.begin(), candidates.end(),
            [&](graph::NodeId a, graph::NodeId b) { return score[a] > score[b]; });
  const std::size_t free_slots = collection.capacity() - collection.size();
  const std::size_t admitted = std::min(free_slots, candidates.size());
  for (std::size_t i = 0; i < admitted; ++i) {
    result.admissions.push_back(urls[candidates[i]]);
  }
  std::vector<graph::NodeId> victims(m);
  std::iota(victims.begin(), victims.end(), 0);
  std::sort(victims.begin(), victims.end(),
            [&](graph::NodeId a, graph::NodeId b) { return score[a] < score[b]; });
  const std::size_t pairs = std::min(
      {candidates.size() - admitted, victims.size(), config.max_replacements});
  for (std::size_t i = 0; i < pairs; ++i) {
    const graph::NodeId crawl = candidates[admitted + i];
    const graph::NodeId discard = victims[i];
    if (score[crawl] <= score[discard] * config.replacement_hysteresis) break;
    result.replacements.push_back(crawler::Replacement{
        urls[discard], urls[crawl], score[discard], score[crawl]});
  }
  return result;
}

/// A collection and the AllUrls around it. URLs come from a small grid
/// plus copies with a field pushed past PageId's 24/20/20-bit widths
/// (as a crafted checkpoint can load them), so a key that packs a URL
/// into 64 bits makes distinct URLs collide or reorder.
struct RefineWorld {
  std::vector<crawler::CollectionEntry> members;
  std::vector<std::pair<Url, bool>> known;  // AllUrls: url, dead
  std::size_t capacity = 0;
};

Url RandomUrl(Rng& rng) {
  Url url{static_cast<uint32_t>(rng.NextBounded(6)),
          static_cast<uint32_t>(rng.NextBounded(30)),
          static_cast<uint32_t>(rng.NextBounded(3))};
  switch (rng.NextBounded(8)) {
    case 0:
      url.site += 1u << 24;
      break;
    case 1:
      url.slot += 1u << 20;
      break;
    case 2:
      url.incarnation += 1u << 20;
      break;
    case 3:
      url.slot += 3u << 20;
      url.site += 0xff000000u;
      break;
  }
  return url;
}

RefineWorld RandomRefineWorld(Rng& rng) {
  RefineWorld world;
  std::map<Url, bool, simweb::UrlIdentityLess> known;  // url -> dead
  std::map<Url, bool, simweb::UrlIdentityLess> member_urls;
  const auto m = static_cast<std::size_t>(rng.UniformInt(0, 60));
  while (member_urls.size() < m) member_urls.emplace(RandomUrl(rng), true);
  const auto extra = static_cast<std::size_t>(rng.UniformInt(0, 200));
  for (std::size_t i = 0; i < extra; ++i) {
    known.emplace(RandomUrl(rng), rng.Bernoulli(0.15));
  }
  for (const auto& [url, unused] : member_urls) {
    (void)unused;
    crawler::CollectionEntry entry;
    entry.url = url;
    const int links = static_cast<int>(rng.UniformInt(0, 8));
    for (int l = 0; l < links; ++l) {
      // Links to members, to known URLs (live or dead), and to URLs
      // AllUrls never saw, with repeats.
      Url to = RandomUrl(rng);
      if (rng.Bernoulli(0.3) && !member_urls.empty()) {
        auto it = member_urls.begin();
        std::advance(it, rng.NextBounded(member_urls.size()));
        to = it->first;
      } else if (rng.Bernoulli(0.5) && !known.empty()) {
        auto it = known.begin();
        std::advance(it, rng.NextBounded(known.size()));
        to = it->first;
      }
      entry.links.push_back(to);
      if (rng.Bernoulli(0.1)) entry.links.push_back(to);
    }
    world.members.push_back(std::move(entry));
    // Most members are known to AllUrls too; a member is never a
    // candidate whether or not it is.
    if (rng.Bernoulli(0.9)) known.emplace(url, rng.Bernoulli(0.1));
  }
  for (const auto& [url, dead] : known) world.known.emplace_back(url, dead);
  world.capacity = m + (rng.Bernoulli(0.5) ? rng.NextBounded(20) : 0);
  return world;
}

void BuildRefineWorld(const RefineWorld& world,
                      crawler::Collection& collection,
                      crawler::AllUrls& all_urls) {
  for (const crawler::CollectionEntry& entry : world.members) {
    EXPECT_TRUE(collection.Upsert(entry).ok());
  }
  for (const auto& [url, dead] : world.known) {
    all_urls.Add(url, 0.0);
    if (dead) {
      EXPECT_TRUE(all_urls.MarkDead(url).ok());
    }
  }
}

// Catches a URL key packed into 64 bits (the 24/20/20 PageId layout):
// the wide copies then collide with or sort among the grid's URLs, and
// the universe, its numbering and every score move.
TEST(HousekeepingRefine, MatchesHashIndexedReference) {
  Rng rng(20260402);
  for (int trial = 0; trial < 120; ++trial) {
    const RefineWorld world = RandomRefineWorld(rng);
    crawler::RankingModuleConfig config;
    config.metric = static_cast<crawler::ImportanceMetric>(trial % 3);
    config.max_replacements = static_cast<std::size_t>(rng.UniformInt(0, 12));
    config.replacement_hysteresis = rng.Bernoulli(0.5) ? 1.0 : 1.25;
    crawler::Collection want_collection(world.capacity);
    crawler::AllUrls want_all;
    BuildRefineWorld(world, want_collection, want_all);
    const crawler::RefinementResult want =
        ReferenceRefine(config, want_all, want_collection);
    for (int shards : {1, 3, 8}) {
      for (bool pooled : {false, true}) {
        SCOPED_TRACE(testing::Message() << "trial " << trial << " shards "
                                        << shards << " pooled " << pooled);
        crawler::Collection collection(world.capacity, shards);
        crawler::AllUrls all(shards);
        BuildRefineWorld(world, collection, all);
        ThreadPool pool(shards);
        crawler::RankingModule ranking(config);
        const crawler::RefinementResult got =
            ranking.Refine(all, collection, pooled ? &pool : nullptr);
        EXPECT_EQ(want.graph_nodes, got.graph_nodes);
        EXPECT_EQ(want.graph_edges, got.graph_edges);
        EXPECT_EQ(want.iterations, got.iterations);
        EXPECT_EQ(want.admissions, got.admissions);
        ASSERT_EQ(want.replacements.size(), got.replacements.size());
        for (std::size_t i = 0; i < want.replacements.size(); ++i) {
          EXPECT_EQ(want.replacements[i].discard, got.replacements[i].discard);
          EXPECT_EQ(want.replacements[i].crawl, got.replacements[i].crawl);
          EXPECT_EQ(Bits(want.replacements[i].discard_score),
                    Bits(got.replacements[i].discard_score));
          EXPECT_EQ(Bits(want.replacements[i].crawl_score),
                    Bits(got.replacements[i].crawl_score));
        }
        for (const crawler::CollectionEntry& entry : world.members) {
          ASSERT_EQ(Bits(want_collection.Find(entry.url)->importance),
                    Bits(collection.Find(entry.url)->importance))
              << entry.url.ToString();
        }
      }
    }
  }
}

// ------------------------------------------------------------ Optimizer

double ReferenceG(double x) {
  const double e = std::exp(-x);
  return 1.0 - e - x * e;
}

template <typename Below>
double ReferenceBisect(double lo, double hi, Below below) {
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    double& end = below(mid) ? lo : hi;
    if (end == mid) break;
    end = mid;
  }
  return 0.5 * (lo + hi);
}

double ReferenceFrequencyAt(double lambda, double mu) {
  if (lambda <= 0.0) return 0.0;
  const double y = mu * lambda;
  if (y >= 1.0) return 0.0;
  const double lo = 1e-12, hi = 745.0;
  double x;
  if (y <= ReferenceG(lo)) {
    x = lo;
  } else if (y >= ReferenceG(hi)) {
    x = hi;
  } else {
    x = ReferenceBisect(lo, hi, [y](double t) { return ReferenceG(t) < y; });
  }
  return lambda / x;
}

double ReferenceTotalVisits(const std::vector<freshness::RateGroup>& groups,
                            double mu) {
  double total = 0.0;
  for (const auto& g : groups) total += g.weight * ReferenceFrequencyAt(g.rate, mu);
  return total;
}

/// The multiplier search with a full inner bisection at every step.
double ReferenceMultiplier(const std::vector<freshness::RateGroup>& groups,
                           double budget) {
  double hi = 0.0;
  for (const auto& g : groups) {
    if (g.rate > 0.0) hi = std::max(hi, 1.0 / g.rate);
  }
  double lo = hi;
  while (ReferenceTotalVisits(groups, lo) < budget) {
    lo /= 2.0;
    if (lo < 1e-300) break;
  }
  return ReferenceBisect(lo, hi, [&](double m) {
    return ReferenceTotalVisits(groups, m) > budget;
  });
}

// Catches a path that resumes from the interval one step past the first
// differing decision, and a comparison settled from the midpoint of the
// bounds instead of their ends.
TEST(HousekeepingOptimizer, ReplayedBisectionsMatchPlainOnes) {
  Rng rng(20260403);
  for (int trial = 0; trial < 150; ++trial) {
    std::vector<freshness::RateGroup> groups;
    const int count = static_cast<int>(rng.UniformInt(1, 100));
    bool any_positive = false;
    for (int i = 0; i < count; ++i) {
      double rate = std::exp2(rng.Uniform(-9.0, 5.0));
      if (rng.Bernoulli(0.05)) rate = 0.0;
      any_positive |= rate > 0.0;
      const double weight = rng.Bernoulli(0.5)
                                ? static_cast<double>(rng.UniformInt(1, 500))
                                : rng.Uniform(0.01, 50.0);
      groups.push_back({rate, weight});
    }
    const double budget = std::exp2(rng.Uniform(-2.0, 12.0));
    SCOPED_TRACE(trial);
    auto got = freshness::RevisitOptimizer::Optimize(groups, budget);
    ASSERT_TRUE(got.ok());
    if (!any_positive) continue;
    const double mu = ReferenceMultiplier(groups, budget);
    EXPECT_EQ(Bits(mu), Bits(got->multiplier));
    for (std::size_t i = 0; i < groups.size(); ++i) {
      EXPECT_EQ(Bits(ReferenceFrequencyAt(groups[i].rate, mu)),
                Bits(got->frequency[i]));
    }
    for (int probe = 0; probe < 20; ++probe) {
      const double rate = std::exp2(rng.Uniform(-10.0, 6.0));
      EXPECT_EQ(Bits(ReferenceFrequencyAt(rate, mu)),
                Bits(freshness::RevisitOptimizer::FrequencyAtMultiplier(
                    rate, mu)));
    }
  }
}

// ------------------------------------------------------------ Rebalance

/// The rebalance walk over pages in canonical URL order with a std::map
/// of log-grid rate buckets, solved by the reference multiplier search.
/// It keeps its own estimators, fed the same visits as the module.
class ReferenceRebalance {
 public:
  explicit ReferenceRebalance(const crawler::UpdateModuleConfig& config)
      : config_(config) {}

  void OnCrawled(const Url& url, double now, bool changed, bool first_visit) {
    Page& page = pages_[url];
    estimator::ChangeEstimator* est = Estimator(url, page);
    if (!first_visit && page.visited && now > page.last_visit) {
      est->RecordObservation(now - page.last_visit, changed);
    }
    page.last_visit = now;
    page.visited = true;
  }

  void SetImportance(const Url& url, double importance) {
    auto it = pages_.find(url);
    if (it != pages_.end()) it->second.importance = importance;
  }

  void Forget(const Url& url) { pages_.erase(url); }

  void Rebalance() {
    total_rate = 0.0;
    double importance_sum = 0.0;
    std::map<int, freshness::RateGroup> buckets;
    for (auto& [url, page] : pages_) {
      const estimator::ChangeEstimator* est = Estimator(url, page);
      const double rate = est->observation_count() < 2
                              ? 1.0 / config_.default_interval_days
                              : est->EstimatedRate();
      total_rate += rate;
      importance_sum += page.importance;
      const int key = rate > 0.0
                          ? static_cast<int>(std::lround(8.0 * std::log2(rate)))
                          : std::numeric_limits<int>::min();
      auto [it, inserted] = buckets.try_emplace(key);
      if (inserted) it->second.rate = rate;
      it->second.weight += 1.0;
    }
    mean_importance = pages_.empty()
                          ? 0.0
                          : importance_sum / static_cast<double>(pages_.size());
    if (config_.policy != crawler::RevisitPolicy::kOptimal || buckets.empty()) {
      return;
    }
    std::vector<freshness::RateGroup> groups;
    bool any_positive = false;
    for (const auto& [key, group] : buckets) {
      groups.push_back(group);
      any_positive |= group.rate > 0.0;
    }
    multiplier = any_positive
                     ? ReferenceMultiplier(groups,
                                           config_.crawl_budget_pages_per_day *
                                               config_.budget_utilization)
                     : 0.0;
  }

  double multiplier = 0.0;
  double total_rate = 0.0;
  double mean_importance = 0.0;

 private:
  struct Page {
    std::unique_ptr<estimator::ChangeEstimator> estimator;
    double last_visit = 0.0;
    bool visited = false;
    double importance = 0.0;
  };

  estimator::ChangeEstimator* Estimator(const Url& url, Page& page) {
    std::unique_ptr<estimator::ChangeEstimator>& slot =
        config_.site_level_stats ? sites_[url.site] : page.estimator;
    if (!slot) slot = estimator::MakeEstimator(config_.estimator_kind);
    return slot.get();
  }

  crawler::UpdateModuleConfig config_;
  std::map<Url, Page, simweb::UrlIdentityLess> pages_;
  std::map<uint32_t, std::unique_ptr<estimator::ChangeEstimator>> sites_;
};

// Catches shard slices summed in concatenation order instead of merged
// by key (the sums then add in another order at 3 and 8 shards) and a
// bucket that takes a later page's rate than its first.
TEST(HousekeepingRebalance, MatchesSortedPageReference) {
  Rng rng(20260404);
  const estimator::EstimatorKind kinds[] = {
      estimator::EstimatorKind::kBayesian, estimator::EstimatorKind::kRatio,
      estimator::EstimatorKind::kPoissonCi, estimator::EstimatorKind::kNaive};
  int trial = 0;
  for (crawler::RevisitPolicy policy :
       {crawler::RevisitPolicy::kUniform, crawler::RevisitPolicy::kProportional,
        crawler::RevisitPolicy::kOptimal}) {
    for (bool site_level : {false, true}) {
      for (int shards : {1, 3, 8}) {
        ++trial;
        crawler::UpdateModuleConfig config;
        config.policy = policy;
        config.site_level_stats = site_level;
        config.estimator_kind = kinds[trial % 4];
        config.crawl_budget_pages_per_day = rng.Uniform(20.0, 2000.0);
        config.num_shards = shards;
        crawler::UpdateModule module(config);
        ReferenceRebalance reference(config);
        ThreadPool pool(shards);
        std::vector<Url> urls;
        for (int i = 0; i < 400; ++i) urls.push_back(RandomUrl(rng));
        double now = 0.0;
        for (int round = 0; round < 4; ++round) {
          SCOPED_TRACE(testing::Message()
                       << "policy " << crawler::RevisitPolicyName(policy)
                       << " site_level " << site_level << " shards " << shards
                       << " round " << round);
          for (int visit = 0; visit < 900; ++visit) {
            const Url& url = urls[rng.NextBounded(urls.size())];
            now += rng.Uniform(0.0, 0.05);
            const bool first = rng.Bernoulli(0.05);
            const bool changed = rng.Bernoulli(0.3);
            module.OnCrawled(url, now, changed, first);
            reference.OnCrawled(url, now, changed, first);
          }
          for (int k = 0; k < 150; ++k) {
            const Url& url = urls[rng.NextBounded(urls.size())];
            const double importance = rng.Bernoulli(0.2) ? 0.15 : rng.Uniform(0.0, 3.0);
            module.SetImportance(url, importance);
            reference.SetImportance(url, importance);
          }
          for (int k = 0; k < 10; ++k) {
            const Url& url = urls[rng.NextBounded(urls.size())];
            module.Forget(url);
            reference.Forget(url);
          }
          module.Rebalance(round % 2 == 0 ? &pool : nullptr);
          reference.Rebalance();
          EXPECT_EQ(Bits(reference.multiplier), Bits(module.multiplier()));
          EXPECT_EQ(Bits(reference.total_rate), Bits(module.total_rate()));
          EXPECT_EQ(Bits(reference.mean_importance),
                    Bits(module.mean_importance()));
        }
      }
    }
  }
}

}  // namespace
}  // namespace webevo
