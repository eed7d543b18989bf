#include "crawler/ranking_module.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <utility>

#include "graph/hits.h"
#include "graph/link_graph.h"
#include "graph/pagerank.h"
#include "util/sorted_runs.h"
#include "util/thread_pool.h"

namespace webevo::crawler {
namespace {

// The index of `key` in the sorted `keys`, or keys.size() when absent.
// The halving picks each next half with a conditional move, not a
// branch, so a lookup pays its cache misses but no mispredictions.
std::size_t IndexOf(const std::vector<simweb::UrlKey>& keys,
                    simweb::UrlKey key) {
  if (keys.empty()) return 0;
  const simweb::UrlKey* base = keys.data();
  for (std::size_t n = keys.size(); n > 1;) {
    const std::size_t half = n / 2;
    base = base[half] <= key ? base + half : base;
    n -= half;
  }
  return *base == key ? static_cast<std::size_t>(base - keys.data())
                      : keys.size();
}

}  // namespace

const char* ImportanceMetricName(ImportanceMetric metric) {
  switch (metric) {
    case ImportanceMetric::kPageRank:
      return "pagerank";
    case ImportanceMetric::kHitsAuthority:
      return "hits";
    case ImportanceMetric::kInLinks:
      return "inlinks";
  }
  return "?";
}

RankingModule::RankingModule(const RankingModuleConfig& config)
    : config_(config) {}

// All iteration-order-sensitive steps (graph node numbering, edge
// insertion, score ties) run in canonical URL order, so the refinement
// outcome is a pure function of the stored state — identical at every
// shard count.
RefinementResult RankingModule::Refine(const AllUrls& all_urls,
                                       Collection& collection,
                                       ThreadPool* threads) {
  ++refinement_count_;
  RefinementResult result;

  // Node universe: collection pages first, then live uncollected
  // candidates known to AllUrls, each group in canonical URL order as
  // sorted exact keys. Node ids follow that order: members hold [0, m),
  // candidates [m, m + c).
  std::vector<std::pair<simweb::UrlKey, const CollectionEntry*>> members;
  members.reserve(collection.size());
  collection.ForEach([&](const CollectionEntry& entry) {
    members.emplace_back(simweb::KeyOf(entry.url), &entry);
  });
  std::sort(members.begin(), members.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const auto m = static_cast<graph::NodeId>(members.size());
  std::vector<simweb::UrlKey> member_keys(m);
  for (graph::NodeId id = 0; id < m; ++id) member_keys[id] = members[id].first;

  // The candidates: the sorted live AllUrls keys minus the member keys.
  // Each AllUrls shard writes its live keys into its own slice of one
  // array allocated here and sorts them (on its worker when given a
  // pool); the slices then close up and merge.
  const auto num_shards = static_cast<std::size_t>(all_urls.num_shards());
  std::vector<std::size_t> bounds(num_shards + 1, 0);
  for (std::size_t s = 0; s < num_shards; ++s) {
    bounds[s + 1] = bounds[s] + all_urls.shard(s).size();
  }
  std::vector<simweb::UrlKey> candidates(bounds.back());
  std::vector<std::size_t> live(num_shards, 0);
  auto collect_shard = [&](std::size_t s) {
    simweb::UrlKey* out = candidates.data() + bounds[s];
    all_urls.shard(s).ForEach(
        [&](const simweb::Url& url, const AllUrls::UrlInfo& info) {
          if (!info.dead) *out++ = simweb::KeyOf(url);
        });
    live[s] = static_cast<std::size_t>(out - candidates.data()) - bounds[s];
    std::sort(candidates.begin() + bounds[s],
              candidates.begin() + bounds[s] + live[s]);
  };
  RunForEachIndex(threads, num_shards, collect_shard);
  std::vector<std::size_t> runs(1, 0);
  for (std::size_t s = 0; s < num_shards; ++s) {
    std::copy(candidates.begin() + bounds[s],
              candidates.begin() + bounds[s] + live[s],
              candidates.begin() + runs.back());
    runs.push_back(runs.back() + live[s]);
  }
  candidates.resize(runs.back());
  MergeSortedRuns(candidates, std::move(runs), std::less<>());
  std::size_t kept = 0;
  auto member = member_keys.begin();
  for (const simweb::UrlKey key : candidates) {
    while (member != member_keys.end() && *member < key) ++member;
    if (member != member_keys.end() && *member == key) continue;
    candidates[kept++] = key;
  }
  candidates.resize(kept);
  const std::size_t n = m + candidates.size();

  // Edges from the link structure captured in the Collection (entries
  // are not mutated between the walk above and here). Links to URLs
  // outside the universe (e.g. dead ones) are dropped.
  graph::LinkGraph graph(static_cast<graph::NodeId>(n));
  for (graph::NodeId from = 0; from < m; ++from) {
    for (const simweb::Url& link : members[from].second->links) {
      const simweb::UrlKey key = simweb::KeyOf(link);
      std::size_t to = IndexOf(member_keys, key);
      if (to == m) {
        to = IndexOf(candidates, key);
        if (to == candidates.size()) continue;
        to += m;
      }
      Status st = graph.AddEdge(from, static_cast<graph::NodeId>(to));
      (void)st;
    }
  }
  graph.Finalize();
  result.graph_nodes = graph.num_nodes();
  result.graph_edges = graph.num_edges();

  // Score all nodes.
  std::vector<double> score;
  switch (config_.metric) {
    case ImportanceMetric::kPageRank: {
      graph::PageRankOptions options;
      options.damping = config_.damping;
      auto pr = graph::ComputePageRank(graph, options);
      if (!pr.ok()) return result;  // empty graph: nothing to refine
      score = std::move(pr->rank);
      result.iterations = pr->iterations;
      break;
    }
    case ImportanceMetric::kHitsAuthority: {
      auto hits = graph::ComputeHits(graph);
      if (!hits.ok()) return result;
      score = std::move(hits->authority);
      result.iterations = hits->iterations;
      break;
    }
    case ImportanceMetric::kInLinks: {
      score.resize(graph.num_nodes());
      for (graph::NodeId v = 0; v < graph.num_nodes(); ++v) {
        score[v] = static_cast<double>(graph.InDegree(v));
      }
      break;
    }
  }

  // Write importance back into collection entries.
  auto url_of = [&](graph::NodeId id) {
    return simweb::UrlOf(id < m ? member_keys[id] : candidates[id - m]);
  };
  for (graph::NodeId id = 0; id < m; ++id) {
    CollectionEntry* entry = collection.FindMutable(url_of(id));
    if (entry != nullptr) entry->importance = score[id];
  }

  // Pair best candidates with worst members under hysteresis. The id
  // lists start in canonical URL order, so ties resolve the same way
  // at every shard count.
  std::vector<graph::NodeId> ranked(n - m);
  std::iota(ranked.begin(), ranked.end(), m);
  std::sort(ranked.begin(), ranked.end(),
            [&](graph::NodeId a, graph::NodeId b) {
              return score[a] > score[b];
            });
  // Free space first: while below capacity, admit the best candidates
  // outright (no victim needed).
  std::size_t free_slots = collection.capacity() - collection.size();
  std::size_t admitted = std::min(free_slots, ranked.size());
  for (std::size_t i = 0; i < admitted; ++i) {
    result.admissions.push_back(url_of(ranked[i]));
  }
  std::vector<graph::NodeId> victims(m);
  std::iota(victims.begin(), victims.end(), 0);
  std::sort(victims.begin(), victims.end(),
            [&](graph::NodeId a, graph::NodeId b) {
              return score[a] < score[b];
            });
  std::size_t pairs = std::min({ranked.size() - admitted,
                                victims.size(), config_.max_replacements});
  for (std::size_t i = 0; i < pairs; ++i) {
    const graph::NodeId crawl = ranked[admitted + i];
    const graph::NodeId discard = victims[i];
    if (score[crawl] <= score[discard] * config_.replacement_hysteresis) {
      break;
    }
    result.replacements.push_back(Replacement{
        url_of(discard), url_of(crawl), score[discard], score[crawl]});
  }
  return result;
}

}  // namespace webevo::crawler
