#include "crawler/ranking_module.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "graph/hits.h"
#include "graph/link_graph.h"
#include "graph/pagerank.h"

namespace webevo::crawler {
namespace {

constexpr simweb::UrlIdentityLess IdentityLess;

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
                                       Collection& collection) {
  ++refinement_count_;
  RefinementResult result;

  // Node universe: collection pages first, then live uncollected
  // candidates known to AllUrls — each group in canonical URL order.
  // Node ids follow that order: members hold [0, m), candidates
  // [m, m + c).
  std::vector<const CollectionEntry*> members;
  collection.ForEach(
      [&](const CollectionEntry& entry) { members.push_back(&entry); });
  std::sort(members.begin(), members.end(),
            [](const CollectionEntry* a, const CollectionEntry* b) {
              return IdentityLess(a->url, b->url);
            });
  std::vector<simweb::Url> urls;
  urls.reserve(members.size());
  for (const CollectionEntry* entry : members) urls.push_back(entry->url);
  all_urls.ForEach([&](const simweb::Url& url,
                       const AllUrls::UrlInfo& info) {
    if (info.dead || collection.Contains(url)) return;
    urls.push_back(url);
  });
  const auto m = static_cast<graph::NodeId>(members.size());
  std::sort(urls.begin() + m, urls.end(), IdentityLess);

  std::unordered_map<simweb::Url, graph::NodeId, simweb::UrlHash> index;
  index.reserve(urls.size());
  for (graph::NodeId id = 0; id < urls.size(); ++id) {
    index.emplace(urls[id], id);
  }

  // Edges from the link structure captured in the Collection (entries
  // are not mutated between the walk above and here). Links to URLs
  // outside the universe (e.g. dead ones) are dropped.
  graph::LinkGraph graph(static_cast<graph::NodeId>(urls.size()));
  for (graph::NodeId from = 0; from < m; ++from) {
    for (const simweb::Url& to : members[from]->links) {
      auto it = index.find(to);
      if (it != index.end()) {
        Status st = graph.AddEdge(from, it->second);
        (void)st;
      }
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
  for (graph::NodeId id = 0; id < m; ++id) {
    CollectionEntry* entry = collection.FindMutable(urls[id]);
    if (entry != nullptr) entry->importance = score[id];
  }

  // Pair best candidates with worst members under hysteresis. The id
  // lists start in canonical URL order, so ties resolve the same way
  // at every shard count.
  std::vector<graph::NodeId> candidates(urls.size() - m);
  std::iota(candidates.begin(), candidates.end(), m);
  std::sort(candidates.begin(), candidates.end(),
            [&](graph::NodeId a, graph::NodeId b) {
              return score[a] > score[b];
            });
  // Free space first: while below capacity, admit the best candidates
  // outright (no victim needed).
  std::size_t free_slots = collection.capacity() - collection.size();
  std::size_t admitted = std::min(free_slots, candidates.size());
  for (std::size_t i = 0; i < admitted; ++i) {
    result.admissions.push_back(urls[candidates[i]]);
  }
  std::vector<graph::NodeId> victims(m);
  std::iota(victims.begin(), victims.end(), 0);
  std::sort(victims.begin(), victims.end(),
            [&](graph::NodeId a, graph::NodeId b) {
              return score[a] < score[b];
            });
  std::size_t pairs = std::min({candidates.size() - admitted,
                                victims.size(), config_.max_replacements});
  for (std::size_t i = 0; i < pairs; ++i) {
    const graph::NodeId crawl = candidates[admitted + i];
    const graph::NodeId discard = victims[i];
    if (score[crawl] <= score[discard] * config_.replacement_hysteresis) {
      break;
    }
    result.replacements.push_back(Replacement{
        urls[discard], urls[crawl], score[discard], score[crawl]});
  }
  return result;
}

}  // namespace webevo::crawler
