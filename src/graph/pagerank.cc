#include "graph/pagerank.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

namespace webevo::graph {

StatusOr<PageRankResult> ComputePageRank(const LinkGraph& graph,
                                         const PageRankOptions& options) {
  if (!graph.finalized()) {
    return Status::FailedPrecondition("graph not finalized");
  }
  const NodeId n = graph.num_nodes();
  if (n == 0) return Status::InvalidArgument("empty graph");
  if (options.damping < 0.0 || options.damping >= 1.0) {
    return Status::InvalidArgument("damping must be in [0, 1)");
  }
  const double nd = static_cast<double>(n);
  const double d = options.damping;

  // One fused pull pass per iteration. A node's next rank is the base
  // plus its in-neighbours' shares, summed in in-list order (sources
  // ascending), which is the order a push over the out-lists adds them
  // in; the same pass writes the node's next share and adds to the two
  // sums that must run in node order, the L1 residual and the next
  // iteration's dangling mass. Every rank, residual and iteration count
  // is therefore bit-identical to the push formulation.
  //
  // The pass streams over the nodes that have an edge, each held with
  // its in-list, out-degree and rank. A node with no edge at all holds
  // the base rank after every iteration, so the pass does not visit it:
  // in its place in node order it adds the same residual term and the
  // base to the dangling mass.
  constexpr double kInitialRank = 1.0;  // paper: start all PR at 1
  struct Linked {
    std::span<const NodeId> in;
    NodeId id;
    uint32_t out_degree;
    double rank;
  };
  std::vector<Linked> linked;
  std::vector<double> share(n);  // written and read for out-linking nodes
  std::vector<double> next_share(n);
  double dangling = 0.0;
  for (NodeId v = 0; v < n; ++v) {
    const uint32_t deg = graph.OutDegree(v);
    const std::span<const NodeId> in = graph.InNeighbors(v);
    if (deg > 0 || !in.empty()) {
      linked.push_back(Linked{in, v, deg, kInitialRank});
    }
    if (deg == 0) {
      if (options.redistribute_dangling) dangling += kInitialRank;
    } else {
      share[v] = d * kInitialRank / static_cast<double>(deg);
    }
  }
  PageRankResult result;
  double unlinked_rank = kInitialRank;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    const double base = (1.0 - d) + d * dangling / nd;
    const double unlinked_term = std::abs(base - unlinked_rank);
    double residual = 0.0;
    double next_dangling = 0.0;
    NodeId v = 0;
    auto pass_unlinked = [&](NodeId end) {
      for (; v < end; ++v) {
        residual += unlinked_term;
        next_dangling += base;
      }
    };
    for (Linked& node : linked) {
      pass_unlinked(node.id);
      double r = base;
      for (NodeId from : node.in) r += share[from];
      residual += std::abs(r - node.rank);
      node.rank = r;
      if (node.out_degree == 0) {
        next_dangling += r;
      } else {
        next_share[node.id] = d * r / static_cast<double>(node.out_degree);
      }
      v = node.id + 1;
    }
    pass_unlinked(n);
    unlinked_rank = base;
    share.swap(next_share);
    if (options.redistribute_dangling) dangling = next_dangling;
    result.iterations = iter + 1;
    result.residual = residual;
    if (residual < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  std::vector<double> rank(n, unlinked_rank);
  for (const Linked& node : linked) rank[node.id] = node.rank;
  result.rank = std::move(rank);
  return result;
}

std::vector<NodeId> TopKByRank(const std::vector<double>& rank, size_t k) {
  std::vector<NodeId> order(rank.size());
  std::iota(order.begin(), order.end(), 0);
  k = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(k),
                    order.end(), [&rank](NodeId a, NodeId b) {
                      if (rank[a] != rank[b]) return rank[a] > rank[b];
                      return a < b;
                    });
  order.resize(k);
  return order;
}

}  // namespace webevo::graph
