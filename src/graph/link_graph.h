#ifndef WEBEVO_GRAPH_LINK_GRAPH_H_
#define WEBEVO_GRAPH_LINK_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/status.h"

namespace webevo::graph {

/// Node index within a LinkGraph.
using NodeId = uint32_t;

/// A directed multigraph in compressed sparse row form, used for both
/// the page-level link graph the RankingModule scans and the site-level
/// hypergraph of the paper's Section 2.2.
///
/// Build phase: AddEdge any number of times (parallel edges allowed and
/// meaningful — a page with two links to the same target contributes
/// twice to the paper's PR denominator c_i). Then Finalize() once;
/// neighbor queries are invalid before that and adding edges is invalid
/// after.
class LinkGraph {
 public:
  explicit LinkGraph(NodeId num_nodes);

  /// Adds a directed edge. Returns InvalidArgument for out-of-range
  /// endpoints, FailedPrecondition after Finalize().
  Status AddEdge(NodeId from, NodeId to);

  /// Builds CSR adjacency (both directions). Idempotent.
  void Finalize();

  bool finalized() const { return finalized_; }
  NodeId num_nodes() const { return num_nodes_; }
  uint64_t num_edges() const { return edges_.size(); }

  /// Out-/in-degree counting multiplicity. Requires Finalize().
  uint32_t OutDegree(NodeId n) const;
  uint32_t InDegree(NodeId n) const;

  /// Successor / predecessor lists. Requires Finalize(). Successors
  /// keep the order their edges were added in; predecessors are in
  /// ascending source order whatever the insertion order, one entry per
  /// parallel edge.
  std::span<const NodeId> OutNeighbors(NodeId n) const;
  std::span<const NodeId> InNeighbors(NodeId n) const;

 private:
  struct Edge {
    NodeId from;
    NodeId to;
  };

  NodeId num_nodes_;
  bool finalized_ = false;
  std::vector<Edge> edges_;
  // CSR storage, filled by Finalize().
  std::vector<uint64_t> out_offsets_;
  std::vector<NodeId> out_targets_;
  std::vector<uint64_t> in_offsets_;
  std::vector<NodeId> in_sources_;
};

}  // namespace webevo::graph

#endif  // WEBEVO_GRAPH_LINK_GRAPH_H_
