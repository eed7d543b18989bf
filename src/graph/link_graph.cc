#include "graph/link_graph.h"

#include <cassert>

namespace webevo::graph {

LinkGraph::LinkGraph(NodeId num_nodes) : num_nodes_(num_nodes) {}

Status LinkGraph::AddEdge(NodeId from, NodeId to) {
  if (finalized_) {
    return Status::FailedPrecondition("graph already finalized");
  }
  if (from >= num_nodes_ || to >= num_nodes_) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  edges_.push_back(Edge{from, to});
  return Status::Ok();
}

void LinkGraph::Finalize() {
  if (finalized_) return;
  out_offsets_.assign(num_nodes_ + 1, 0);
  in_offsets_.assign(num_nodes_ + 1, 0);
  for (const Edge& e : edges_) {
    ++out_offsets_[e.from + 1];
    ++in_offsets_[e.to + 1];
  }
  for (NodeId n = 0; n < num_nodes_; ++n) {
    out_offsets_[n + 1] += out_offsets_[n];
    in_offsets_[n + 1] += in_offsets_[n];
  }
  out_targets_.resize(edges_.size());
  std::vector<uint64_t> out_pos(out_offsets_.begin(),
                                out_offsets_.end() - 1);
  for (const Edge& e : edges_) out_targets_[out_pos[e.from]++] = e.to;
  // In-lists follow the out-lists, not the insertion order: sources
  // ascending, each source's parallel edges as its out-list holds them.
  // That is the order in which a push over the out-lists adds into each
  // target, so a pull over these lists sums the same terms in the same
  // order.
  in_sources_.resize(edges_.size());
  std::vector<uint64_t> in_pos(in_offsets_.begin(), in_offsets_.end() - 1);
  for (NodeId from = 0; from < num_nodes_; ++from) {
    for (uint64_t e = out_offsets_[from]; e < out_offsets_[from + 1]; ++e) {
      in_sources_[in_pos[out_targets_[e]]++] = from;
    }
  }
  finalized_ = true;
}

uint32_t LinkGraph::OutDegree(NodeId n) const {
  assert(finalized_ && n < num_nodes_);
  return static_cast<uint32_t>(out_offsets_[n + 1] - out_offsets_[n]);
}

uint32_t LinkGraph::InDegree(NodeId n) const {
  assert(finalized_ && n < num_nodes_);
  return static_cast<uint32_t>(in_offsets_[n + 1] - in_offsets_[n]);
}

std::span<const NodeId> LinkGraph::OutNeighbors(NodeId n) const {
  assert(finalized_ && n < num_nodes_);
  return {out_targets_.data() + out_offsets_[n],
          out_targets_.data() + out_offsets_[n + 1]};
}

std::span<const NodeId> LinkGraph::InNeighbors(NodeId n) const {
  assert(finalized_ && n < num_nodes_);
  return {in_sources_.data() + in_offsets_[n],
          in_sources_.data() + in_offsets_[n + 1]};
}

}  // namespace webevo::graph
