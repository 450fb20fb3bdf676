#pragma once

#include <functional>
#include <memory>

#include "graph/csr.hpp"
#include "graph/partition.hpp"
#include "util/bitmap.hpp"

namespace csaw {

/// Topology access given to user policies. Both the in-memory engine
/// (whole CSR) and the out-of-memory engine (resident partition plus host
/// fallback) provide this view, so user code is identical in both — the
/// paper's API promise that end users never see the execution mode.
///
/// One concrete class serves both: a whole-graph view has no partition,
/// a partition view serves adjacency from its partition. Degrees and the
/// vertex-id space always come from the whole graph. Accessors are
/// inline and non-virtual because EDGEBIAS calls them once per neighbor.
class GraphView {
 public:
  /// View over a whole in-memory CSR graph.
  explicit GraphView(const CsrGraph& graph) noexcept : graph_(&graph) {}

  /// View over one resident partition of `whole` (paper §V-A). Neighbor
  /// lists and weights are served from the partition's arrays; asking for
  /// a non-owned vertex's adjacency is a programming error (it is not on
  /// the device) and throws CheckError.
  ///
  /// Degrees of *any* vertex remain available: C-SAW's biases routinely
  /// need degree(u) for neighbors owned by other partitions, so the
  /// (compact) per-vertex degree array stays device-resident alongside the
  /// frontier queues; only the adjacency payload is paged. `has_edge`
  /// against a non-owned source is likewise answered from the
  /// host-resident index (needed only by node2vec's dynamic bias).
  GraphView(const CsrGraph& whole, const GraphPartition& part) noexcept
      : graph_(&whole), part_(&part) {}

  /// The whole graph, whichever part of it this view serves.
  const CsrGraph& graph() const noexcept { return *graph_; }
  /// Vertex-id space of the whole graph (partitioned views included).
  VertexId num_vertices() const noexcept { return graph_->num_vertices(); }
  /// Out-degree of v.
  EdgeIndex degree(VertexId v) const { return graph_->degree(v); }
  /// Sorted neighbors of v.
  std::span<const VertexId> neighbors(VertexId v) const {
    return part_ != nullptr ? part_->neighbors(v) : graph_->neighbors(v);
  }
  /// Weights aligned with neighbors(v); empty when the graph is
  /// unweighted (every weight reads 1.0).
  std::span<const float> edge_weights(VertexId v) const {
    return part_ != nullptr ? part_->edge_weights(v)
                            : graph_->edge_weights(v);
  }
  /// O(log degree(v)) membership test (node2vec's distance bias).
  bool has_edge(VertexId v, VertexId u) const {
    if (part_ != nullptr && part_->owns(v)) return part_->has_edge(v, u);
    return graph_->has_edge(v, u);
  }

 private:
  const CsrGraph* graph_;
  const GraphPartition* part_ = nullptr;
};

/// GraphView over a whole in-memory CSR graph.
class CsrGraphView final : public GraphView {
 public:
  explicit CsrGraphView(const CsrGraph& graph) noexcept : GraphView(graph) {}
};

/// The edge handed to EDGEBIAS / UPDATE (paper Fig. 2(a)): neighbor `u`
/// reached from frontier vertex `v` via v's k-th out-edge.
struct EdgeRef {
  VertexId v = 0;       ///< frontier (source) vertex
  VertexId u = 0;       ///< candidate neighbor
  float weight = 1.0f;  ///< weight of edge (v, u)
  EdgeIndex k = 0;      ///< index of u within v's adjacency
};

/// A static EDGEBIAS: the bias of edge e as a function of the whole graph
/// and the edge alone (Table I's "static" bias criterion). Being a
/// captureless function pointer, it can see no instance context and no
/// other state, and its address names it — which is what lets the
/// engines build CTPS rows once per (graph, bias) and reuse them for
/// every walk step (core/static_ctps.hpp).
using StaticEdgeBias = float (*)(const CsrGraph& graph, const EdgeRef& e);

/// Per-instance context visible to policies.
struct InstanceContext {
  std::uint32_t instance_id = 0;
  /// Current sampling iteration (CurrDepth).
  std::uint32_t depth = 0;
  /// The vertex explored at the preceding step (SOURCE(e.v) in the
  /// paper's node2vec listing); kInvalidVertex on the first step.
  VertexId prev_vertex = kInvalidVertex;
  /// First seed of the instance (random walk with restart returns here).
  VertexId seed_vertex = kInvalidVertex;
  /// Vertices already included in this instance's sample; null when the
  /// algorithm does not track visitation (random walks).
  const Bitset* visited = nullptr;
};

/// The C-SAW user programming interface (paper Fig. 2(a)): three hooks,
/// all centered on bias. Defaults make every hook optional — an empty
/// Policy is unbiased neighbor sampling.
struct Policy {
  /// VERTEXBIAS: bias of candidate vertex v in the FrontierPool
  /// (Equation 2). Used only when the spec enables frontier selection.
  std::function<float(const GraphView&, VertexId v, const InstanceContext&)>
      vertex_bias;

  /// EDGEBIAS: bias of the neighbor reached through edge e (Equation 3).
  std::function<float(const GraphView&, const EdgeRef& e,
                      const InstanceContext&)>
      edge_bias;

  /// EDGEBIAS declared static: set this instead of edge_bias when the
  /// bias depends on nothing but the graph and the edge. Walks that
  /// sample with replacement then locate in per-vertex CTPS rows built
  /// once per graph instead of re-evaluating EDGEBIAS and rebuilding the
  /// CTPS at every step; samples and simulated charges are the same as
  /// with the equivalent edge_bias. Setting both hooks is an error
  /// (CheckError when a run starts).
  StaticEdgeBias static_edge_bias = nullptr;

  /// UPDATE: the vertex to insert into the FrontierPool given sampled
  /// edge e (Equation 4); kInvalidVertex inserts nothing. `r` is a
  /// uniform [0,1) draw for probabilistic decisions (jump/restart).
  std::function<VertexId(const GraphView&, const EdgeRef& e,
                         const InstanceContext&, double r)>
      update;

  /// Evaluates VERTEXBIAS with the uniform default.
  float eval_vertex_bias(const GraphView& view, VertexId v,
                         const InstanceContext& ctx) const {
    return vertex_bias ? vertex_bias(view, v, ctx) : 1.0f;
  }
  /// Evaluates EDGEBIAS (dynamic or static) with the uniform default.
  float eval_edge_bias(const GraphView& view, const EdgeRef& e,
                       const InstanceContext& ctx) const {
    if (edge_bias) return edge_bias(view, e, ctx);
    return static_edge_bias ? static_edge_bias(view.graph(), e) : 1.0f;
  }
  /// Evaluates UPDATE with the "advance to the sampled neighbor" default.
  VertexId eval_update(const GraphView& view, const EdgeRef& e,
                       const InstanceContext& ctx, double r) const {
    return update ? update(view, e, ctx, r) : e.u;
  }
};

}  // namespace csaw
