#include "core/static_ctps.hpp"

#include <memory>

#include "core/engine.hpp"
#include "select/ctps.hpp"
#include "util/check.hpp"

namespace csaw {

StaticCtpsRows::StaticCtpsRows(const CsrGraph& graph, StaticEdgeBias bias) {
  const VertexId n = graph.num_vertices();
  std::size_t edges = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (graph.degree(v) >= kMinRowSize) edges += graph.degree(v);
  }
  storage_ = PageBuffer(edges * sizeof(float) + n * sizeof(std::uint32_t));
  // Begin the arrays' lifetimes in the mapping (no stores: both types are
  // trivially default-constructible).
  auto* upper = reinterpret_cast<float*>(storage_.data());
  auto* offset =
      reinterpret_cast<std::uint32_t*>(storage_.data() + edges * sizeof(float));
  std::uninitialized_default_construct_n(upper, edges);
  std::uninitialized_default_construct_n(offset, n);
  upper_ = {upper, edges};
  offset_ = {offset, n};

  std::size_t next = 0;
  for (VertexId v = 0; v < n; ++v) {
    offset_[v] = kNoRow;
    const auto adj = graph.neighbors(v);
    // Offsets are 32-bit: rows past 2^32 - 1 boundaries stay per-step.
    if (adj.size() < kMinRowSize || next >= kNoRow) continue;
    const auto weights = graph.edge_weights(v);
    // The biases go straight into the row, which ctps_prefix then turns
    // into boundaries in place.
    const std::span<float> row = upper_.subspan(next, adj.size());
    for (std::size_t e = 0; e < adj.size(); ++e) {
      const EdgeRef edge{v, adj[e], weights.empty() ? 1.0f : weights[e],
                         static_cast<EdgeIndex>(e)};
      row[e] = bias != nullptr ? bias(graph, edge) : 1.0f;
    }
    if (ctps_prefix(row, row).normalized) {
      offset_[v] = static_cast<std::uint32_t>(next);
      next += adj.size();
    }
  }
}

const StaticCtpsRows* static_ctps_rows(const GraphView& view,
                                       const Policy& policy,
                                       const SamplingSpec& spec) {
  CSAW_CHECK_MSG(!(policy.edge_bias && policy.static_edge_bias),
                 "a policy sets either edge_bias or static_edge_bias, "
                 "not both");
  if (policy.edge_bias || !spec.with_replacement || spec.layer_mode ||
      spec.sample_all_neighbors) {
    return nullptr;
  }
  const CsrGraph& graph = view.graph();
  GraphMemo* memo = graph.memo();
  if (memo == nullptr) return nullptr;  // a moved-from graph
  const StaticEdgeBias bias = policy.static_edge_bias;
  return &memo->get<StaticCtpsRows>(
      reinterpret_cast<std::uintptr_t>(bias),
      [&] { return StaticCtpsRows(graph, bias); });
}

}  // namespace csaw
