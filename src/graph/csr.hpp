#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/memo.hpp"
#include "util/check.hpp"

namespace csaw {

/// Vertex identifier. 32 bits covers every graph in the paper's Table II
/// after scaling; the CSR row index is 64-bit so edge counts above 4B
/// would still work.
using VertexId = std::uint32_t;
using EdgeIndex = std::uint64_t;

constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

/// A directed edge endpoint pair with an optional weight, used by builders
/// and one-pass samplers.
struct Edge {
  VertexId src = 0;
  VertexId dst = 0;
  float weight = 1.0f;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Compressed Sparse Row graph. Adjacency lists are sorted by destination
/// id, which the sampling framework relies on for two things:
///  - O(log d) `has_edge` checks (node2vec's "is u a neighbor of the
///    previous vertex" bias);
///  - deterministic neighbor ordering, so CTPS construction is identical
///    across engines and devices.
class CsrGraph {
 public:
  CsrGraph() = default;
  CsrGraph(std::vector<EdgeIndex> row_ptr, std::vector<VertexId> col_idx,
           std::vector<float> weights);

  VertexId num_vertices() const noexcept {
    return row_ptr_.empty() ? 0
                            : static_cast<VertexId>(row_ptr_.size() - 1);
  }
  EdgeIndex num_edges() const noexcept {
    return row_ptr_.empty() ? 0 : row_ptr_.back();
  }
  bool has_weights() const noexcept { return !weights_.empty(); }

  // The per-vertex accessors are inline: biases call them once per
  // neighbor on the sampling hot path.
  EdgeIndex degree(VertexId v) const {
    CSAW_CHECK(v < num_vertices());
    return row_ptr_[v + 1] - row_ptr_[v];
  }
  double average_degree() const noexcept;
  /// Largest out-degree in the graph.
  EdgeIndex max_degree() const noexcept;

  /// Neighbors of v, sorted ascending.
  std::span<const VertexId> neighbors(VertexId v) const {
    const EdgeIndex d = degree(v);
    return {col_idx_.data() + row_ptr_[v], static_cast<std::size_t>(d)};
  }
  /// Weights aligned with neighbors(v); empty span if unweighted.
  std::span<const float> edge_weights(VertexId v) const {
    const EdgeIndex d = degree(v);
    if (weights_.empty()) return {};
    return {weights_.data() + row_ptr_[v], static_cast<std::size_t>(d)};
  }
  /// Weight of the k-th out-edge of v (1.0 if unweighted).
  float edge_weight(VertexId v, EdgeIndex k) const {
    CSAW_CHECK(k < degree(v));
    if (weights_.empty()) return 1.0f;
    return weights_[row_ptr_[v] + k];
  }

  /// First edge index of v's adjacency (global CSR offset).
  EdgeIndex edge_begin(VertexId v) const;

  /// Binary search in v's sorted adjacency. O(log degree(v)).
  bool has_edge(VertexId v, VertexId u) const;

  /// Size of the CSR arrays in bytes — what a device transfer would move.
  std::uint64_t bytes() const noexcept;

  std::span<const EdgeIndex> row_ptr() const noexcept { return row_ptr_; }
  std::span<const VertexId> col_idx() const noexcept { return col_idx_; }
  std::span<const float> weights() const noexcept { return weights_; }

  /// Tables derived from this graph (see GraphMemo), shared with its
  /// copies; null only for a moved-from graph.
  GraphMemo* memo() const noexcept { return memo_.get(); }

 private:
  std::vector<EdgeIndex> row_ptr_;  // n + 1 entries
  std::vector<VertexId> col_idx_;   // m entries, sorted within each row
  std::vector<float> weights_;      // m entries or empty
  std::shared_ptr<GraphMemo> memo_ = std::make_shared<GraphMemo>();
};

}  // namespace csaw
