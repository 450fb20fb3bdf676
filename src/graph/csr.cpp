#include "graph/csr.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace csaw {

CsrGraph::CsrGraph(std::vector<EdgeIndex> row_ptr,
                   std::vector<VertexId> col_idx, std::vector<float> weights)
    : row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      weights_(std::move(weights)) {
  CSAW_CHECK_MSG(!row_ptr_.empty(), "row_ptr must have n+1 entries");
  CSAW_CHECK(row_ptr_.front() == 0);
  CSAW_CHECK(row_ptr_.back() == col_idx_.size());
  CSAW_CHECK(std::is_sorted(row_ptr_.begin(), row_ptr_.end()));
  CSAW_CHECK(weights_.empty() || weights_.size() == col_idx_.size());
  for (std::size_t v = 0; v + 1 < row_ptr_.size(); ++v) {
    CSAW_CHECK_MSG(
        std::is_sorted(col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[v]),
                       col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[v + 1])),
        "adjacency of vertex " << v << " is not sorted");
  }
}

double CsrGraph::average_degree() const noexcept {
  const VertexId n = num_vertices();
  if (n == 0) return 0.0;
  return static_cast<double>(num_edges()) / static_cast<double>(n);
}

EdgeIndex CsrGraph::max_degree() const noexcept {
  EdgeIndex best = 0;
  for (VertexId v = 0; v < num_vertices(); ++v)
    best = std::max(best, row_ptr_[v + 1] - row_ptr_[v]);
  return best;
}

EdgeIndex CsrGraph::edge_begin(VertexId v) const {
  CSAW_CHECK(v < num_vertices());
  return row_ptr_[v];
}

bool CsrGraph::has_edge(VertexId v, VertexId u) const {
  const auto adj = neighbors(v);
  return std::binary_search(adj.begin(), adj.end(), u);
}

std::uint64_t CsrGraph::bytes() const noexcept {
  return row_ptr_.size() * sizeof(EdgeIndex) +
         col_idx_.size() * sizeof(VertexId) + weights_.size() * sizeof(float);
}

}  // namespace csaw
