#pragma once

#include <cstdint>
#include <span>

#include "core/policy.hpp"
#include "graph/csr.hpp"
#include "util/page_buffer.hpp"

namespace csaw {

struct SamplingSpec;

/// Each vertex's CTPS under one static EDGEBIAS (or the uniform bias),
/// built once per graph — the ThunderRW idea of precomputing a static
/// walk's transition tables, applied to C-SAW's ITS rows. A row holds the
/// region upper boundaries F[1..n] that Ctps::build computes from the
/// same biases (the two share ctps_prefix), so locating in it draws the
/// same neighbor as the per-step rebuild.
///
/// Only vertices with at least kMinRowSize neighbors get a row: the
/// per-step rebuild costs host time in proportion to the pool, and a
/// pool that fits one warp is cheap to rebuild but would still cost the
/// table 4 B per edge. Memory: 4 B per edge of a stored row plus 4 B per
/// vertex for its row offset, in one page-granular mapping (PageBuffer).
///
/// Building never throws on hostile biases. A vertex whose biases the
/// per-step build would reject (negative or non-finite, or a total that
/// is zero or not normalizable in float) gets no row; the engines take
/// the per-step path there, which throws or ends the walk exactly as it
/// does without the table.
class StaticCtpsRows {
 public:
  /// Smallest pool that gets a row: one warp's lanes.
  static constexpr std::size_t kMinRowSize = 32;

  /// Evaluates `bias` (null = uniform) over the edges of every vertex
  /// with at least kMinRowSize neighbors.
  StaticCtpsRows(const CsrGraph& graph, StaticEdgeBias bias);

  /// F[1..n] of v's CTPS, aligned with graph.neighbors(v); empty when v
  /// has no row. `graph` is the graph the rows were built from, or a copy
  /// of it (copies share their memo).
  std::span<const float> row(const CsrGraph& graph, VertexId v) const {
    if (offset_[v] == kNoRow) return {};
    return upper_.subspan(offset_[v],
                          static_cast<std::size_t>(graph.degree(v)));
  }

 private:
  static constexpr std::uint32_t kNoRow = 0xFFFFFFFFu;

  PageBuffer storage_;
  std::span<float> upper_;           // the stored rows, back to back
  std::span<std::uint32_t> offset_;  // per vertex: its row's start, or kNoRow
};

/// The rows SELECT locates in for `policy` and `spec` on `view`'s graph,
/// built on first use and kept in the graph's memo (so every engine,
/// partition view, shard router and service batch over the graph shares
/// one table). Null when SELECT must rebuild the CTPS at every step: a
/// dynamic edge_bias, sampling without replacement, layer sampling (its
/// pool spans many vertices) or snowball (no SELECT).
/// Throws CheckError when the policy sets both edge_bias and
/// static_edge_bias.
const StaticCtpsRows* static_ctps_rows(const GraphView& view,
                                       const Policy& policy,
                                       const SamplingSpec& spec);

}  // namespace csaw
