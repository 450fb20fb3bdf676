#pragma once

#include <cstdint>

#include "graph/builder.hpp"
#include "graph/csr.hpp"

namespace csaw {

/// Parameters of the recursive-matrix (R-MAT / Kronecker) generator used
/// to synthesize power-law graphs standing in for the paper's SNAP/KONECT
/// datasets (see docs/BENCHMARKS.md "Synthetic stand-ins for the Table II
/// graphs" for the substitution argument).
struct RmatParams {
  /// Quadrant probabilities; must sum to ~1. The classic skewed setting
  /// (0.57, 0.19, 0.19, 0.05) yields the heavy-tailed degree distribution
  /// typical of social networks.
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;
  double d = 0.05;
  /// Per-level multiplicative noise on the quadrant probabilities, which
  /// avoids the artificial self-similarity of noiseless R-MAT.
  double noise = 0.1;
};

/// Generates an R-MAT graph with ~`num_edges` undirected edges over
/// 2^ceil(log2(num_vertices)) cells, then compacts isolated ids away so
/// the result has no zero-degree tail. If `weighted`, edge weights are
/// uniform in (0, 1].
CsrGraph generate_rmat(VertexId num_vertices, EdgeIndex num_edges,
                       std::uint64_t seed, const RmatParams& params = {},
                       bool weighted = false);

/// Erdős–Rényi G(n, m): m distinct undirected edges chosen uniformly.
CsrGraph generate_erdos_renyi(VertexId num_vertices, EdgeIndex num_edges,
                              std::uint64_t seed, bool weighted = false);

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `edges_per_vertex` existing vertices with probability proportional to
/// their current degree.
CsrGraph generate_barabasi_albert(VertexId num_vertices,
                                  VertexId edges_per_vertex,
                                  std::uint64_t seed, bool weighted = false);

// Small deterministic graphs for tests and examples. All undirected.
CsrGraph make_path(VertexId n);
CsrGraph make_cycle(VertexId n);
/// Star with center 0 and n-1 leaves.
CsrGraph make_star(VertexId n);
CsrGraph make_complete(VertexId n);
/// rows x cols 4-neighbor grid.
CsrGraph make_grid(VertexId rows, VertexId cols);

/// The 13-vertex toy graph of the paper's Fig. 1(a)/Fig. 8, reconstructed
/// so that v8's neighbors are {5,7,9,10,11} with degrees {3,6,2,2,2} —
/// the exact bias vector used in the paper's worked examples — and so the
/// Fig. 8 walk (0→7, 2→3, 8→5, 3→4) exists under the 3-way range
/// partition {0–3}, {4–7}, {8–12}.
CsrGraph make_paper_toy_graph();

}  // namespace csaw
