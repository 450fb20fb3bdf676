#pragma once

#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/policy.hpp"

namespace csaw {

/// One configured algorithm: the policy (API hooks) plus the spec
/// (parameters). Everything the engine needs besides seeds.
struct AlgorithmSetup {
  Policy policy;
  SamplingSpec spec;
};

/// Table I coordinates of an algorithm, used by the design-space bench to
/// print the paper's classification.
struct AlgorithmInfo {
  std::string name;
  /// "unbiased" / "static" / "dynamic" — the bias criterion rows.
  std::string bias;
  /// "1" or ">1" neighbors per step (random walk vs sampling).
  std::string neighbors_per_step;
  /// "constant" / "variable" / "per layer" NeighborSize column.
  std::string neighbor_size_kind;
  /// True when the in-memory engine is required (unbounded branching).
  bool in_memory_only = false;
};

/// The static EDGEBIAS of Table I's "static" rows (paper Fig. 1): the
/// candidate's degree times the edge's weight (1 on unweighted graphs).
float weighted_degree_bias(const CsrGraph& graph, const EdgeRef& e);

/// Identifier for every algorithm C-SAW's paper discusses (§II-A).
enum class AlgorithmId {
  kUnbiasedNeighborSampling,  ///< uniform EDGEBIAS traversal sampling
  kBiasedNeighborSampling,    ///< degree/weight-biased traversal sampling
  kForestFire,                ///< geometric variable NeighborSize (Pf)
  kSnowball,                  ///< every neighbor of every sampled vertex
  kLayerSampling,             ///< per-layer selection from a pooled frontier
  kSimpleRandomWalk,          ///< uniform single walker
  kDeepwalk,                  ///< uniform walks, corpus-shaped defaults
  kBiasedRandomWalk,          ///< weight×degree edge bias
  kMetropolisHastingsWalk,    ///< accept/stay UPDATE hook
  kRandomWalkWithJump,        ///< probabilistic jump to a random vertex
  kRandomWalkWithRestart,     ///< probabilistic return to the seed
  kMultiDimRandomWalk,        ///< frontier-pool walk (select_frontier)
  kNode2vec,                  ///< prev-vertex-dependent 2nd-order bias
};

/// All algorithm ids in Table I order.
const std::vector<AlgorithmId>& all_algorithms();

/// Table I classification row of `id` (name, bias criterion, neighbors
/// per step, NeighborSize kind, engine restriction).
AlgorithmInfo algorithm_info(AlgorithmId id);

/// Builds the default-parameter setup used by tests and the design-space
/// bench (paper §VI test setup: NeighborSize=Depth=2 for sampling, walk
/// length for walks, Pf=0.7 for forest fire).
AlgorithmSetup make_algorithm(AlgorithmId id, std::uint32_t depth_or_length,
                              std::uint32_t neighbor_size = 2);

}  // namespace csaw
