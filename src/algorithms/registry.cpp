#include "algorithms/registry.hpp"

#include "algorithms/forest_fire.hpp"
#include "algorithms/layer_sampling.hpp"
#include "algorithms/mdrw.hpp"
#include "algorithms/neighbor_sampling.hpp"
#include "algorithms/node2vec.hpp"
#include "algorithms/random_walks.hpp"
#include "algorithms/snowball.hpp"
#include "util/check.hpp"

namespace csaw {

const std::vector<AlgorithmId>& all_algorithms() {
  static const std::vector<AlgorithmId> ids = {
      AlgorithmId::kUnbiasedNeighborSampling,
      AlgorithmId::kBiasedNeighborSampling,
      AlgorithmId::kForestFire,
      AlgorithmId::kSnowball,
      AlgorithmId::kLayerSampling,
      AlgorithmId::kSimpleRandomWalk,
      AlgorithmId::kDeepwalk,
      AlgorithmId::kBiasedRandomWalk,
      AlgorithmId::kMetropolisHastingsWalk,
      AlgorithmId::kRandomWalkWithJump,
      AlgorithmId::kRandomWalkWithRestart,
      AlgorithmId::kMultiDimRandomWalk,
      AlgorithmId::kNode2vec,
  };
  return ids;
}

AlgorithmInfo algorithm_info(AlgorithmId id) {
  switch (id) {
    case AlgorithmId::kUnbiasedNeighborSampling:
      return {"unbiased neighbor sampling", "unbiased", ">1", "constant",
              false};
    case AlgorithmId::kBiasedNeighborSampling:
      return {"biased neighbor sampling", "static", ">1", "constant", false};
    case AlgorithmId::kForestFire:
      return {"forest fire sampling", "unbiased", ">1", "variable", false};
    case AlgorithmId::kSnowball:
      return {"snowball sampling", "unbiased", ">1", "variable", true};
    case AlgorithmId::kLayerSampling:
      // Per-layer selection needs the whole frontier pool in one place.
      return {"layer sampling", "static", ">1", "per layer", true};
    case AlgorithmId::kSimpleRandomWalk:
      return {"simple random walk", "unbiased", "1", "constant", false};
    case AlgorithmId::kDeepwalk:
      return {"deepwalk", "unbiased", "1", "constant", false};
    case AlgorithmId::kBiasedRandomWalk:
      return {"biased random walk", "static", "1", "constant", false};
    case AlgorithmId::kMetropolisHastingsWalk:
      return {"metropolis-hastings random walk", "unbiased", "1", "constant",
              false};
    case AlgorithmId::kRandomWalkWithJump:
      return {"random walk with jump", "unbiased", "1", "constant", false};
    case AlgorithmId::kRandomWalkWithRestart:
      return {"random walk with restart", "unbiased", "1", "constant", false};
    case AlgorithmId::kMultiDimRandomWalk:
      // The frontier pool is whole-instance state (select_frontier).
      return {"multi-dimensional random walk", "dynamic", "1", "constant",
              true};
    case AlgorithmId::kNode2vec:
      return {"node2vec", "dynamic", "1", "constant", false};
  }
  CSAW_CHECK_MSG(false, "unknown algorithm id");
  throw CheckError("unreachable");
}

float weighted_degree_bias(const CsrGraph& graph, const EdgeRef& e) {
  return e.weight * static_cast<float>(graph.degree(e.u));
}

AlgorithmSetup make_algorithm(AlgorithmId id, std::uint32_t depth_or_length,
                              std::uint32_t neighbor_size) {
  switch (id) {
    case AlgorithmId::kUnbiasedNeighborSampling:
      return unbiased_neighbor_sampling(neighbor_size, depth_or_length);
    case AlgorithmId::kBiasedNeighborSampling:
      return biased_neighbor_sampling(neighbor_size, depth_or_length);
    case AlgorithmId::kForestFire:
      return forest_fire(/*pf=*/0.7, depth_or_length);
    case AlgorithmId::kSnowball:
      return snowball(depth_or_length);
    case AlgorithmId::kLayerSampling:
      return layer_sampling(neighbor_size, depth_or_length);
    case AlgorithmId::kSimpleRandomWalk:
    case AlgorithmId::kDeepwalk:
      return simple_random_walk(depth_or_length);
    case AlgorithmId::kBiasedRandomWalk:
      return biased_random_walk(depth_or_length);
    case AlgorithmId::kMetropolisHastingsWalk:
      return metropolis_hastings_walk(depth_or_length);
    case AlgorithmId::kRandomWalkWithJump:
      return random_walk_with_jump(depth_or_length, /*jump_probability=*/0.1);
    case AlgorithmId::kRandomWalkWithRestart:
      return random_walk_with_restart(depth_or_length,
                                      /*restart_probability=*/0.15);
    case AlgorithmId::kMultiDimRandomWalk:
      return multi_dimensional_random_walk(depth_or_length);
    case AlgorithmId::kNode2vec:
      return node2vec(depth_or_length, /*p=*/2.0, /*q=*/0.5);
  }
  CSAW_CHECK_MSG(false, "unknown algorithm id");
  throw CheckError("unreachable");
}

}  // namespace csaw
