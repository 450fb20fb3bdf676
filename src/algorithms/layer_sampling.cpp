#include "algorithms/layer_sampling.hpp"

namespace csaw {

AlgorithmSetup layer_sampling(std::uint32_t layer_size, std::uint32_t depth) {
  AlgorithmSetup setup;
  setup.spec.layer_mode = true;
  setup.spec.neighbor_size = layer_size;
  setup.spec.depth = depth;
  setup.spec.filter_visited = true;
  setup.spec.with_replacement = false;
  setup.spec.branching_cap = layer_size;
  setup.policy.static_edge_bias = weighted_degree_bias;
  return setup;
}

}  // namespace csaw
