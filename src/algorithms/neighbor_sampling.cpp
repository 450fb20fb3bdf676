#include "algorithms/neighbor_sampling.hpp"

namespace csaw {

AlgorithmSetup unbiased_neighbor_sampling(std::uint32_t neighbor_size,
                                          std::uint32_t depth) {
  AlgorithmSetup setup;
  setup.spec.neighbor_size = neighbor_size;
  setup.spec.depth = depth;
  setup.spec.with_replacement = false;
  setup.spec.filter_visited = true;
  // Uniform EDGEBIAS and advance-to-neighbor UPDATE are the defaults.
  return setup;
}

AlgorithmSetup biased_neighbor_sampling(std::uint32_t neighbor_size,
                                        std::uint32_t depth) {
  AlgorithmSetup setup = unbiased_neighbor_sampling(neighbor_size, depth);
  setup.policy.static_edge_bias = weighted_degree_bias;
  return setup;
}

}  // namespace csaw
