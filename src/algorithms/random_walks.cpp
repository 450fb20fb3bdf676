#include "algorithms/random_walks.hpp"

#include "util/check.hpp"

namespace csaw {
namespace {

/// Common walk-shaped spec: one neighbor per step, revisits allowed, walk
/// length as depth.
SamplingSpec walk_spec(std::uint32_t length) {
  SamplingSpec spec;
  spec.neighbor_size = 1;
  spec.depth = length;
  spec.with_replacement = true;
  spec.filter_visited = false;
  return spec;
}

}  // namespace

AlgorithmSetup simple_random_walk(std::uint32_t length) {
  AlgorithmSetup setup;
  setup.spec = walk_spec(length);
  return setup;
}

AlgorithmSetup biased_random_walk(std::uint32_t length) {
  AlgorithmSetup setup;
  setup.spec = walk_spec(length);
  // Static: walks locate in CTPS rows built once per graph.
  setup.policy.static_edge_bias = weighted_degree_bias;
  return setup;
}

AlgorithmSetup metropolis_hastings_walk(std::uint32_t length) {
  AlgorithmSetup setup;
  setup.spec = walk_spec(length);
  // Uniform proposal (EDGEBIAS = 1); the UPDATE hook implements the
  // accept/stay decision of the paper's §II-A description.
  setup.policy.update = [](const GraphView& view, const EdgeRef& e,
                           const InstanceContext&, double r) {
    const double accept =
        static_cast<double>(view.degree(e.v)) /
        static_cast<double>(view.degree(e.u));
    return r < accept ? e.u : e.v;
  };
  return setup;
}

AlgorithmSetup random_walk_with_jump(std::uint32_t length,
                                     double jump_probability) {
  CSAW_CHECK(jump_probability >= 0.0 && jump_probability < 1.0);
  AlgorithmSetup setup;
  setup.spec = walk_spec(length);
  setup.policy.update = [p = jump_probability](const GraphView& view,
                                               const EdgeRef& e,
                                               const InstanceContext&,
                                               double r) {
    if (r < p) {
      // Reuse the decision draw: r/p is uniform in [0,1) conditioned on
      // jumping, so the jump target stays schedule-independent.
      const auto target = static_cast<VertexId>(
          r / p * static_cast<double>(view.num_vertices()));
      return std::min<VertexId>(target, view.num_vertices() - 1);
    }
    return e.u;
  };
  return setup;
}

AlgorithmSetup random_walk_with_restart(std::uint32_t length,
                                        double restart_probability) {
  CSAW_CHECK(restart_probability >= 0.0 && restart_probability < 1.0);
  AlgorithmSetup setup;
  setup.spec = walk_spec(length);
  setup.policy.update = [p = restart_probability](const GraphView&,
                                                  const EdgeRef& e,
                                                  const InstanceContext& ctx,
                                                  double r) {
    if (r < p && ctx.seed_vertex != kInvalidVertex) return ctx.seed_vertex;
    return e.u;
  };
  return setup;
}

}  // namespace csaw
