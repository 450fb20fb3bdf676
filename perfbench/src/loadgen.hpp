#pragma once

// Seeded open-loop arrival schedule for the gnn_serve workload: Poisson
// arrivals from a steady tenant plus a bursty tenant whose rate steps up
// periodically, with a graph, algorithm and request-size mix. The schedule
// is a pure function of (spec, seed), so a run can be replayed exactly.

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"

namespace csaw::perfbench {

struct ScheduleSpec {
  double duration_s = 10.0;
  /// Mean offered rate over the whole schedule, both tenants together.
  double target_rps = 100.0;
  /// Share of the mean rate the steady tenant offers; the bursty tenant
  /// offers the rest.
  double steady_share = 0.5;
  /// Bursts: every `burst_period_s` the bursty tenant runs at
  /// `burst_factor` times its mean rate for `burst_len_s`, and at a lower
  /// rate between bursts so that its mean is unchanged.
  double burst_period_s = 2.0;
  double burst_len_s = 0.4;
  double burst_factor = 1.6;
  /// Share of requests that are neighbor sampling; the rest are walks.
  double sampling_share = 0.8;
  std::uint32_t min_instances = 4;
  std::uint32_t max_instances = 32;
  /// Vertex counts of the two graphs seeds are drawn from.
  VertexId graph_vertices[2] = {1, 1};
};

struct Arrival {
  double at_s = 0.0;  ///< scheduled send time, from schedule start
  std::uint32_t tenant = 0;  ///< 0 = steady, 1 = bursty
  std::uint32_t graph = 0;   ///< index into ScheduleSpec::graph_vertices
  bool walk = false;         ///< short biased walk instead of sampling
  std::uint32_t rng_base = 0;  ///< pinned Philox base; ranges never overlap
  std::vector<VertexId> seeds;  ///< one seed vertex per instance
};

/// The bursty tenant's instantaneous rate multiplier at time t (mean 1
/// over a whole burst period).
double burst_multiplier(const ScheduleSpec& spec, double t);

/// Generates the schedule. The arrival count is fixed at
/// round(target_rps * duration_s) (a Poisson process conditioned on its
/// count), so offered load does not drift between seeds; arrival times,
/// tenants, graphs, algorithms, sizes and seed vertices are drawn from
/// `seed`. Sorted by at_s.
std::vector<Arrival> make_schedule(const ScheduleSpec& spec,
                                   std::uint64_t seed);

}  // namespace csaw::perfbench
