#include "loadgen.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace csaw::perfbench {

double burst_multiplier(const ScheduleSpec& spec, double t) {
  const double phase = std::fmod(t, spec.burst_period_s);
  if (phase < spec.burst_len_s) return spec.burst_factor;
  return (spec.burst_period_s - spec.burst_len_s * spec.burst_factor) /
         (spec.burst_period_s - spec.burst_len_s);
}

std::vector<Arrival> make_schedule(const ScheduleSpec& spec,
                                   std::uint64_t seed) {
  CSAW_CHECK(spec.duration_s > 0.0 && spec.target_rps > 0.0);
  CSAW_CHECK(spec.burst_len_s < spec.burst_period_s);
  CSAW_CHECK_MSG(spec.burst_len_s * spec.burst_factor <= spec.burst_period_s,
                 "bursts would need a negative rate between them");
  CSAW_CHECK(spec.min_instances >= 1 &&
             spec.min_instances <= spec.max_instances);

  Xoshiro256 rng(seed);
  const auto count = static_cast<std::size_t>(
      std::llround(spec.target_rps * spec.duration_s));
  std::vector<Arrival> arrivals(count);
  for (Arrival& a : arrivals) {
    a.tenant = rng.uniform() < spec.steady_share ? 0 : 1;
    if (a.tenant == 0) {
      a.at_s = rng.uniform() * spec.duration_s;
    } else {
      // Rejection sampling from the density proportional to the bursty
      // tenant's rate multiplier.
      do {
        a.at_s = rng.uniform() * spec.duration_s;
      } while (rng.uniform() * spec.burst_factor >
               burst_multiplier(spec, a.at_s));
    }
    a.graph = static_cast<std::uint32_t>(rng.bounded(2));
    a.walk = rng.uniform() >= spec.sampling_share;
    const auto instances = static_cast<std::uint32_t>(
        spec.min_instances +
        rng.bounded(spec.max_instances - spec.min_instances + 1));
    a.seeds.resize(instances);
    for (VertexId& v : a.seeds) {
      v = static_cast<VertexId>(rng.bounded(spec.graph_vertices[a.graph]));
    }
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& x, const Arrival& y) { return x.at_s < y.at_s; });
  // Philox ranges assigned in send order, disjoint and increasing.
  std::uint32_t next_base = 0;
  for (Arrival& a : arrivals) {
    a.rng_base = next_base;
    next_base += static_cast<std::uint32_t>(a.seeds.size());
  }
  return arrivals;
}

}  // namespace csaw::perfbench
