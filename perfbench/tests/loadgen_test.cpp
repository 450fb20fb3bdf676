// The gnn_serve arrival schedule is replayable: the same seed gives the
// same schedule, another seed a different one, and the realized mean rate
// matches the target. Run: ctest in the perfbench build directory.

#include <cmath>
#include <iostream>

#include "loadgen.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::cerr << "FAILED: " << what << "\n";
    ++failures;
  }
}

bool same(const std::vector<csaw::perfbench::Arrival>& a,
          const std::vector<csaw::perfbench::Arrival>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].at_s != b[i].at_s || a[i].tenant != b[i].tenant ||
        a[i].graph != b[i].graph || a[i].walk != b[i].walk ||
        a[i].rng_base != b[i].rng_base || a[i].seeds != b[i].seeds) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace csaw::perfbench;
  ScheduleSpec spec;
  spec.duration_s = 10.0;
  spec.target_rps = 150.0;
  spec.graph_vertices[0] = 1000;
  spec.graph_vertices[1] = 500;

  const auto a = make_schedule(spec, 42);
  const auto b = make_schedule(spec, 42);
  const auto c = make_schedule(spec, 43);
  expect(same(a, b), "same seed gives the same schedule");
  expect(!same(a, c), "a different seed gives a different schedule");

  // Realized rate: the count is fixed, and the arrivals must spread over
  // the whole schedule (no pile-up at either end).
  const double rate = static_cast<double>(a.size()) / spec.duration_s;
  expect(std::abs(rate - spec.target_rps) <= 0.02 * spec.target_rps,
         "realized mean rate within 2% of the target");
  std::size_t first_half = 0;
  for (const Arrival& x : a) first_half += x.at_s < spec.duration_s / 2;
  expect(std::abs(static_cast<double>(first_half) / a.size() - 0.5) < 0.05,
         "arrivals spread evenly over the two halves");

  // Mix: tenants, graphs, algorithms and sizes within their ranges and
  // shares; bursts raise the bursty tenant's rate.
  std::size_t steady = 0, walks = 0, in_burst = 0, bursty = 0;
  std::uint32_t next_base = 0;
  bool sorted = true, sizes_ok = true, seeds_ok = true, bases_ok = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Arrival& x = a[i];
    sorted = sorted && (i == 0 || a[i - 1].at_s <= x.at_s);
    sizes_ok = sizes_ok && x.seeds.size() >= spec.min_instances &&
               x.seeds.size() <= spec.max_instances;
    for (const auto v : x.seeds) {
      seeds_ok = seeds_ok && v < spec.graph_vertices[x.graph];
    }
    bases_ok = bases_ok && x.rng_base == next_base;
    next_base += static_cast<std::uint32_t>(x.seeds.size());
    steady += x.tenant == 0;
    walks += x.walk;
    if (x.tenant == 1) {
      ++bursty;
      in_burst += std::fmod(x.at_s, spec.burst_period_s) < spec.burst_len_s;
    }
  }
  expect(sorted, "arrivals sorted by time");
  expect(sizes_ok, "instances per request within [min, max]");
  expect(seeds_ok, "seed vertices within their graph");
  expect(bases_ok, "Philox ranges disjoint and increasing");
  const double n = static_cast<double>(a.size());
  expect(std::abs(steady / n - spec.steady_share) < 0.05, "tenant share");
  expect(std::abs(walks / n - (1.0 - spec.sampling_share)) < 0.05,
         "walk share");
  const double burst_time_share = spec.burst_len_s / spec.burst_period_s;
  const double expected_burst_share = burst_time_share * spec.burst_factor;
  expect(std::abs(static_cast<double>(in_burst) / bursty -
                  expected_burst_share) < 0.06,
         "bursty tenant's arrivals concentrate in bursts");

  if (failures == 0) std::cout << "loadgen_test: OK\n";
  return failures == 0 ? 0 : 1;
}
