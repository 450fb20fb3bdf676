#include "bench_common.hpp"

#include <algorithm>
#include <iostream>
#include <map>

#include "algorithms/forest_fire.hpp"
#include "algorithms/layer_sampling.hpp"
#include "algorithms/neighbor_sampling.hpp"
#include "algorithms/random_walks.hpp"
#include "util/cli.hpp"
#include "util/philox.hpp"
#include "util/rng.hpp"

namespace csaw::bench {

BenchEnv BenchEnv::from_env() {
  BenchEnv env;
  env.sampling_instances = static_cast<std::uint32_t>(env_int_or(
      "CSAW_INSTANCES", env.sampling_instances));
  env.walk_instances = static_cast<std::uint32_t>(env_int_or(
      "CSAW_WALK_INSTANCES", env.walk_instances));
  env.walk_length = static_cast<std::uint32_t>(env_int_or(
      "CSAW_WALK_LENGTH", env.walk_length));
  env.mdrw_instances = static_cast<std::uint32_t>(env_int_or(
      "CSAW_MDRW_INSTANCES", env.mdrw_instances));
  env.seed = static_cast<std::uint64_t>(
      env_int_or("CSAW_SEED", static_cast<std::int64_t>(env.seed)));
  return env;
}

const CsrGraph& dataset(const std::string& abbr) {
  static std::map<std::string, CsrGraph> cache;
  auto it = cache.find(abbr);
  if (it == cache.end()) {
    it = cache.emplace(abbr, make_dataset(dataset_by_abbr(abbr))).first;
  }
  return it->second;
}

std::vector<VertexId> make_seeds(const CsrGraph& graph, std::uint32_t n,
                                 std::uint64_t seed) {
  Xoshiro256 rng(mix64(seed));
  std::vector<VertexId> seeds(n);
  for (auto& s : seeds) {
    s = static_cast<VertexId>(rng.bounded(graph.num_vertices()));
  }
  return seeds;
}

std::vector<std::vector<VertexId>> make_pools(const CsrGraph& graph,
                                              std::uint32_t n,
                                              std::uint32_t pool_size,
                                              std::uint64_t seed) {
  Xoshiro256 rng(mix64(seed ^ 0x9E3779B9ull));
  std::vector<std::vector<VertexId>> pools(n);
  for (auto& pool : pools) {
    pool.resize(pool_size);
    for (auto& v : pool) {
      v = static_cast<VertexId>(rng.bounded(graph.num_vertices()));
    }
  }
  return pools;
}

sim::DeviceParams oom_device_params(const DatasetSpec& spec,
                                    const CsrGraph& graph) {
  sim::DeviceParams params;
  const double ratio = static_cast<double>(graph.bytes()) /
                       static_cast<double>(spec.paper_csr_bytes);
  // 30x: the kernel model's per-round cost understates real divergence
  // and latency effects by roughly this factor, so the link is scaled by
  // the same amount to preserve the paper's transfer:compute balance.
  constexpr double kTransferComputeCalibration = 30.0;
  params.link_gbytes_per_sec = std::min(
      params.link_gbytes_per_sec,
      params.link_gbytes_per_sec * ratio * kTransferComputeCalibration);
  return params;
}

SamplerOptions oom_bench_options(const DatasetSpec& spec,
                                 const CsrGraph& graph) {
  SamplerOptions options;
  options.mode = ExecutionMode::kOutOfMemory;
  options.device_params = oom_device_params(spec, graph);
  options.num_partitions = 4;
  options.resident_partitions = 2;
  // Figs. 13-15 measure per-wave scheduling effects (launch counts,
  // per-stream kernel imbalance, transfer cadence) of the paper's
  // barriered executor — pin the schedule so the pipelined default does
  // not reshape what the figures quantify. The pipelined gain itself is
  // tracked separately by the trajectory harness (docs/BENCHMARKS.md).
  options.schedule = Schedule::kStepBarrier;
  return options;
}

void print_banner(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n"
            << "Regenerates: " << paper_ref << "\n"
            << "Scale knobs: CSAW_EDGE_CAP, CSAW_INSTANCES, "
               "CSAW_WALK_INSTANCES, CSAW_WALK_LENGTH, CSAW_SEED\n\n";
}

const std::vector<InMemConfig>& fig10_configs() {
  static const std::vector<InMemConfig> configs = [] {
    std::vector<InMemConfig> c(4);
    c[0].label = "repeated";
    c[0].select.policy = CollisionPolicy::kRepeatedSampling;
    c[0].select.detector = DetectorKind::kLinearSearch;
    c[1].label = "updated";
    c[1].select.policy = CollisionPolicy::kUpdatedSampling;
    c[1].select.detector = DetectorKind::kLinearSearch;
    c[2].label = "bipartite";
    c[2].select.policy = CollisionPolicy::kBipartiteRegionSearch;
    c[2].select.detector = DetectorKind::kLinearSearch;
    c[3].label = "bipartite+bitmap";
    c[3].select.policy = CollisionPolicy::kBipartiteRegionSearch;
    c[3].select.detector = DetectorKind::kBitmapStrided;
    return c;
  }();
  return configs;
}

const std::vector<BenchApp>& inmem_apps() {
  static const std::vector<BenchApp> apps = {
      {"biased neighbor sampling", biased_neighbor_sampling(2, 2), true},
      {"forest fire sampling", forest_fire(0.7, 2), true},
      {"layer sampling", layer_sampling(2, 2), false},
      {"unbiased neighbor sampling", unbiased_neighbor_sampling(2, 2), true},
  };
  return apps;
}

std::vector<BenchApp> oom_apps(std::uint32_t walk_length) {
  return {
      {"biased neighbor sampling", biased_neighbor_sampling(2, 2), true},
      {"biased random walk", biased_random_walk(walk_length), true},
      {"forest fire sampling", forest_fire(0.7, 2), true},
      {"unbiased neighbor sampling", unbiased_neighbor_sampling(2, 2), true},
  };
}

}  // namespace csaw::bench
