// Seeded cross-mode determinism fuzzer: ~50 randomized configurations
// (graph generator and size, algorithm, walk depth, instance count, tag
// layout, paged-capacity knobs) each run through every execution mode,
// both kernel schedules and host widths 1/2/7, asserting byte-identical
// per-instance samples against an in-memory step-barrier serial baseline
// — plus exact seps() equality across host widths for a fixed
// (mode, schedule), since host threading must never reach the simulated
// timeline. Walk-shaped configs additionally run through the shard
// router at a random shard count in {1..4}, byte-exact against the same
// baseline.
//
// Every random choice derives from one master seed, printed at the start
// of the suite and overridable via CSAW_FUZZ_SEED, so any failure
// reproduces by exporting the logged seed. Per-config seeds are logged in
// each assertion's scope too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/sampler.hpp"
#include "graph/generators.hpp"
#include "shard/router.hpp"

namespace csaw {
namespace {

constexpr std::uint64_t kDefaultMasterSeed = 0xC5A7F00Dull;
constexpr std::uint32_t kNumConfigs = 50;
constexpr std::uint32_t kWidths[] = {1, 2, 7};

std::uint64_t master_seed() {
  static const std::uint64_t seed = [] {
    std::uint64_t s = kDefaultMasterSeed;
    if (const char* env = std::getenv("CSAW_FUZZ_SEED")) {
      s = std::strtoull(env, nullptr, 0);
    }
    // The reproduction handle: re-run any failure with
    // CSAW_FUZZ_SEED=<this value>.
    std::printf("[ fuzz     ] master seed 0x%llx\n",
                static_cast<unsigned long long>(s));
    return s;
  }();
  return seed;
}

enum class GraphKind { kRmat, kErdosRenyi, kBarabasiAlbert };

/// One drawn configuration: everything needed to rebuild the exact run.
struct FuzzConfig {
  std::uint64_t config_seed = 0;
  GraphKind graph_kind = GraphKind::kRmat;
  std::uint32_t num_vertices = 0;
  std::uint32_t num_edges = 0;
  std::uint64_t graph_seed = 0;
  AlgorithmId algorithm = AlgorithmId::kSimpleRandomWalk;
  std::uint32_t depth_or_length = 0;
  std::uint32_t num_instances = 0;
  /// Strictly increasing global RNG ids, one per instance — either the
  /// contiguous offset layout or a gapped service-style layout.
  std::vector<std::uint32_t> tags;
  bool contiguous_tags = false;
  std::vector<VertexId> seeds;
  // Paged-capacity knobs, used whenever the OOM backend executes.
  std::uint32_t num_partitions = 4;
  std::uint32_t resident_partitions = 2;
  bool oom_capable = false;
  /// One edge per step (Table I "neighbors per step" == 1): the class
  /// whose bytes are order-independent of frontier processing, and hence
  /// the class covered by the cross-backend byte contract.
  bool is_walk = false;

  std::string describe() const {
    std::string kind = graph_kind == GraphKind::kRmat            ? "rmat"
                       : graph_kind == GraphKind::kErdosRenyi    ? "er"
                                                                 : "ba";
    return "config_seed=0x" + [this] {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%llx",
                    static_cast<unsigned long long>(config_seed));
      return std::string(buf);
    }() + " graph=" + kind + "(" + std::to_string(num_vertices) + "v," +
           std::to_string(num_edges) + "e,seed=" +
           std::to_string(graph_seed) + ") algo=" +
           algorithm_info(algorithm).name + " depth=" +
           std::to_string(depth_or_length) + " instances=" +
           std::to_string(num_instances) +
           (contiguous_tags ? " tags=contiguous@" : " tags=gapped@") +
           std::to_string(tags.front()) + " parts=" +
           std::to_string(num_partitions) + "/" +
           std::to_string(resident_partitions);
  }
};

std::uint32_t pick(std::mt19937_64& rng, std::uint32_t lo, std::uint32_t hi) {
  return std::uniform_int_distribution<std::uint32_t>(lo, hi)(rng);
}

FuzzConfig draw_config(std::uint64_t config_seed) {
  std::mt19937_64 rng(config_seed);
  FuzzConfig config;
  config.config_seed = config_seed;

  config.graph_kind = static_cast<GraphKind>(pick(rng, 0, 2));
  config.num_vertices = pick(rng, 64, 256);
  config.num_edges = config.num_vertices * pick(rng, 2, 6);
  config.graph_seed = rng();

  // A spread over Table I: walks (single walker, second-order, restart,
  // accept/stay) and multi-neighbor sampling (uniform, biased, forest
  // fire, layer, frontier-pool). in_memory_only specs stay in the pool —
  // the OOM/multi-device legs simply gate on capability below.
  constexpr AlgorithmId kPool[] = {
      AlgorithmId::kSimpleRandomWalk,
      AlgorithmId::kBiasedRandomWalk,
      AlgorithmId::kDeepwalk,
      AlgorithmId::kNode2vec,
      AlgorithmId::kRandomWalkWithRestart,
      AlgorithmId::kMetropolisHastingsWalk,
      AlgorithmId::kUnbiasedNeighborSampling,
      AlgorithmId::kBiasedNeighborSampling,
      AlgorithmId::kForestFire,
      AlgorithmId::kLayerSampling,
      AlgorithmId::kMultiDimRandomWalk,
  };
  config.algorithm = kPool[pick(rng, 0, std::size(kPool) - 1)];
  const AlgorithmInfo info = algorithm_info(config.algorithm);
  // Walks can afford longer chains; branching samplers stay shallow so a
  // config never explodes past the toy-graph scale.
  const bool is_walk = info.neighbors_per_step == "1";
  config.depth_or_length = is_walk ? pick(rng, 4, 16) : pick(rng, 2, 4);
  config.num_instances = pick(rng, 4, 12);

  config.contiguous_tags = pick(rng, 0, 1) == 0;
  std::uint32_t tag = pick(rng, 0, 512);
  for (std::uint32_t i = 0; i < config.num_instances; ++i) {
    config.tags.push_back(tag);
    tag += config.contiguous_tags ? 1 : pick(rng, 1, 9);
  }

  config.num_partitions = pick(rng, 3, 6);
  config.resident_partitions =
      pick(rng, 1, std::min(3u, config.num_partitions - 1));
  return config;
}

CsrGraph build_graph(const FuzzConfig& config) {
  switch (config.graph_kind) {
    case GraphKind::kErdosRenyi:
      return generate_erdos_renyi(config.num_vertices, config.num_edges,
                                  config.graph_seed, /*weighted=*/true);
    case GraphKind::kBarabasiAlbert:
      return generate_barabasi_albert(
          config.num_vertices,
          std::max<VertexId>(2, config.num_edges / config.num_vertices),
          config.graph_seed, /*weighted=*/true);
    case GraphKind::kRmat:
    default:
      return generate_rmat(config.num_vertices, config.num_edges,
                           config.graph_seed, {}, /*weighted=*/true);
  }
}

RunResult run_config(const FuzzConfig& config, const CsrGraph& graph,
                     ExecutionMode mode, Schedule schedule,
                     std::uint32_t threads) {
  SamplerOptions options;
  options.mode = mode;
  options.schedule = schedule;
  options.num_threads = threads;
  options.num_partitions = config.num_partitions;
  options.resident_partitions = config.resident_partitions;
  if (mode == ExecutionMode::kOutOfMemory) {
    options.memory_assumption = MemoryAssumption::kExceeds;
  }
  if (mode == ExecutionMode::kMultiDevice) {
    options.num_devices = 2;
    // Page the per-device backends too when the byte contract reaches
    // them (OOM-capable walks); samplers keep in-memory backends so the
    // leg stays comparable against the in-memory baseline.
    options.memory_assumption = config.oom_capable && config.is_walk
                                    ? MemoryAssumption::kExceeds
                                    : MemoryAssumption::kFits;
  }
  Sampler sampler(graph,
                  make_algorithm(config.algorithm, config.depth_or_length),
                  options);
  const auto seeds = expand_single_seeds(config.seeds);
  return sampler.run_tagged(seeds, config.tags);
}

void expect_same_samples(const SampleStore& got, const SampleStore& want,
                         const std::string& label) {
  ASSERT_EQ(got.num_instances(), want.num_instances()) << label;
  for (std::uint32_t i = 0; i < got.num_instances(); ++i) {
    ASSERT_EQ(got.edges(i), want.edges(i)) << label << ", instance " << i;
  }
}

TEST(DeterminismFuzz, EveryConfigMatchesSerialBarrierBaseline) {
  std::mt19937_64 master(master_seed());
  for (std::uint32_t c = 0; c < kNumConfigs; ++c) {
    FuzzConfig config = draw_config(master());
    const CsrGraph graph = build_graph(config);
    // The generators compact isolated vertices away, so seed vertices are
    // drawn against the realized vertex count.
    std::mt19937_64 seed_rng(config.config_seed ^ 0x5eedull);
    for (std::uint32_t i = 0; i < config.num_instances; ++i) {
      config.seeds.push_back(static_cast<VertexId>(
          seed_rng() % graph.num_vertices()));
    }
    const AlgorithmSetup setup =
        make_algorithm(config.algorithm, config.depth_or_length);
    config.oom_capable = in_memory_only_reason(setup.spec).empty();
    config.is_walk =
        algorithm_info(config.algorithm).neighbors_per_step == "1";
    SCOPED_TRACE("config #" + std::to_string(c) + " " + config.describe());

    // Baseline: serial host, in-memory engine, step-barrier schedule.
    const RunResult baseline =
        run_config(config, graph, ExecutionMode::kInMemory,
                   Schedule::kStepBarrier, /*threads=*/1);
    ASSERT_EQ(baseline.samples.num_instances(), config.num_instances);

    // Cross-mode / cross-schedule legs vs the baseline, scoped to the
    // contract the repo makes (tests/oom/paged_determinism_test.cpp):
    // walks are byte-identical across every backend; multi-neighbor
    // samplers only across in-memory-backed executions, because the
    // paged backend's frontier grouping feeds next-depth slot
    // assignment. One host width per leg, rotated deterministically so
    // the corpus as a whole covers every pairing.
    std::vector<ExecutionMode> modes = {ExecutionMode::kInMemory,
                                        ExecutionMode::kMultiDevice};
    if (config.oom_capable && config.is_walk) {
      modes.push_back(ExecutionMode::kOutOfMemory);
    }
    std::uint32_t rotation = static_cast<std::uint32_t>(config.config_seed);
    for (const ExecutionMode mode : modes) {
      for (const Schedule schedule :
           {Schedule::kPipelined, Schedule::kStepBarrier}) {
        const std::uint32_t threads = kWidths[rotation++ % std::size(kWidths)];
        const std::string label = to_string(mode) +
                                  (schedule == Schedule::kPipelined
                                       ? "/pipelined @ "
                                       : "/barrier @ ") +
                                  std::to_string(threads) + " threads";
        const RunResult got =
            run_config(config, graph, mode, schedule, threads);
        // Pipelining may interleave two instances' appends only across
        // instances, never within one — per-instance bytes stay
        // order-exact on in-memory backends for every algorithm class.
        expect_same_samples(got.samples, baseline.samples, label);
      }
    }

    // Sharded leg: walk-shaped specs route through the shard tier at a
    // random shard count, and the bytes must not notice — Philox streams
    // are keyed by the global instance tag, so shard placement (like
    // host threading) is invisible. Drawn from its own rng so the leg
    // never perturbs which cross-mode pairings the corpus covers.
    if (setup.spec.walk_shaped()) {
      std::mt19937_64 shard_rng(config.config_seed ^ 0x54a4dull);
      const std::uint32_t shards = pick(shard_rng, 1, 4);
      const std::uint32_t shard_threads =
          kWidths[pick(shard_rng, 0, std::size(kWidths) - 1)];
      SamplerOptions shard_options;
      shard_options.num_threads = shard_threads;
      ShardRouter router(graph, setup, shard_options, {.shards = shards});
      const RunResult sharded = router.run_tagged(
          expand_single_seeds(config.seeds), config.tags);
      expect_same_samples(sharded.samples, baseline.samples,
                          "sharded @ " + std::to_string(shards) +
                              " shards, " + std::to_string(shard_threads) +
                              " threads");
    }

    // Host-width sweep on one fixed (mode, schedule): bytes AND the
    // simulated timeline (hence seps()) must be exactly identical — host
    // threading is invisible to the cost model, not just to the samples.
    // OOM-capable samplers sweep the paged backend here, which is how
    // the corpus still exercises paged sampling outside the walk class.
    const ExecutionMode sweep_mode = config.oom_capable && !config.is_walk
                                         ? ExecutionMode::kOutOfMemory
                                         : modes[rotation % modes.size()];
    const Schedule sweep_schedule = (rotation / modes.size()) % 2 == 0
                                        ? Schedule::kPipelined
                                        : Schedule::kStepBarrier;
    const std::string sweep_label =
        "width sweep on " + to_string(sweep_mode);
    RunResult first =
        run_config(config, graph, sweep_mode, sweep_schedule, kWidths[0]);
    if (sweep_mode != ExecutionMode::kOutOfMemory || config.is_walk) {
      expect_same_samples(first.samples, baseline.samples, sweep_label);
    }
    for (std::size_t w = 1; w < std::size(kWidths); ++w) {
      const RunResult wide =
          run_config(config, graph, sweep_mode, sweep_schedule, kWidths[w]);
      // Same mode and schedule: host width must be invisible down to the
      // append order, for every algorithm class.
      expect_same_samples(wide.samples, first.samples, sweep_label);
      ASSERT_EQ(wide.sim_seconds, first.sim_seconds)
          << sweep_label << " @ " << kWidths[w] << " threads";
      ASSERT_EQ(wide.seps(), first.seps())
          << sweep_label << " @ " << kWidths[w] << " threads";
    }
  }
}

}  // namespace
}  // namespace csaw
