// Seeded cross-path determinism fuzzer: ~50 randomized configurations
// (graph generator and size, algorithm, walk depth, instance count, tag
// layout, paged-capacity knobs, shard count) each run through a slice of
// the execution-path matrix (tests/paths.hpp) shaped by the config:
// every Sampler backend under both schedules, the shard router and one
// service path, each at a rotated host width, and one of them at every
// width. The matrix holds each run to the in-memory step-barrier serial
// oracle under its path's contract, and the swept family to exact
// equality of samples, clocks (hence seps()) and stats across widths,
// since host threading must never reach the simulated timeline.
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
#include "../paths.hpp"

namespace csaw {
namespace {

constexpr std::uint64_t kDefaultMasterSeed = 0xC5A7F00Dull;
constexpr std::uint32_t kNumConfigs = 50;

using testing::Contract;
using testing::execution_paths;
using testing::expect_matrix;
using testing::Front;
using testing::kWidths;
using testing::Path;
using testing::PathShape;

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
  // Paged-capacity knobs of the paged paths, and the router's shard
  // count.
  std::uint32_t num_partitions = 4;
  std::uint32_t resident_partitions = 2;
  std::uint32_t shards = 1;

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
           std::to_string(resident_partitions) + " shards=" +
           std::to_string(shards);
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
  // the paged paths state them unsupported.
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

/// The slice of the matrix one config runs: every Sampler and router
/// family at one host width, rotated so the corpus as a whole covers every
/// pairing; one service family, rotated the same way; and one family at
/// every width, where host width must be invisible down to the simulated
/// timeline (hence seps()) for every algorithm class. A branching spec
/// that pages sweeps a paged family: the width law is all its known
/// difference leaves to check.
std::vector<Path> fuzz_slice(const std::vector<Path>& matrix,
                             const AlgorithmSetup& setup,
                             std::uint32_t rotation) {
  std::vector<std::string> services;
  std::vector<std::string> others;
  std::vector<std::string> known_differences;
  for (const Path& path : matrix) {
    auto& families = path.front == Front::kService ? services
                     : path.contract(setup) == Contract::kKnownDifference
                         ? known_differences
                         : others;
    if (families.empty() || families.back() != path.family) {
      families.push_back(path.family);
    }
  }
  const std::string& service = services[rotation % services.size()];
  const auto& sweepable =
      known_differences.empty() ? others : known_differences;
  const std::string& swept = sweepable[(rotation / 3) % sweepable.size()];
  std::vector<Path> slice;
  std::uint32_t family = 0;
  for (std::size_t p = 0; p < matrix.size(); ++p) {
    const Path& path = matrix[p];
    if (p > 0 && matrix[p - 1].family != path.family) ++family;
    if (path.front == Front::kService && path.family != service) continue;
    if (path.family == swept ||
        path.threads() == kWidths[(rotation + family) % std::size(kWidths)]) {
      slice.push_back(path);
    }
  }
  return slice;
}

TEST(DeterminismFuzz, EveryConfigMatchesTheOracleOnTheMatrix) {
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
    // The shard count comes from its own rng so it never perturbs the
    // other draws.
    std::mt19937_64 shard_rng(config.config_seed ^ 0x54a4dull);
    config.shards = pick(shard_rng, 1, 4);
    SCOPED_TRACE("config #" + std::to_string(c) + " " + config.describe());

    // Every path of the slice against the in-memory step-barrier serial
    // oracle, under the contract each path states for the spec
    // (tests/paths.hpp): walks are byte-identical on every backend;
    // branching specs on a paged backend are the known difference of
    // ROADMAP item 6, held to the width law only.
    const PathShape shape{config.num_partitions,
                          {config.resident_partitions},
                          {config.shards}};
    const AlgorithmSetup setup =
        make_algorithm(config.algorithm, config.depth_or_length);
    expect_matrix(fuzz_slice(execution_paths(shape), setup,
                             static_cast<std::uint32_t>(config.config_seed)),
                  graph, {config.algorithm, config.depth_or_length},
                  config.seeds, config.tags);
  }
}

}  // namespace
}  // namespace csaw
