#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "algorithms/layer_sampling.hpp"
#include "algorithms/mdrw.hpp"
#include "algorithms/neighbor_sampling.hpp"
#include "algorithms/random_walks.hpp"
#include "algorithms/registry.hpp"
#include "algorithms/snowball.hpp"
#include "graph/generators.hpp"
#include "util/check.hpp"
#include "../kernel_digest.hpp"

namespace csaw {
namespace {

std::vector<VertexId> first_n_seeds(std::uint32_t n) {
  std::vector<VertexId> seeds(n);
  for (std::uint32_t i = 0; i < n; ++i) seeds[i] = i;
  return seeds;
}

TEST(Engine, SimpleWalkHasExactLengthAndValidEdges) {
  const CsrGraph g = generate_rmat(512, 4096, 3);
  CsrGraphView view(g);
  auto setup = simple_random_walk(/*length=*/20);
  SamplingEngine engine(view, setup.policy, setup.spec);
  sim::Device device;

  const auto seeds = first_n_seeds(16);
  const SampleRun run = engine.run_single_seed(device, seeds);

  for (std::uint32_t i = 0; i < 16; ++i) {
    const auto& walk = run.samples.edges(i);
    // Connected RMAT core: most walks reach full length; every walk must
    // chain and use real edges.
    ASSERT_LE(walk.size(), 20u);
    VertexId current = seeds[i];
    for (const Edge& e : walk) {
      EXPECT_EQ(e.src, current);
      EXPECT_TRUE(g.has_edge(e.src, e.dst));
      current = e.dst;
    }
  }
  EXPECT_GT(run.sampled_edges(), 16u * 10);
  EXPECT_GT(run.sim_seconds, 0.0);
  EXPECT_GT(run.seps(), 0.0);
}

TEST(Engine, WalkIsDeterministicPerSeedConfig) {
  const CsrGraph g = generate_rmat(256, 2048, 5);
  CsrGraphView view(g);
  auto setup = simple_random_walk(10);

  auto run_once = [&] {
    SamplingEngine engine(view, setup.policy, setup.spec);
    sim::Device device;
    return engine.run_single_seed(device, first_n_seeds(8));
  };
  const SampleRun a = run_once();
  const SampleRun b = run_once();
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(a.samples.edges(i), b.samples.edges(i)) << "instance " << i;
  }
}

TEST(Engine, DifferentSeedsProduceDifferentWalks) {
  const CsrGraph g = generate_rmat(256, 2048, 5);
  CsrGraphView view(g);
  auto setup = simple_random_walk(10);

  EngineConfig c1, c2;
  c1.seed = 1;
  c2.seed = 2;
  SamplingEngine e1(view, setup.policy, setup.spec, c1);
  SamplingEngine e2(view, setup.policy, setup.spec, c2);
  sim::Device d1, d2;
  const auto r1 = e1.run_single_seed(d1, first_n_seeds(8));
  const auto r2 = e2.run_single_seed(d2, first_n_seeds(8));
  int different = 0;
  for (std::uint32_t i = 0; i < 8; ++i) {
    different += r1.samples.edges(i) != r2.samples.edges(i);
  }
  EXPECT_GT(different, 4);
}

TEST(Engine, NeighborSamplingNeverExpandsAVertexTwice) {
  // The visited filter means a vertex enters the frontier at most once
  // per instance, so it appears as an edge *source* in at most one
  // expansion of at most neighbor_size edges, with distinct destinations
  // (sampled edges may still point at visited vertices — only frontier
  // insertion is filtered, per Fig. 2(b) lines 7-8).
  const CsrGraph g = generate_rmat(1024, 8192, 7);
  CsrGraphView view(g);
  auto setup = biased_neighbor_sampling(/*neighbor_size=*/2, /*depth=*/3);
  SamplingEngine engine(view, setup.policy, setup.spec);
  sim::Device device;
  const SampleRun run = engine.run_single_seed(device, first_n_seeds(64));

  for (std::uint32_t i = 0; i < 64; ++i) {
    std::map<VertexId, std::set<VertexId>> expansions;
    for (const Edge& e : run.samples.edges(i)) {
      EXPECT_TRUE(g.has_edge(e.src, e.dst));
      EXPECT_TRUE(expansions[e.src].insert(e.dst).second)
          << "instance " << i << ": duplicate edge " << e.src << "->"
          << e.dst;
    }
    for (const auto& [src, dsts] : expansions) {
      EXPECT_LE(dsts.size(), 2u)
          << "instance " << i << ": vertex " << src << " expanded twice";
    }
  }
}

TEST(Engine, NeighborSamplingRespectsDepthAndBranching) {
  const CsrGraph g = make_complete(64);
  CsrGraphView view(g);
  auto setup = unbiased_neighbor_sampling(2, 3);
  SamplingEngine engine(view, setup.policy, setup.spec);
  sim::Device device;
  const SampleRun run =
      engine.run_single_seed(device, std::vector<VertexId>{0});
  // Complete graph: the tree grows at most 2 + 4 + 8 = 14 edges; visited
  // collisions can only shrink deeper levels.
  EXPECT_LE(run.samples.edges(0).size(), 14u);
  EXPECT_GE(run.samples.edges(0).size(), 2u + 4u);
}

TEST(Engine, SnowballEqualsBfsBall) {
  const CsrGraph g = generate_rmat(400, 1600, 11);
  CsrGraphView view(g);
  const std::uint32_t kDepth = 2;
  auto setup = snowball(kDepth);
  SamplingEngine engine(view, setup.policy, setup.spec);
  sim::Device device;
  const VertexId seed = 0;
  const SampleRun run =
      engine.run_single_seed(device, std::vector<VertexId>{seed});

  // Reference BFS: vertices within kDepth hops.
  std::set<VertexId> ball = {seed};
  std::vector<VertexId> frontier = {seed};
  for (std::uint32_t d = 0; d < kDepth; ++d) {
    std::vector<VertexId> next;
    for (VertexId v : frontier) {
      for (VertexId u : g.neighbors(v)) {
        if (ball.insert(u).second) next.push_back(u);
      }
    }
    frontier = std::move(next);
  }

  std::set<VertexId> sampled = {seed};
  for (const Edge& e : run.samples.edges(0)) sampled.insert(e.dst);
  EXPECT_EQ(sampled, ball);
}

TEST(Engine, MdrwKeepsPoolSizeAndUsesPoolVertices) {
  const CsrGraph g = generate_rmat(512, 8192, 13);
  CsrGraphView view(g);
  auto setup = multi_dimensional_random_walk(/*steps=*/30);
  SamplingEngine engine(view, setup.policy, setup.spec);
  sim::Device device;

  const std::vector<std::vector<VertexId>> seeds = {{0, 1, 2, 3, 4}};
  const SampleRun run = engine.run(device, seeds);
  // One edge sampled per step (dense RMAT core: no dead ends expected).
  EXPECT_GT(run.samples.edges(0).size(), 25u);
  for (const Edge& e : run.samples.edges(0)) {
    EXPECT_TRUE(g.has_edge(e.src, e.dst));
  }
}

TEST(Engine, LayerSamplingSelectsPerLayer) {
  const CsrGraph g = generate_rmat(512, 4096, 17);
  CsrGraphView view(g);
  auto setup = layer_sampling(/*layer_size=*/4, /*depth=*/3);
  SamplingEngine engine(view, setup.policy, setup.spec);
  sim::Device device;
  const SampleRun run = engine.run_single_seed(device, first_n_seeds(8));

  for (std::uint32_t i = 0; i < 8; ++i) {
    // At most layer_size edges per depth level.
    EXPECT_LE(run.samples.edges(i).size(), 4u * 3u);
    for (const Edge& e : run.samples.edges(i)) {
      EXPECT_TRUE(g.has_edge(e.src, e.dst));
    }
  }
}

TEST(Engine, DeadEndTerminatesInstance) {
  // A visited-aware EDGEBIAS (zero bias for sampled vertices) turns
  // unbiased neighbor sampling into a self-avoiding walk: on a path graph
  // it must march 0->1->2->3 and stop — exercising both the user-defined
  // bias hook and the all-biases-zero termination path.
  const CsrGraph g = make_path(4);
  CsrGraphView view(g);
  auto setup = unbiased_neighbor_sampling(1, 10);
  setup.policy.edge_bias = [](const GraphView&, const EdgeRef& e,
                              const InstanceContext& ctx) {
    return (ctx.visited != nullptr && ctx.visited->test(e.u)) ? 0.0f : 1.0f;
  };
  SamplingEngine engine(view, setup.policy, setup.spec);
  sim::Device device;
  const SampleRun run =
      engine.run_single_seed(device, std::vector<VertexId>{0});
  const std::vector<Edge> expected = {{0, 1}, {1, 2}, {2, 3}};
  EXPECT_EQ(run.samples.edges(0), expected);
}

TEST(Engine, RestartWalkReturnsToSeed) {
  const CsrGraph g = make_star(32);
  CsrGraphView view(g);
  // High restart probability from the center: most steps go back to 0.
  auto setup = random_walk_with_restart(40, 0.9);
  SamplingEngine engine(view, setup.policy, setup.spec);
  sim::Device device;
  const SampleRun run =
      engine.run_single_seed(device, std::vector<VertexId>{0});
  std::size_t at_seed = 0;
  for (const Edge& e : run.samples.edges(0)) at_seed += e.src == 0;
  EXPECT_GT(at_seed, run.samples.edges(0).size() * 3 / 4);
}

TEST(Engine, JumpWalkEscapesIsolatedComponent) {
  // Two disconnected components; without jumps a walk from vertex 0 stays
  // in {0,1}. With jumps it must reach the other component.
  const CsrGraph g = build_csr({{0, 1}, {2, 3}, {3, 4}, {4, 2}});
  CsrGraphView view(g);
  auto setup = random_walk_with_jump(200, 0.3);
  SamplingEngine engine(view, setup.policy, setup.spec);
  sim::Device device;
  const SampleRun run =
      engine.run_single_seed(device, std::vector<VertexId>{0});
  bool escaped = false;
  for (const Edge& e : run.samples.edges(0)) escaped |= e.src >= 2;
  EXPECT_TRUE(escaped);
}

TEST(Engine, InstanceOffsetShiftsRngStreams) {
  const CsrGraph g = generate_rmat(256, 2048, 19);
  CsrGraphView view(g);
  auto setup = simple_random_walk(10);

  EngineConfig base, shifted;
  shifted.instance_id_offset = 100;
  SamplingEngine e0(view, setup.policy, setup.spec, base);
  SamplingEngine e100(view, setup.policy, setup.spec, shifted);
  sim::Device d0, d100;
  const auto r0 = e0.run_single_seed(d0, first_n_seeds(4));
  const auto r100 = e100.run_single_seed(d100, first_n_seeds(4));
  int different = 0;
  for (std::uint32_t i = 0; i < 4; ++i) {
    different += r0.samples.edges(i) != r100.samples.edges(i);
  }
  EXPECT_GT(different, 2);
}

TEST(Engine, RejectsInvalidSpecs) {
  const CsrGraph g = make_path(4);
  CsrGraphView view(g);
  SamplingSpec bad;
  bad.depth = 0;
  EXPECT_THROW(SamplingEngine(view, Policy{}, bad), CheckError);

  SamplingSpec conflicting;
  conflicting.layer_mode = true;
  conflicting.select_frontier = true;
  EXPECT_THROW(SamplingEngine(view, Policy{}, conflicting), CheckError);
}

TEST(Engine, StatsArePopulated) {
  const CsrGraph g = generate_rmat(256, 2048, 23);
  CsrGraphView view(g);
  auto setup = biased_neighbor_sampling(2, 2);
  SamplingEngine engine(view, setup.policy, setup.spec);
  sim::Device device;
  const SampleRun run = engine.run_single_seed(device, first_n_seeds(32));
  EXPECT_GT(run.stats.warps, 0u);
  EXPECT_GT(run.stats.lockstep_rounds, 0u);
  EXPECT_GT(run.stats.global_bytes, 0u);
  EXPECT_GT(run.stats.sampled_vertices, 0u);
  EXPECT_EQ(run.stats.sampled_vertices, run.sampled_edges());
}

TEST(Engine, BarrierTimelineIsPinned) {
  // The step-barrier schedule behind the per-step figure benches, pinned
  // bit for bit for every Table I algorithm: every kernel record (name,
  // stream, clock, share, stats), the samples and the simulated time of
  // 40 seeded instances and one instance with no seed. The digests do not
  // depend on the host width.
  const CsrGraph g = generate_rmat(1024, 8192, 62, {}, /*weighted=*/true);
  CsrGraphView view(g);
  std::vector<std::vector<VertexId>> seeds;
  for (std::uint32_t i = 0; i < 40; ++i) {
    if (i == 20) seeds.emplace_back();
    seeds.push_back({static_cast<VertexId>((i * 97) % g.num_vertices())});
  }
  const std::map<AlgorithmId, std::uint64_t> digests = {
      {AlgorithmId::kUnbiasedNeighborSampling, 0x50bf4a4d35e4c4fcull},
      {AlgorithmId::kBiasedNeighborSampling, 0xa5f669eecbf0579eull},
      {AlgorithmId::kForestFire, 0x7c6ac4d38902e235ull},
      {AlgorithmId::kSnowball, 0x27ac310d3ead1152ull},
      {AlgorithmId::kLayerSampling, 0xe1e3d4febd2087e6ull},
      {AlgorithmId::kSimpleRandomWalk, 0x7f61926ab2f545afull},
      {AlgorithmId::kDeepwalk, 0x7f61926ab2f545afull},
      {AlgorithmId::kBiasedRandomWalk, 0xdbee2a93b061364bull},
      {AlgorithmId::kMetropolisHastingsWalk, 0x9920addcd2e00e4eull},
      {AlgorithmId::kRandomWalkWithJump, 0xf956115bca2c2634ull},
      {AlgorithmId::kRandomWalkWithRestart, 0x6442147a27cb79fcull},
      {AlgorithmId::kMultiDimRandomWalk, 0x7065f532f488ce93ull},
      {AlgorithmId::kNode2vec, 0xd35f41612957eeb9ull},
  };
  ASSERT_EQ(digests.size(), all_algorithms().size());
  for (const AlgorithmId id : all_algorithms()) {
    const AlgorithmInfo info = algorithm_info(id);
    const AlgorithmSetup setup =
        make_algorithm(id, info.neighbors_per_step == "1" ? 12 : 3);
    for (const std::uint32_t threads : {1u, 4u}) {
      EngineConfig config;
      config.schedule = Schedule::kStepBarrier;
      config.num_threads = threads;
      SamplingEngine engine(view, setup.policy, setup.spec, config);
      sim::Device device;
      const SampleRun run = engine.run(device, seeds);
      testing::Digest d;
      d.add_kernels(device);
      d.add_samples(run.samples);
      d.add(run.sim_seconds);
      EXPECT_EQ(d.value(), digests.at(id))
          << info.name << " threads=" << threads;
    }
  }
}

TEST(Engine, BarrierRunCancelledBeforeItStartsRecordsNothing) {
  // Every instance cancelled before the run: no chain runs a task, so
  // the step-barrier schedule records no kernel and samples no edge, and
  // the run takes no simulated time.
  const CsrGraph g = generate_rmat(256, 2048, 5);
  CsrGraphView view(g);
  for (const AlgorithmId id :
       {AlgorithmId::kBiasedNeighborSampling, AlgorithmId::kLayerSampling,
        AlgorithmId::kMultiDimRandomWalk, AlgorithmId::kBiasedRandomWalk}) {
    const AlgorithmSetup setup = make_algorithm(id, 4);
    for (const std::uint32_t threads : {1u, 4u}) {
      CancelSource source;
      source.cancel();
      EngineConfig config;
      config.schedule = Schedule::kStepBarrier;
      config.num_threads = threads;
      config.control.instance_cancel.assign(8, source.token());
      SamplingEngine engine(view, setup.policy, setup.spec, config);
      sim::Device device;
      const SampleRun run = engine.run_single_seed(device, first_n_seeds(8));
      EXPECT_TRUE(device.kernel_log().empty())
          << algorithm_info(id).name << " threads=" << threads;
      EXPECT_EQ(run.sampled_edges(), 0u);
      EXPECT_EQ(run.sim_seconds, 0.0);
    }
  }
}

}  // namespace
}  // namespace csaw
