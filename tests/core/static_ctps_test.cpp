// Static-EDGEBIAS CTPS rows (core/static_ctps.hpp): walks that sample
// with replacement locate in per-vertex rows built once per graph instead
// of evaluating EDGEBIAS and rebuilding the CTPS at every step. The rows
// must change nothing but host time: every path draws the same bytes and
// charges the same simulated events as the per-step reference, hostile
// biases fail or end walks exactly as before, the biased walk still
// follows its law, and concurrent first use builds one table.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/registry.hpp"
#include "core/sampler.hpp"
#include "core/static_ctps.hpp"
#include "gpusim/thread_pool.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "select/ctps.hpp"
#include "service/service.hpp"
#include "shard/router.hpp"
#include "util/stats.hpp"
#include "../paths.hpp"

namespace csaw {
namespace {

using testing::expect_same_run;
using testing::gapped_tags;
using testing::shard_options;
using testing::spread_seeds;

/// With-replacement walks whose EDGEBIAS is static or absent.
constexpr AlgorithmId kStaticWalks[] = {
    AlgorithmId::kSimpleRandomWalk,       AlgorithmId::kBiasedRandomWalk,
    AlgorithmId::kMetropolisHastingsWalk, AlgorithmId::kRandomWalkWithJump,
    AlgorithmId::kRandomWalkWithRestart,  AlgorithmId::kMultiDimRandomWalk,
};

/// The same EDGEBIAS declared as a dynamic edge_bias: the per-step path.
AlgorithmSetup as_dynamic(AlgorithmSetup setup) {
  const StaticEdgeBias bias = setup.policy.static_edge_bias;
  setup.policy.static_edge_bias = nullptr;
  setup.policy.edge_bias = [bias](const GraphView& view, const EdgeRef& e,
                                  const InstanceContext&) {
    return bias != nullptr ? bias(view.graph(), e) : 1.0f;
  };
  return setup;
}

CsrGraph test_graph() {
  return generate_rmat(/*num_vertices=*/512, /*num_edges=*/4096, /*seed=*/31,
                       {}, /*weighted=*/true);
}

/// Single seeds for walks; MDRW instances get a pool of three.
std::vector<std::vector<VertexId>> make_seeds(const CsrGraph& graph,
                                              AlgorithmId id,
                                              std::uint32_t n) {
  const std::uint32_t pool =
      id == AlgorithmId::kMultiDimRandomWalk ? 3 : 1;
  std::vector<std::vector<VertexId>> seeds(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t s = 0; s < pool; ++s) {
      seeds[i].push_back(static_cast<VertexId>((i * 37 + s * 101 + 11) %
                                               graph.num_vertices()));
    }
  }
  return seeds;
}

SamplerOptions sampler_options(ExecutionMode mode, Schedule schedule) {
  SamplerOptions options;
  options.mode = mode;
  options.schedule = schedule;
  options.num_threads = 2;
  if (mode == ExecutionMode::kOutOfMemory) {
    options.memory_assumption = MemoryAssumption::kExceeds;
  }
  return options;
}

TEST(StaticCtpsRows, RowsAreTheBytesCtpsBuildComputes) {
  const CsrGraph graph = test_graph();
  for (const StaticEdgeBias bias :
       {StaticEdgeBias{nullptr}, StaticEdgeBias{&weighted_degree_bias}}) {
    const StaticCtpsRows rows(graph, bias);
    std::size_t with_row = 0;
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      const auto adj = graph.neighbors(v);
      const auto row = rows.row(graph, v);
      if (adj.size() < StaticCtpsRows::kMinRowSize) {
        EXPECT_TRUE(row.empty()) << "vertex " << v;
        continue;
      }
      std::vector<float> biases;
      for (std::size_t k = 0; k < adj.size(); ++k) {
        const EdgeRef e{v, adj[k], graph.edge_weight(v, k),
                        static_cast<EdgeIndex>(k)};
        biases.push_back(bias != nullptr ? bias(graph, e) : 1.0f);
      }
      Ctps ctps;
      ctps.build(biases);
      ASSERT_EQ(row.size(), ctps.upper().size()) << "vertex " << v;
      for (std::size_t k = 0; k < row.size(); ++k) {
        // Bitwise: the same arithmetic must give the same floats.
        ASSERT_EQ(std::bit_cast<std::uint32_t>(row[k]),
                  std::bit_cast<std::uint32_t>(ctps.upper()[k]))
            << "vertex " << v << ", boundary " << k;
      }
      ++with_row;
    }
    EXPECT_GT(with_row, 0u);
  }
}

TEST(StaticCtpsRows, OnlyStaticWithReplacementSelectsGetRows) {
  const CsrGraph graph = test_graph();
  const CsrGraphView view(graph);
  for (const AlgorithmId id : all_algorithms()) {
    const AlgorithmSetup setup = make_algorithm(id, 4);
    const bool expected = setup.spec.with_replacement &&
                          !setup.policy.edge_bias && !setup.spec.layer_mode;
    EXPECT_EQ(static_ctps_rows(view, setup.policy, setup.spec) != nullptr,
              expected)
        << algorithm_info(id).name;
    const AlgorithmSetup dynamic = as_dynamic(setup);
    EXPECT_EQ(static_ctps_rows(view, dynamic.policy, dynamic.spec), nullptr)
        << algorithm_info(id).name;
  }
  // One table per (graph, bias): the uniform walks share one, the biased
  // walk has its own.
  EXPECT_EQ(graph.memo()->builds(), 2u);
}

TEST(StaticCtpsRows, PolicyWithBothHooksIsRejected) {
  const CsrGraph graph = test_graph();
  AlgorithmSetup setup = make_algorithm(AlgorithmId::kBiasedRandomWalk, 4);
  setup.policy.edge_bias = [](const GraphView&, const EdgeRef&,
                              const InstanceContext&) { return 1.0f; };
  Sampler sampler(graph, setup);
  EXPECT_THROW(sampler.run_single_seed(std::vector<VertexId>{0}),
               CheckError);
}

// --- Equivalence: rows vs the per-step rebuild, on every path.

TEST(StaticCtpsEquivalence, SamplerPathsMatchThePerStepBuild) {
  const CsrGraph graph = test_graph();
  const CsrGraphView view(graph);
  constexpr std::uint32_t kInstances = 24;
  const std::vector<std::uint32_t> tags = gapped_tags(kInstances, 5, 3);
  for (const AlgorithmId id : kStaticWalks) {
    const AlgorithmSetup setup = make_algorithm(id, /*length=*/12);
    const StaticCtpsRows* table =
        static_ctps_rows(view, setup.policy, setup.spec);
    ASSERT_NE(table, nullptr) << algorithm_info(id).name;
    const AlgorithmSetup dynamic = as_dynamic(setup);
    const auto seeds = make_seeds(graph, id, kInstances);

    std::vector<std::pair<ExecutionMode, Schedule>> paths = {
        {ExecutionMode::kInMemory, Schedule::kPipelined},
        {ExecutionMode::kInMemory, Schedule::kStepBarrier}};
    if (!algorithm_info(id).in_memory_only) {
      paths.emplace_back(ExecutionMode::kOutOfMemory, Schedule::kPipelined);
      paths.emplace_back(ExecutionMode::kOutOfMemory,
                         Schedule::kStepBarrier);
    }
    for (const auto& [mode, schedule] : paths) {
      const std::string label = algorithm_info(id).name + " " +
                                to_string(mode) + " " + to_string(schedule);
      Sampler rows(graph, setup, sampler_options(mode, schedule));
      Sampler per_step(graph, dynamic, sampler_options(mode, schedule));
      const RunResult got = rows.run_tagged(seeds, tags);
      const RunResult want = per_step.run_tagged(seeds, tags);
      // Both paths run: steps out of hubs locate in rows, steps out of
      // vertices with fewer than kMinRowSize neighbors rebuild.
      std::size_t from_rows = 0;
      for (std::uint32_t i = 0; i < want.samples.num_instances(); ++i) {
        for (const Edge& e : want.samples.edges(i)) {
          from_rows += table->row(graph, e.src).empty() ? 0 : 1;
        }
      }
      EXPECT_GT(from_rows, 0u) << label;
      EXPECT_LT(from_rows, want.sampled_edges()) << label;
      expect_same_run(got, want, label);
    }
  }
}

TEST(StaticCtpsEquivalence, ShardRouterMatchesThePerStepBuild) {
  const CsrGraph graph = test_graph();
  constexpr std::uint32_t kInstances = 24;
  const std::vector<std::uint32_t> tags = gapped_tags(kInstances, 5, 3);
  for (const AlgorithmId id : kStaticWalks) {
    const AlgorithmSetup setup = make_algorithm(id, /*length=*/12);
    if (!setup.spec.walk_shaped()) continue;  // MDRW
    const auto seeds = make_seeds(graph, id, kInstances);
    SamplerOptions options;
    options.num_threads = 2;
    const ShardOptions shard = shard_options(3);
    ShardRouter rows(graph, setup, options, shard);
    ShardRouter per_step(graph, as_dynamic(setup), options, shard);
    const RunResult want = per_step.run_tagged(seeds, tags);
    EXPECT_GT(want.shard->forwarded_walkers, 0u);
    expect_same_run(rows.run_tagged(seeds, tags), want,
                    algorithm_info(id).name + " sharded");
  }
}

TEST(StaticCtpsEquivalence, ServiceMatchesThePerStepBuild) {
  const auto graph = std::make_shared<const CsrGraph>(test_graph());
  constexpr std::uint32_t kBase = 40;
  for (const AlgorithmId id : kStaticWalks) {
    if (id == AlgorithmId::kMultiDimRandomWalk) continue;  // pool seeds
    for (const ExecutionMode mode :
         {ExecutionMode::kInMemory, ExecutionMode::kOutOfMemory}) {
      const std::string label =
          algorithm_info(id).name + " service " + to_string(mode);
      const auto seeds = make_seeds(*graph, id, 16);
      std::vector<VertexId> seed_list;
      for (const auto& s : seeds) seed_list.push_back(s[0]);

      SamplerOptions options =
          sampler_options(mode, Schedule::kStepBarrier);
      ServiceConfig config;
      config.options = options;
      Service service(config);
      service.add_graph("g", graph);
      SampleRequest request =
          SampleRequest::single_seeds("g", id, /*length=*/10, seed_list);
      request.rng_base = kBase;
      const RunResult got = service.sample(std::move(request));

      options.instance_id_offset = kBase;
      Sampler per_step(*graph, as_dynamic(make_algorithm(id, 10)), options);
      expect_same_run(got, per_step.run_single_seed(seed_list), label);
    }
  }
}

// --- Hostile input: bad biases fail or end walks exactly as before.

/// Vertices of the hostile graph. Every bad vertex has an edge to each
/// of kGoodCount good vertices, enough for a row (kMinRowSize), so the
/// table builder meets it; the good vertices form a clique. Each bad
/// vertex X is reached from its own entry vertex kFirstEntry + X, whose
/// only edge leads to X.
enum HostileVertex : VertexId {
  kNaN = 0,            ///< one edge weight is NaN
  kNegative = 1,       ///< one negative weight, positive total
  kInf = 2,            ///< one edge weight is +inf
  kZero = 3,           ///< every weight is zero
  kIsolated = 4,       ///< no out-edges
  kNegativeTotal = 5,  ///< every weight is negative
  kBadCount = 6,
  kFirstGood = kBadCount,
  kGoodCount = 40,
  kFirstEntry = kFirstGood + kGoodCount,
  kHostileVertices = kFirstEntry + kBadCount,
};

CsrGraph hostile_graph() {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<std::vector<std::pair<VertexId, float>>> adj(kHostileVertices);
  const auto to_good = [&](VertexId x, float weight) {
    for (VertexId g = kFirstGood; g < kFirstGood + kGoodCount; ++g) {
      if (g != x) adj[x].emplace_back(g, weight);
    }
  };
  to_good(kNaN, 1.0f);
  adj[kNaN][7].second = nan;
  to_good(kNegative, 1.0f);
  adj[kNegative][3].second = -1.0f;
  to_good(kInf, 1.0f);
  adj[kInf][11].second = inf;
  to_good(kZero, 0.0f);
  to_good(kNegativeTotal, -1.0f);
  for (VertexId g = kFirstGood; g < kFirstGood + kGoodCount; ++g) {
    to_good(g, 1.0f);
  }
  for (VertexId x = 0; x < kBadCount; ++x) {
    adj[kFirstEntry + x] = {{x, 1.0f}};
  }
  std::vector<EdgeIndex> row_ptr = {0};
  std::vector<VertexId> col_idx;
  std::vector<float> weights;
  for (const auto& list : adj) {
    for (const auto& [u, w] : list) {
      col_idx.push_back(u);
      weights.push_back(w);
    }
    row_ptr.push_back(col_idx.size());
  }
  return CsrGraph(std::move(row_ptr), std::move(col_idx), std::move(weights));
}

/// Runs `run` and returns the CheckError text it throws ("" if none).
std::string check_error_of(const std::function<void()>& run) {
  try {
    run();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(StaticCtpsHostile, BuildingNeverThrowsAndSkipsBadRows) {
  const CsrGraph graph = hostile_graph();
  std::unique_ptr<StaticCtpsRows> rows;
  ASSERT_NO_THROW(rows = std::make_unique<StaticCtpsRows>(
                      graph, &weighted_degree_bias));
  for (const VertexId bad :
       {kNaN, kNegative, kInf, kZero, kIsolated, kNegativeTotal}) {
    EXPECT_TRUE(rows->row(graph, bad).empty()) << "vertex " << bad;
  }
  EXPECT_EQ(rows->row(graph, kFirstGood).size(), kGoodCount - 1);
  EXPECT_TRUE(rows->row(graph, kFirstEntry).empty());  // one neighbor
}

TEST(StaticCtpsHostile, WalksFailOrEndExactlyLikeThePerStepBuild) {
  const CsrGraph graph = hostile_graph();
  const AlgorithmSetup setup =
      make_algorithm(AlgorithmId::kBiasedRandomWalk, /*length=*/4);
  const AlgorithmSetup dynamic = as_dynamic(setup);
  const std::vector<std::pair<VertexId, std::string>> failing = {
      {kNaN, "non-finite bias"},
      {kNegative, "negative bias"},
      {kInf, "non-finite bias"}};
  for (const Schedule schedule :
       {Schedule::kPipelined, Schedule::kStepBarrier}) {
    const SamplerOptions options =
        sampler_options(ExecutionMode::kInMemory, schedule);
    for (const auto& [bad, text] : failing) {
      const std::vector<VertexId> seed = {kFirstEntry + bad};
      const std::string label =
          "vertex " + std::to_string(bad) + " " + to_string(schedule);
      Sampler rows(graph, setup, options);
      Sampler per_step(graph, dynamic, options);
      const std::string got =
          check_error_of([&] { rows.run_single_seed(seed); });
      const std::string want =
          check_error_of([&] { per_step.run_single_seed(seed); });
      EXPECT_NE(want.find(text), std::string::npos) << label << ": " << want;
      EXPECT_EQ(got, want) << label;
    }
    // A zero or negative-total vertex ends the walk: the entry step is
    // the whole sample. The isolated vertex has degree 0, so the biased
    // walk gives its entry edge zero bias and ends before it (the simple
    // walk below steps onto it).
    for (const VertexId end : {kZero, kIsolated, kNegativeTotal}) {
      const std::vector<VertexId> seed = {kFirstEntry + end};
      const std::string label =
          "vertex " + std::to_string(end) + " " + to_string(schedule);
      Sampler rows(graph, setup, options);
      Sampler per_step(graph, dynamic, options);
      const RunResult got = rows.run_single_seed(seed);
      const RunResult want = per_step.run_single_seed(seed);
      std::vector<Edge> expected;
      if (end != kIsolated) expected.push_back(Edge{seed[0], end, 1.0f});
      EXPECT_EQ(want.samples.edges(0), expected) << label;
      expect_same_run(got, want, label);
    }
    // Walks among the good vertices locate in their rows.
    {
      const std::vector<VertexId> seed = {kFirstGood};
      Sampler rows(graph, setup, options);
      Sampler per_step(graph, dynamic, options);
      expect_same_run(rows.run_single_seed(seed),
                      per_step.run_single_seed(seed), "good vertices");
    }
    // The uniform walk ignores the hostile weights and ends only on the
    // isolated vertex.
    const AlgorithmSetup simple =
        make_algorithm(AlgorithmId::kSimpleRandomWalk, /*length=*/4);
    const std::vector<VertexId> seed = {kFirstEntry + kIsolated};
    Sampler rows(graph, simple, options);
    Sampler per_step(graph, as_dynamic(simple), options);
    const RunResult got = rows.run_single_seed(seed);
    const RunResult want = per_step.run_single_seed(seed);
    const std::vector<Edge> entry_step = {Edge{seed[0], kIsolated, 1.0f}};
    EXPECT_EQ(want.samples.edges(0), entry_step);
    expect_same_run(got, want, "simple walk onto the isolated vertex");
  }
}

// --- Sampling law: the biased walk's step out of a hub follows w·deg(u).

/// A hub (vertex 0) with 40 neighbors, enough for a row, of varied
/// weight and degree.
constexpr VertexId kHubDegree = 40;

CsrGraph law_graph() {
  std::vector<Edge> edges;
  VertexId next_private = kHubDegree + 1;
  for (VertexId k = 1; k <= kHubDegree; ++k) {
    edges.push_back(Edge{0, k, 0.5f + 0.25f * static_cast<float>(k % 3)});
    for (VertexId extra = 0; extra < k % 4; ++extra) {
      edges.push_back(Edge{k, next_private++, 1.0f});
    }
  }
  BuildOptions options;
  options.keep_weights = true;
  return build_csr(std::move(edges), 0, options);
}

/// Chi-square statistic of the first step out of vertex 0 over `run`.
double hub_step_chi_square(const CsrGraph& graph, const RunResult& run) {
  const auto adj = graph.neighbors(0);
  std::vector<double> expected;
  double total = 0.0;
  for (std::size_t k = 0; k < adj.size(); ++k) {
    expected.push_back(graph.edge_weight(0, k) *
                       static_cast<double>(graph.degree(adj[k])));
    total += expected.back();
  }
  for (double& p : expected) p /= total;
  std::vector<std::uint64_t> counts(adj.size(), 0);
  for (std::uint32_t i = 0; i < run.samples.num_instances(); ++i) {
    const Edge& first = run.samples.edges(i).at(0);
    EXPECT_EQ(first.src, 0u);
    const auto it = std::lower_bound(adj.begin(), adj.end(), first.dst);
    ++counts.at(static_cast<std::size_t>(it - adj.begin()));
  }
  return chi_square(counts, expected);
}

TEST(StaticCtpsLaw, BiasedWalkStepOutOfAHubFollowsWeightTimesDegree) {
  const CsrGraph graph = law_graph();
  ASSERT_EQ(graph.degree(0), kHubDegree);
  ASSERT_FALSE(StaticCtpsRows(graph, &weighted_degree_bias)
                   .row(graph, 0)
                   .empty());
  // 40 buckets -> 39 degrees of freedom; the 0.999 quantile of
  // chi-square(39) is 72.05. The seed is fixed, so this never flakes.
  constexpr double kCritical = 72.05;
  constexpr std::uint32_t kInstances = 12000;
  const AlgorithmSetup setup =
      make_algorithm(AlgorithmId::kBiasedRandomWalk, /*length=*/1);
  const std::vector<VertexId> hub(kInstances, 0);
  const auto seeds = expand_single_seeds(hub);
  std::vector<std::uint32_t> tags(kInstances);
  for (std::uint32_t i = 0; i < kInstances; ++i) tags[i] = i;

  Sampler in_memory(graph, setup,
                    sampler_options(ExecutionMode::kInMemory,
                                    Schedule::kPipelined));
  EXPECT_LT(hub_step_chi_square(graph, in_memory.run_single_seed(hub)),
            kCritical);

  Sampler paged(graph, setup,
                sampler_options(ExecutionMode::kOutOfMemory,
                                Schedule::kPipelined));
  EXPECT_LT(hub_step_chi_square(graph, paged.run_single_seed(hub)),
            kCritical);

  ShardRouter sharded(graph, setup, SamplerOptions{}, shard_options(4));
  EXPECT_LT(hub_step_chi_square(graph, sharded.run_tagged(seeds, tags)),
            kCritical);
}

// --- Concurrency: concurrent first use builds the table exactly once.

std::atomic<std::uint64_t> g_counted_bias_calls{0};

float counted_bias(const CsrGraph& graph, const EdgeRef& e) {
  g_counted_bias_calls.fetch_add(1, std::memory_order_relaxed);
  return weighted_degree_bias(graph, e);
}

AlgorithmSetup counted_walk(std::uint32_t length) {
  AlgorithmSetup setup = make_algorithm(AlgorithmId::kBiasedRandomWalk,
                                        length);
  setup.policy.static_edge_bias = &counted_bias;
  return setup;
}

/// Every vertex has a row, so walks never evaluate the bias per step.
CsrGraph dense_graph() { return make_complete(48); }

TEST(StaticCtpsConcurrency, FirstUseFromPoolWorkersBuildsOnce) {
  const CsrGraph graph = dense_graph();
  g_counted_bias_calls = 0;
  sim::ThreadPool pool(4);
  pool.parallel_for(8, [&](std::size_t item, std::uint32_t) {
    SamplerOptions options;
    options.num_threads = 1;
    Sampler sampler(graph, counted_walk(16), options);
    const RunResult run = sampler.run_single_seed(
        spread_seeds(graph, 8, 53, static_cast<std::uint32_t>(item)));
    EXPECT_GT(run.sampled_edges(), 0u);
  });
  // Every edge's bias was evaluated by the one build and never again.
  EXPECT_EQ(g_counted_bias_calls.load(), graph.num_edges());
  EXPECT_EQ(graph.memo()->builds(), 1u);
}

TEST(StaticCtpsConcurrency, TwoSamplersOnOneGraphBuildOnce) {
  const CsrGraph graph = dense_graph();
  g_counted_bias_calls = 0;
  const auto run_sampler = [&](std::uint32_t offset, Schedule schedule) {
    SamplerOptions options;
    options.num_threads = 2;
    options.schedule = schedule;
    Sampler sampler(graph, counted_walk(16), options);
    return sampler.run_single_seed(spread_seeds(graph, 32, 53, offset));
  };
  auto a = std::async(std::launch::async, run_sampler, 1,
                      Schedule::kPipelined);
  auto b = std::async(std::launch::async, run_sampler, 2,
                      Schedule::kStepBarrier);
  EXPECT_GT(a.get().sampled_edges(), 0u);
  EXPECT_GT(b.get().sampled_edges(), 0u);
  EXPECT_EQ(g_counted_bias_calls.load(), graph.num_edges());
  EXPECT_EQ(graph.memo()->builds(), 1u);
}

TEST(StaticCtpsConcurrency, ConcurrentServiceBatchesBuildOnce) {
  const auto graph = std::make_shared<const CsrGraph>(test_graph());
  ServiceConfig config;
  config.options.num_threads = 2;
  config.max_concurrent_batches = 4;
  Service service(config);
  service.add_graph("g", graph);
  std::vector<std::thread> clients;
  std::atomic<std::uint64_t> edges{0};
  for (std::uint32_t c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (std::uint32_t r = 0; r < 4; ++r) {
        const RunResult result = service.sample(SampleRequest::single_seeds(
            "g", AlgorithmId::kBiasedRandomWalk, /*length=*/12,
            spread_seeds(*graph, 8, 53, c * 4 + r)));
        edges += result.sampled_edges();
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_GT(edges.load(), 0u);
  EXPECT_EQ(graph->memo()->builds(), 1u);
}

}  // namespace
}  // namespace csaw
