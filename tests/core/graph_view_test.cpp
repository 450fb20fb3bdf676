#include "core/policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <type_traits>

#include "algorithms/layer_sampling.hpp"
#include "algorithms/random_walks.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "oom/oom_engine.hpp"
#include "oom/partitioned_graph.hpp"
#include "util/check.hpp"

namespace csaw {
namespace {

// EDGEBIAS calls the view once per neighbor, so it must not dispatch.
static_assert(!std::is_polymorphic_v<GraphView>);
static_assert(!std::is_polymorphic_v<CsrGraphView>);
static_assert(!std::is_polymorphic_v<PartitionView>);

template <typename T>
bool same_span(std::span<const T> a, std::span<const T> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

TEST(GraphView, WholeGraphViewServesTheCsr) {
  const CsrGraph g = generate_rmat(256, 2048, 7, {}, /*weighted=*/true);
  const CsrGraphView view(g);
  ASSERT_EQ(view.num_vertices(), g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(view.degree(v), g.degree(v));
    EXPECT_TRUE(same_span(view.neighbors(v), g.neighbors(v)));
    EXPECT_TRUE(same_span(view.edge_weights(v), g.edge_weights(v)));
    ASSERT_EQ(view.edge_weights(v).size(), view.neighbors(v).size());
    for (const VertexId u : g.neighbors(v)) EXPECT_TRUE(view.has_edge(v, u));
  }
  const VertexId past_end = g.num_vertices();
  EXPECT_THROW(view.degree(past_end), CheckError);
  EXPECT_THROW(view.neighbors(past_end), CheckError);
  EXPECT_THROW(view.edge_weights(past_end), CheckError);
  EXPECT_THROW(view.has_edge(past_end, 0), CheckError);
}

TEST(GraphView, PartitionViewRejectsNonOwnedAdjacency) {
  const CsrGraph g = generate_rmat(256, 2048, 9, {}, /*weighted=*/true);
  const PartitionedGraph parts(g, 4);
  const PartitionView& view = parts.view(1);
  const GraphPartition& part = parts.part(1);
  ASSERT_EQ(view.num_vertices(), g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    // Degrees of every vertex stay available from the whole graph.
    EXPECT_EQ(view.degree(v), g.degree(v));
    if (part.owns(v)) {
      EXPECT_TRUE(same_span(view.neighbors(v), g.neighbors(v)));
      EXPECT_TRUE(same_span(view.edge_weights(v), g.edge_weights(v)));
    } else {
      EXPECT_THROW(view.neighbors(v), CheckError) << v;
      EXPECT_THROW(view.edge_weights(v), CheckError) << v;
    }
  }
}

TEST(GraphView, PartitionViewHasEdgeFallsBackToWholeGraph) {
  const CsrGraph g = generate_rmat(256, 2048, 11);
  const PartitionedGraph parts(g, 4);
  const PartitionView& view = parts.view(0);
  std::size_t non_owned_checked = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId u = 0; u < g.num_vertices(); u += 17) {
      EXPECT_EQ(view.has_edge(v, u), g.has_edge(v, u)) << v << "->" << u;
    }
    for (const VertexId u : g.neighbors(v)) EXPECT_TRUE(view.has_edge(v, u));
    if (!parts.part(0).owns(v)) ++non_owned_checked;
  }
  EXPECT_GT(non_owned_checked, 0u);
}

TEST(GraphView, UnweightedGraphHasEmptyWeightSpans) {
  const CsrGraph g = generate_rmat(128, 1024, 13);
  ASSERT_FALSE(g.has_weights());
  const CsrGraphView whole(g);
  const PartitionedGraph parts(g, 2);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(whole.edge_weights(v).empty());
    const PartitionView& view = parts.view(parts.part_of(v));
    EXPECT_TRUE(view.edge_weights(v).empty());
  }
}

/// Every path that builds an EdgeRef from a view (per-vertex SELECT in
/// memory and out of memory, and layer sampling's combined pool) must hand
/// EDGEBIAS the edge's own weight, and 1.0 on an unweighted graph.
class EdgeRefWeight : public ::testing::TestWithParam<bool> {
 protected:
  EdgeRefWeight()
      : graph_(generate_rmat(512, 4096, 21, {}, /*weighted=*/GetParam())) {}

  /// Wraps `setup`'s EDGEBIAS with a check of the weight it is handed.
  /// The wrapper is dynamic, so a static bias is evaluated per step too.
  AlgorithmSetup checked(AlgorithmSetup setup) {
    auto inner = setup.policy.edge_bias;
    const StaticEdgeBias inner_static = setup.policy.static_edge_bias;
    setup.policy.static_edge_bias = nullptr;
    setup.policy.edge_bias = [this, inner, inner_static](
                                 const GraphView& view, const EdgeRef& e,
                                 const InstanceContext& ctx) {
      const float expected =
          GetParam() ? graph_.edge_weight(e.v, e.k) : 1.0f;
      if (e.weight != expected || graph_.neighbors(e.v)[e.k] != e.u) {
        ++mismatches_;
      }
      ++calls_;
      if (inner) return inner(view, e, ctx);
      return inner_static ? inner_static(view.graph(), e) : 1.0f;
    };
    return setup;
  }

  void expect_sampled_weights(const SampleStore& samples) const {
    std::size_t edges = 0;
    for (std::uint32_t i = 0; i < samples.num_instances(); ++i) {
      for (const Edge& e : samples.edges(i)) {
        const auto adj = graph_.neighbors(e.src);
        const auto k = static_cast<EdgeIndex>(
            std::lower_bound(adj.begin(), adj.end(), e.dst) - adj.begin());
        ASSERT_LT(k, adj.size());
        EXPECT_EQ(e.weight, graph_.edge_weight(e.src, k));
        ++edges;
      }
    }
    EXPECT_GT(edges, 0u);
  }

  std::vector<VertexId> seeds() const {
    std::vector<VertexId> s(24);
    for (std::uint32_t i = 0; i < s.size(); ++i) {
      s[i] = (i * 37) % graph_.num_vertices();
    }
    return s;
  }

  const CsrGraph graph_;
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> mismatches_{0};
};

TEST_P(EdgeRefWeight, InMemoryWalk) {
  const AlgorithmSetup setup = checked(biased_random_walk(12));
  const CsrGraphView view(graph_);
  SamplingEngine engine(view, setup.policy, setup.spec);
  sim::Device device;
  const SampleRun run = engine.run_single_seed(device, seeds());
  EXPECT_GT(calls_.load(), 0u);
  EXPECT_EQ(mismatches_.load(), 0u);
  expect_sampled_weights(run.samples);
}

TEST_P(EdgeRefWeight, OutOfMemoryWalk) {
  const AlgorithmSetup setup = checked(biased_random_walk(12));
  SamplerOptions options;
  options.schedule = Schedule::kStepBarrier;
  options.num_partitions = 4;
  options.resident_partitions = 2;
  OomEngine engine(graph_, setup.policy, setup.spec, options);
  sim::Device device;
  const RunResult run = engine.run_single_seed(device, seeds());
  EXPECT_GT(calls_.load(), 0u);
  EXPECT_EQ(mismatches_.load(), 0u);
  expect_sampled_weights(run.samples);
}

TEST_P(EdgeRefWeight, LayerSampling) {
  const AlgorithmSetup setup = checked(layer_sampling(8, 3));
  const CsrGraphView view(graph_);
  SamplingEngine engine(view, setup.policy, setup.spec);
  sim::Device device;
  const SampleRun run = engine.run_single_seed(device, seeds());
  EXPECT_GT(calls_.load(), 0u);
  EXPECT_EQ(mismatches_.load(), 0u);
  expect_sampled_weights(run.samples);
}

INSTANTIATE_TEST_SUITE_P(Weights, EdgeRefWeight, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Weighted" : "Unweighted";
                         });

}  // namespace
}  // namespace csaw
