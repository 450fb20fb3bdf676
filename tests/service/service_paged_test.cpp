// Paged traffic through the service's per-graph demand caches (the
// kPipelined schedule): one persistent PartitionCache per paged graph
// keeps partitions warm across batches, every registered paged graph gets
// a deterministic slice of the device budget, and the whole mechanism is
// invisible in the bytes — the kStepBarrier waves, which never cache,
// change transfer counts and makespans, never samples. The byte-level
// solo-vs-coalesced contract lives in service_determinism_test.cpp; this
// suite proves the residency side: warm hits, budget slicing, stats and
// graphs() reporting.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/sampler.hpp"
#include "graph/generators.hpp"
#include "oom/partitioned_graph.hpp"
#include "../timeline_audit.hpp"
#include "../paths.hpp"

namespace csaw {
namespace {

using testing::expect_same_samples;
using testing::spread_seeds;

constexpr std::uint32_t kWalkLength = 8;
constexpr std::uint32_t kBase = 64;

const std::shared_ptr<const CsrGraph>& graph_a() {
  static const auto g =
      std::make_shared<const CsrGraph>(generate_rmat(1024, 8192, 93));
  return g;
}

const std::shared_ptr<const CsrGraph>& graph_b() {
  static const auto g =
      std::make_shared<const CsrGraph>(generate_rmat(1024, 8192, 94));
  return g;
}

SampleRequest walk_request(const std::string& graph, const CsrGraph& g,
                           std::uint32_t n = 12) {
  SampleRequest request = SampleRequest::single_seeds(
      graph, AlgorithmId::kBiasedRandomWalk, kWalkLength, spread_seeds(g, n));
  request.rng_base = kBase;
  return request;
}

ServiceConfig paged_config() {
  ServiceConfig config;
  config.options.num_threads = 1;
  config.options.memory_assumption = MemoryAssumption::kExceeds;
  return config;
}

RunResult run_one(Service& service, SampleRequest request) {
  Submission submission = service.submit(std::move(request));
  EXPECT_TRUE(submission.accepted());
  service.drain();
  return submission.result.get();
}

TEST(ServicePaged, CacheStaysWarmAcrossBatches) {
  Service service(paged_config());
  service.add_graph("g", graph_a());

  const RunResult first = run_one(service, walk_request("g", *graph_a()));
  ASSERT_TRUE(first.oom.has_value());
  const ServiceStats after_first = service.stats();
  EXPECT_EQ(after_first.paged_batches, 1u);

  // The only paged graph gets the whole budget (memory_budget_fraction of
  // the default 16 GiB), which holds every partition, so the first batch
  // kept everything it touched.
  const ServiceConfig config = paged_config();
  const std::vector<GraphResidency> graphs = service.graphs();
  ASSERT_EQ(graphs.size(), 1u);
  EXPECT_TRUE(graphs[0].paged);
  EXPECT_TRUE(graphs[0].partitions_built);
  EXPECT_EQ(graphs[0].cache_budget_bytes,
            static_cast<std::uint64_t>(
                config.options.memory_budget_fraction *
                static_cast<double>(config.options.device_params.memory_bytes)));
  const PartitionedGraph parts(*graph_a(), config.options.num_partitions);
  EXPECT_GE(graphs[0].cache_budget_bytes, parts.total_bytes());
  EXPECT_GT(graphs[0].cache_resident_bytes, 0u);

  // Same pinned stream range again: the second batch reruns the exact
  // request on warm partitions — more hits, identical bytes.
  const RunResult second = run_one(service, walk_request("g", *graph_a()));
  const ServiceStats after_second = service.stats();
  EXPECT_EQ(after_second.paged_batches, 2u);
  EXPECT_GT(after_second.oom.cache_hits, after_first.oom.cache_hits);
  expect_same_samples(first.samples, second.samples, "warm");
}

TEST(ServicePaged, BudgetIsSlicedAcrossRegisteredPagedGraphs) {
  // Shrink the simulated device so the per-graph slice binds: with two
  // registered paged graphs, each cache gets memory_budget_fraction of
  // half the device — small enough here to force eviction pressure.
  ServiceConfig config = paged_config();
  const PartitionedGraph parts_a(*graph_a(), config.options.num_partitions);
  config.options.device_params.memory_bytes = 4 * parts_a.max_partition_bytes();
  Service service(config);
  service.add_graph("a", graph_a());
  service.add_graph("b", graph_b());

  const RunResult on_a = run_one(service, walk_request("a", *graph_a()));
  const RunResult on_b = run_one(service, walk_request("b", *graph_b()));
  ASSERT_TRUE(on_a.oom.has_value());
  ASSERT_TRUE(on_b.oom.has_value());

  // Mirror of the service's slicing policy: each graph's cache gets a
  // byte budget of fraction * memory / registered paged graphs, a
  // registration-time fact independent of traffic. What it holds stays
  // within that slice and below the graph's whole partitioning, so the
  // small device binds.
  const std::uint64_t budget = static_cast<std::uint64_t>(
      config.options.memory_budget_fraction *
      static_cast<double>(config.options.device_params.memory_bytes) / 2.0);
  for (const GraphResidency& residency : service.graphs()) {
    const CsrGraph& g = residency.name == "a" ? *graph_a() : *graph_b();
    const PartitionedGraph parts(g, config.options.num_partitions);
    EXPECT_EQ(residency.cache_budget_bytes, budget) << residency.name;
    EXPECT_GT(residency.cache_resident_bytes, 0u) << residency.name;
    EXPECT_LE(residency.cache_resident_bytes, budget) << residency.name;
    EXPECT_LT(budget, parts.total_bytes())
        << residency.name << ": the small device was meant to bind";
  }

  // Bounded caches under walks that cross partitions must thrash a bit.
  EXPECT_GT(service.stats().oom.cache_evictions, 0u);
}

TEST(ServicePaged, BarrierScheduleIsColdAndByteIdentical) {
  ServiceConfig cold_config = paged_config();
  cold_config.options.schedule = Schedule::kStepBarrier;
  Service cold(cold_config);
  cold.add_graph("g", graph_a());
  const RunResult uncached = run_one(cold, walk_request("g", *graph_a()));
  ASSERT_TRUE(uncached.oom.has_value());

  // Barrier waves: the batch still pages (and is counted), but no cache
  // exists anywhere — no hits, no prefetches, no reported budget.
  const ServiceStats stats = cold.stats();
  EXPECT_EQ(stats.paged_batches, 1u);
  EXPECT_EQ(stats.oom.cache_hits, 0u);
  EXPECT_EQ(stats.oom.prefetch_transfers, 0u);
  EXPECT_EQ(cold.graphs().at(0).cache_budget_bytes, 0u);
  EXPECT_EQ(cold.graphs().at(0).cache_resident_bytes, 0u);

  // The cache moves bytes in time, never in value.
  Service warm(paged_config());
  warm.add_graph("g", graph_a());
  const RunResult cached = run_one(warm, walk_request("g", *graph_a()));
  expect_same_samples(cached.samples, uncached.samples, "barrier");
}

}  // namespace
}  // namespace csaw
