// Shard transport faults: scripted envelope drops and slowdowns are
// absorbed by bounded retry at byte-identical samples; a terminally
// failed shard fails exactly the instances whose walkers were resident
// on (or bound for) it — proven by an accounting-closure sweep over
// every instance.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sampler.hpp"
#include "graph/generators.hpp"
#include "shard/router.hpp"
#include "util/fault_injector.hpp"

namespace csaw {
namespace {

CsrGraph test_graph() {
  return generate_rmat(/*num_vertices=*/200, /*num_edges=*/900,
                       /*seed=*/7, {}, /*weighted=*/true);
}

std::vector<std::vector<VertexId>> walk_seeds(const CsrGraph& graph,
                                              std::uint32_t n) {
  std::vector<VertexId> seed_list;
  for (std::uint32_t i = 0; i < n; ++i) {
    seed_list.push_back(static_cast<VertexId>((i * 37 + 11) %
                                              graph.num_vertices()));
  }
  return expand_single_seeds(seed_list);
}

std::vector<std::uint32_t> identity_tags(std::uint32_t n) {
  std::vector<std::uint32_t> tags(n);
  for (std::uint32_t i = 0; i < n; ++i) tags[i] = i;
  return tags;
}

RunResult run_sharded(const CsrGraph& graph, std::uint32_t shards,
                      std::shared_ptr<FaultInjector> faults,
                      std::uint32_t instances = 12,
                      std::uint32_t attempts = 3,
                      std::uint32_t length = 24) {
  const AlgorithmSetup setup =
      make_algorithm(AlgorithmId::kDeepwalk, length);
  SamplerOptions options;
  options.num_threads = 1;
  options.transfer_retry.attempts = attempts;
  ShardRouter router(graph, setup, options,
                     {.shards = shards, .faults = std::move(faults)});
  return router.run_tagged(walk_seeds(graph, instances),
                           identity_tags(instances));
}

TEST(ShardFaults, ScriptedDropsAreRetriedAtIdenticalBytes) {
  const CsrGraph graph = test_graph();
  const RunResult want = run_sharded(graph, 3, nullptr);
  ASSERT_GT(want.shard->envelopes, 0u);

  // Script two single-drop sites against shard 1 and one against shard
  // 2: each costs one redelivery within the budget of 3 attempts.
  auto faults = std::make_shared<FaultInjector>();
  faults->fail_next(/*shard=*/1, /*times=*/1);
  faults->fail_next(/*shard=*/1, /*times=*/1);
  faults->fail_next(/*shard=*/2, /*times=*/1);
  const RunResult got = run_sharded(graph, 3, faults);

  ASSERT_TRUE(got.shard->failed.empty());
  for (std::uint32_t i = 0; i < got.samples.num_instances(); ++i) {
    EXPECT_EQ(got.samples.edges(i), want.samples.edges(i))
        << "instance " << i;
  }
  EXPECT_EQ(got.shard->envelope_faults, 3u);
  EXPECT_EQ(got.shard->envelope_retries, 3u);
  EXPECT_EQ(got.shard->envelopes, want.shard->envelopes);
  // Each dropped copy still held the wire, so faults only add time.
  EXPECT_GT(got.shard->transfer_seconds, want.shard->transfer_seconds);
  EXPECT_GT(faults->attempts_seen(), 0u);
}

TEST(ShardFaults, SlowSitesStretchTheTimelineOnly) {
  const CsrGraph graph = test_graph();
  const RunResult want = run_sharded(graph, 2, nullptr);
  ASSERT_GT(want.shard->envelopes, 0u);

  FaultInjector::Config config;
  config.slow_rate = 1.0;  // every delivery site runs slow
  config.slow_factor = 5.0;
  const RunResult got =
      run_sharded(graph, 2, std::make_shared<FaultInjector>(config));

  ASSERT_TRUE(got.shard->failed.empty());
  for (std::uint32_t i = 0; i < got.samples.num_instances(); ++i) {
    EXPECT_EQ(got.samples.edges(i), want.samples.edges(i))
        << "instance " << i;
  }
  EXPECT_EQ(got.shard->envelope_faults, 0u);
  EXPECT_EQ(got.shard->envelope_retries, 0u);
  EXPECT_EQ(got.shard->envelopes, want.shard->envelopes);
  EXPECT_EQ(got.shard->bytes_forwarded, want.shard->bytes_forwarded);
  EXPECT_GT(got.shard->transfer_seconds, want.shard->transfer_seconds);
  EXPECT_GT(got.sim_seconds, want.sim_seconds);
}

TEST(ShardFaults, ExhaustedRetryBudgetFailsOnlyTheEnvelopesInstances) {
  const CsrGraph graph = test_graph();
  const RunResult want = run_sharded(graph, 3, nullptr, /*instances=*/12);
  ASSERT_GT(want.shard->envelopes, 0u);

  // One site that outlives the whole retry budget: its envelope's
  // instances fail; every other instance's bytes are untouched.
  auto faults = std::make_shared<FaultInjector>();
  faults->fail_next(/*shard=*/1, /*times=*/10);
  const RunResult got =
      run_sharded(graph, 3, faults, /*instances=*/12, /*attempts=*/2);

  ASSERT_FALSE(got.shard->failed.empty());
  std::vector<char> is_failed(12, 0);
  for (const std::uint32_t i : got.shard->failed) is_failed[i] = 1;
  for (std::uint32_t i = 0; i < 12; ++i) {
    if (is_failed[i]) {
      EXPECT_TRUE(got.samples.edges(i).empty()) << "instance " << i;
    } else {
      EXPECT_EQ(got.samples.edges(i), want.samples.edges(i))
          << "instance " << i;
    }
  }
  EXPECT_EQ(got.shard->envelope_faults, 2u);   // both attempts dropped
  EXPECT_EQ(got.shard->envelope_retries, 1u);  // one redelivery tried
}

TEST(ShardFaults, TerminalShardFailureClosesTheAccounting) {
  const CsrGraph graph = test_graph();
  const std::uint32_t kInstances = 16;
  // Short walks: most instances never touch the dead shard's range, so
  // the failure domain is a strict, nonempty subset of the batch.
  const RunResult want =
      run_sharded(graph, 4, nullptr, kInstances, 3, /*length=*/4);
  ASSERT_TRUE(want.shard->failed.empty());

  auto faults = std::make_shared<FaultInjector>();
  faults->fail_forever(2);
  ASSERT_TRUE(faults->failed_forever(2));
  const RunResult got =
      run_sharded(graph, 4, faults, kInstances, 3, /*length=*/4);

  // Walks on a connected rmat graph reach the dead shard's range from
  // every start: some instances must have died there.
  ASSERT_FALSE(got.shard->failed.empty());
  ASSERT_LT(got.shard->failed.size(), kInstances);  // and some survived

  // Accounting closure: every instance is either in `failed` with an
  // empty row, or absent with its full unsharded bytes — no instance is
  // lost, duplicated, or silently truncated.
  std::vector<char> is_failed(kInstances, 0);
  std::uint32_t prev = 0;
  for (std::size_t f = 0; f < got.shard->failed.size(); ++f) {
    const std::uint32_t i = got.shard->failed[f];
    ASSERT_LT(i, kInstances);
    if (f > 0) {
      ASSERT_GT(i, prev) << "failed list must be sorted unique";
    }
    prev = i;
    is_failed[i] = 1;
  }
  std::uint32_t intact = 0;
  for (std::uint32_t i = 0; i < kInstances; ++i) {
    if (is_failed[i]) {
      EXPECT_TRUE(got.samples.edges(i).empty()) << "instance " << i;
    } else {
      EXPECT_EQ(got.samples.edges(i), want.samples.edges(i))
          << "instance " << i;
      ++intact;
    }
  }
  EXPECT_EQ(intact + got.shard->failed.size(), kInstances);
  // The dead shard computed nothing after failing... but the sweep
  // happens at round boundaries, so steps it took before death stay
  // counted. What must hold: the run terminated (no livelock) and the
  // dead shard forwarded nothing onward after the sweep.
  EXPECT_GT(got.shard->rounds, 0u);
}

}  // namespace
}  // namespace csaw
