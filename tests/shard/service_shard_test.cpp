// Sharded serving through the Service front end: a request's samples
// are byte-identical at shards {1,2,4} x host threads {1,2,7}; a
// terminally failed shard surfaces as RequestOutcome::kShardFailed on
// exactly the requests whose walkers lived there; results gather in
// instance order even when one shard's traffic runs deliberately slow;
// and non-walk requests silently take the ordinary path.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "service/service.hpp"
#include "shard/partition_map.hpp"
#include "../paths.hpp"

namespace csaw {
namespace {

using testing::expect_same_samples;
using testing::spread_seeds;

constexpr std::uint32_t kBase = 64;

const std::shared_ptr<const CsrGraph>& shared_graph() {
  static const auto g = std::make_shared<const CsrGraph>(
      generate_rmat(1024, 8192, 93, {}, /*weighted=*/true));
  return g;
}

SampleRequest walk_request(std::uint32_t instances, std::uint32_t length,
                           std::uint32_t rng_base = kBase) {
  SampleRequest request = SampleRequest::single_seeds(
      "g", AlgorithmId::kBiasedRandomWalk, length,
      spread_seeds(*shared_graph(), instances, 131));
  request.rng_base = rng_base;
  return request;
}

ServiceConfig sharded_config(std::uint32_t shards, std::uint32_t threads) {
  ServiceConfig config;
  config.options.num_threads = threads;
  config.shards = shards;
  return config;
}

RunResult run_one(const ServiceConfig& config, SampleRequest request) {
  Service service(config);
  service.add_graph("g", shared_graph());
  Submission submission = service.submit(std::move(request));
  EXPECT_TRUE(submission.accepted());
  return submission.result.get();
}

TEST(ServiceSharding, BytesIdenticalAcrossShardAndThreadCounts) {
  const RunResult want = run_one(sharded_config(1, 1), walk_request(12, 16));
  EXPECT_FALSE(want.shard.has_value());  // shards=1 is exactly today's path

  for (const std::uint32_t shards : {2u, 4u}) {
    for (const std::uint32_t threads : {1u, 2u, 7u}) {
      const RunResult got =
          run_one(sharded_config(shards, threads), walk_request(12, 16));
      const std::string label = "shards=" + std::to_string(shards) +
                                " threads=" + std::to_string(threads);
      expect_same_samples(got.samples, want.samples, label);
      ASSERT_TRUE(got.shard.has_value()) << label;
      EXPECT_EQ(got.shard->shards, shards) << label;
    }
  }
}

TEST(ServiceSharding, ShardedBatchesAreCountedAndAttributed) {
  Service service(sharded_config(2, 1));
  service.add_graph("g", shared_graph());
  Submission submission = service.submit(walk_request(12, 16));
  ASSERT_TRUE(submission.accepted());
  const RunResult result = submission.result.get();
  ASSERT_TRUE(result.shard.has_value());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sharded_batches, 1u);
  EXPECT_EQ(stats.shard.forwarded_walkers, result.shard->forwarded_walkers);
  EXPECT_EQ(stats.shard.envelopes, result.shard->envelopes);
  EXPECT_EQ(stats.shard.bytes_forwarded, result.shard->bytes_forwarded);
  // Per-shard attribution reaches the exposition.
  const std::string text = service.metrics_text();
  EXPECT_NE(text.find("csaw_batches_sharded_total 1"), std::string::npos);
  EXPECT_NE(text.find("csaw_shard_steps_total{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("csaw_shard_steps_total{shard=\"1\"}"),
            std::string::npos);
}

TEST(ServiceSharding, TerminalShardFailureIsTypedPerRequest) {
  ServiceConfig config = sharded_config(4, 1);
  config.shard_faults = std::make_shared<FaultInjector>();
  config.shard_faults->fail_forever(2);
  Service service(config);
  service.add_graph("g", shared_graph());

  // The doomed request: spread seeds and enough length that some walker
  // reaches the dead shard (deterministic for the fixed graph/seed mix).
  Submission doomed = service.submit(walk_request(16, 16));
  ASSERT_TRUE(doomed.accepted());
  bool threw = false;
  try {
    doomed.result.get();
  } catch (const RequestError& e) {
    threw = true;
    EXPECT_EQ(e.outcome(), RequestOutcome::kShardFailed);
  }
  EXPECT_TRUE(threw);

  // The safe request: single-step walks seeded inside shard 0's range
  // complete on their home shard and never meet the dead one. Its bytes
  // must match a fault-free unsharded service exactly.
  const ShardPartitionMap map(*shared_graph(), 4);
  std::vector<VertexId> safe_seeds;
  for (std::uint32_t i = 0; i < 8; ++i) {
    safe_seeds.push_back(map.range_begin(0) +
                         (i % (map.range_end(0) - map.range_begin(0))));
  }
  SampleRequest safe = SampleRequest::single_seeds(
      "g", AlgorithmId::kBiasedRandomWalk, 1, safe_seeds);
  safe.rng_base = 256;
  SampleRequest reference_request = safe;
  Submission survivor = service.submit(std::move(safe));
  ASSERT_TRUE(survivor.accepted());
  const RunResult got = survivor.result.get();
  const RunResult want =
      run_one(sharded_config(1, 1), std::move(reference_request));
  expect_same_samples(got.samples, want.samples, "survivor");

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shard_failed, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);
  const ServiceHealth health = service.health();
  EXPECT_EQ(health.recent_shard_failed, 1u);
  EXPECT_GT(health.shard_failed_rate, 0.0);
  const std::string text = service.metrics_text();
  EXPECT_NE(
      text.find("csaw_request_outcomes_total{outcome=\"shard_failed\"} 1"),
      std::string::npos);
}

TEST(ServiceSharding, GatherOrderStableUnderSlowShard) {
  // Every delivery site runs 8x slow: the sharded schedule stretches,
  // but each request still gathers its instances in instance order with
  // unsharded bytes — consumer-visible order never depends on shard
  // timing.
  FaultInjector::Config faults;
  faults.slow_rate = 1.0;
  faults.slow_factor = 8.0;
  ServiceConfig config = sharded_config(3, 2);
  config.shard_faults = std::make_shared<FaultInjector>(faults);
  Service service(config);
  service.add_graph("g", shared_graph());

  std::vector<Submission> submissions;
  for (std::uint32_t r = 0; r < 3; ++r) {
    submissions.push_back(
        service.submit(walk_request(8, 12, kBase + r * 32)));
    ASSERT_TRUE(submissions.back().accepted());
  }
  for (std::uint32_t r = 0; r < 3; ++r) {
    const RunResult got = submissions[r].result.get();
    const RunResult want =
        run_one(sharded_config(1, 1), walk_request(8, 12, kBase + r * 32));
    expect_same_samples(got.samples, want.samples,
                        "request " + std::to_string(r));
  }
}

TEST(ServiceSharding, NonWalkRequestsFallBackToTheOrdinaryPath) {
  SampleRequest request = SampleRequest::single_seeds(
      "g", AlgorithmId::kBiasedNeighborSampling, 3,
      spread_seeds(*shared_graph(), 6, 97), 4);
  request.rng_base = kBase;
  SampleRequest sharded_copy = request;

  const RunResult want = run_one(sharded_config(1, 1), std::move(request));
  Service service(sharded_config(4, 1));
  service.add_graph("g", shared_graph());
  Submission submission = service.submit(std::move(sharded_copy));
  ASSERT_TRUE(submission.accepted());
  const RunResult got = submission.result.get();

  EXPECT_FALSE(got.shard.has_value());
  expect_same_samples(got.samples, want.samples, "fallback");
  EXPECT_EQ(service.stats().sharded_batches, 0u);
}

}  // namespace
}  // namespace csaw
