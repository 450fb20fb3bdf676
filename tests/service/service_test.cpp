// Admission control, registry residency, batching bookkeeping and
// lifecycle of csaw::Service. The byte-level solo-vs-coalesced contract
// has its own suite (service_determinism_test.cpp); this one proves the
// service's control plane: every typed rejection fires where promised and
// is counted, queued work survives shutdown, and the batching scheduler
// coalesces exactly the requests it may.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sampler.hpp"
#include "graph/generators.hpp"
#include "util/check.hpp"
#include "../paths.hpp"

namespace csaw {
namespace {

using testing::spread_seeds;

const CsrGraph& test_graph() {
  static const CsrGraph g = generate_rmat(1024, 8192, 91);
  return g;
}

SampleRequest walk_request(std::uint32_t n, std::uint32_t length = 6) {
  return SampleRequest::single_seeds("g", AlgorithmId::kBiasedRandomWalk,
                                     length, spread_seeds(test_graph(), n));
}

ServiceConfig quiet_config() {
  ServiceConfig config;
  config.options.num_threads = 1;
  return config;
}

TEST(Service, RejectsUnknownGraph) {
  Service service(quiet_config());
  SampleRequest request = walk_request(2);
  request.graph = "never-registered";
  Submission submission = service.submit(std::move(request));
  EXPECT_EQ(submission.rejected, RejectReason::kUnknownGraph);
  EXPECT_FALSE(submission.accepted());
  EXPECT_EQ(service.stats().rejected_unknown_graph, 1u);
  EXPECT_EQ(service.stats().accepted, 0u);
}

TEST(Service, RejectsEmptyAndInvalidRequests) {
  Service service(quiet_config());
  service.add_graph("g", std::make_shared<const CsrGraph>(test_graph()));

  SampleRequest empty = walk_request(2);
  empty.seeds.clear();
  EXPECT_EQ(service.submit(std::move(empty)).rejected,
            RejectReason::kEmptyRequest);

  SampleRequest bad_seed = walk_request(2);
  bad_seed.seeds[1] = {test_graph().num_vertices()};  // one past the end
  EXPECT_EQ(service.submit(std::move(bad_seed)).rejected,
            RejectReason::kInvalidSeed);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected_empty, 1u);
  EXPECT_EQ(stats.rejected_invalid_seed, 1u);
  EXPECT_EQ(stats.rejected_total(), 2u);
}

TEST(Service, RejectsOversizedRequests) {
  ServiceConfig config = quiet_config();
  config.max_request_instances = 4;
  config.max_batch_instances = 4;
  Service service(config);
  service.add_graph("g", std::make_shared<const CsrGraph>(test_graph()));

  EXPECT_EQ(service.submit(walk_request(5)).rejected,
            RejectReason::kOversizedRequest);
  Submission ok = service.submit(walk_request(4));
  EXPECT_TRUE(ok.accepted());
  ok.result.get();
  EXPECT_EQ(service.stats().rejected_oversized, 1u);
}

TEST(Service, RejectsPinnedStreamRangeThatWouldWrap) {
  // A pinned range wrapping past the sentinel would produce
  // non-increasing engine tags and abort the coalesced batch it rides
  // in, failing innocent neighbors — admission must kill it instead.
  Service service(quiet_config());
  service.add_graph("g", std::make_shared<const CsrGraph>(test_graph()));

  SampleRequest wrapping = walk_request(4);
  wrapping.rng_base = kAutoRngBase - 2;  // room for 2, carries 4
  EXPECT_EQ(service.submit(std::move(wrapping)).rejected,
            RejectReason::kOversizedRequest);

  SampleRequest snug = walk_request(4);
  snug.rng_base = kAutoRngBase - 4;  // exactly fits below the sentinel
  Submission ok = service.submit(std::move(snug));
  ASSERT_TRUE(ok.accepted());
  EXPECT_GT(ok.result.get().sampled_edges(), 0u);
}

TEST(Service, AutoAssignmentSkipsAdmittedPinnedRanges) {
  ServiceConfig config = quiet_config();
  config.start_paused = true;
  Service service(config);
  service.add_graph("g", std::make_shared<const CsrGraph>(test_graph()));

  SampleRequest pinned = walk_request(4);
  pinned.rng_base = 10;
  Submission p = service.submit(std::move(pinned));
  EXPECT_EQ(p.rng_base, 10u);

  // The cursor jumped past the pinned range's end: the auto request gets
  // a disjoint Philox stream, not [0, 3).
  Submission autod = service.submit(walk_request(3));
  EXPECT_EQ(autod.rng_base, 14u);

  service.resume();
  p.result.get();
  autod.result.get();
}

TEST(Service, ConcurrentShutdownCallsAreSafe) {
  ServiceConfig config = quiet_config();
  config.start_paused = true;
  Service service(config);
  service.add_graph("g", std::make_shared<const CsrGraph>(test_graph()));
  Submission queued = service.submit(walk_request(2));

  std::thread other([&] { service.shutdown(); });
  service.shutdown();  // races the other caller; both must return safely
  other.join();
  EXPECT_GT(queued.result.get().sampled_edges(), 0u);
}

TEST(Service, RejectsWhenQueueFull) {
  ServiceConfig config = quiet_config();
  config.max_queue_depth = 2;
  config.start_paused = true;
  Service service(config);
  service.add_graph("g", std::make_shared<const CsrGraph>(test_graph()));

  Submission first = service.submit(walk_request(2));
  Submission second = service.submit(walk_request(2));
  Submission third = service.submit(walk_request(2));
  EXPECT_TRUE(first.accepted());
  EXPECT_TRUE(second.accepted());
  EXPECT_EQ(third.rejected, RejectReason::kQueueFull);
  EXPECT_EQ(service.stats().rejected_queue_full, 1u);
  EXPECT_EQ(service.stats().peak_queue_depth, 2u);

  // The bound is on queued requests: once the dispatcher drains them,
  // admission opens again.
  service.resume();
  first.result.get();
  second.result.get();
  service.drain();
  EXPECT_TRUE(service.submit(walk_request(2)).accepted());
}

TEST(Service, ShutdownRejectsNewButDrainsQueued) {
  ServiceConfig config = quiet_config();
  config.start_paused = true;
  Service service(config);
  service.add_graph("g", std::make_shared<const CsrGraph>(test_graph()));

  Submission queued = service.submit(walk_request(3));
  ASSERT_TRUE(queued.accepted());
  service.shutdown();  // overrides the pause, drains, then stops

  const RunResult result = queued.result.get();
  EXPECT_GT(result.sampled_edges(), 0u);

  Submission late = service.submit(walk_request(1));
  EXPECT_EQ(late.rejected, RejectReason::kShutdown);
  EXPECT_THROW(service.sample(walk_request(1)), ServiceError);
  EXPECT_EQ(service.stats().rejected_shutdown, 2u);
  EXPECT_EQ(service.stats().completed, 1u);
}

TEST(Service, BlockingSampleMatchesPlainSampler) {
  Service service(quiet_config());
  service.add_graph("g", std::make_shared<const CsrGraph>(test_graph()));

  SampleRequest request = walk_request(8);
  request.rng_base = 0;  // pin the Philox stream range for the comparison
  const RunResult served = service.sample(std::move(request));
  ASSERT_GT(served.sampled_edges(), 0u);

  SamplerOptions options;
  options.num_threads = 1;
  Sampler direct(test_graph(), AlgorithmId::kBiasedRandomWalk, 6, 2, options);
  const RunResult plain =
      direct.run_single_seed(spread_seeds(test_graph(), 8));
  ASSERT_EQ(served.samples.num_instances(), plain.samples.num_instances());
  for (std::uint32_t i = 0; i < plain.samples.num_instances(); ++i) {
    EXPECT_EQ(served.samples.edges(i), plain.samples.edges(i))
        << "instance " << i;
  }
}

TEST(Service, CoalescesCompatibleQueuedRequests) {
  ServiceConfig config = quiet_config();
  config.start_paused = true;
  Service service(config);
  service.add_graph("g", std::make_shared<const CsrGraph>(test_graph()));

  Submission a = service.submit(walk_request(3));
  Submission b = service.submit(walk_request(5));
  Submission c = service.submit(walk_request(2));
  service.resume();
  service.drain();

  EXPECT_EQ(a.result.get().samples.num_instances(), 3u);
  EXPECT_EQ(b.result.get().samples.num_instances(), 5u);
  EXPECT_EQ(c.result.get().samples.num_instances(), 2u);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.coalesced_requests, 3u);
  EXPECT_EQ(stats.max_batch_requests, 3u);
  EXPECT_EQ(stats.completed, 3u);
}

TEST(Service, DoesNotCoalesceIncompatibleRequests) {
  ServiceConfig config = quiet_config();
  config.start_paused = true;
  Service service(config);
  service.add_graph("g", std::make_shared<const CsrGraph>(test_graph()));

  Submission walk = service.submit(walk_request(2));
  SampleRequest sampling = SampleRequest::single_seeds(
      "g", AlgorithmId::kBiasedNeighborSampling, 2,
      spread_seeds(test_graph(), 2));
  Submission tree = service.submit(std::move(sampling));
  service.resume();
  service.drain();

  EXPECT_GT(walk.result.get().sampled_edges(), 0u);
  EXPECT_GT(tree.result.get().sampled_edges(), 0u);
  EXPECT_EQ(service.stats().batches, 2u);
  EXPECT_EQ(service.stats().coalesced_requests, 0u);
}

TEST(Service, OverlappingPinnedStreamsNeverShareABatch) {
  ServiceConfig config = quiet_config();
  config.start_paused = true;
  Service service(config);
  service.add_graph("g", std::make_shared<const CsrGraph>(test_graph()));

  SampleRequest first = walk_request(4);
  first.rng_base = 10;
  SampleRequest second = walk_request(4);
  second.rng_base = 12;  // overlaps [10, 14)
  Submission a = service.submit(std::move(first));
  Submission b = service.submit(std::move(second));
  service.resume();
  service.drain();

  EXPECT_GT(a.result.get().sampled_edges(), 0u);
  EXPECT_GT(b.result.get().sampled_edges(), 0u);
  EXPECT_EQ(service.stats().batches, 2u);
}

TEST(Service, BatchInstanceBudgetSplitsBatches) {
  ServiceConfig config = quiet_config();
  config.max_request_instances = 8;
  config.max_batch_instances = 8;
  config.start_paused = true;
  Service service(config);
  service.add_graph("g", std::make_shared<const CsrGraph>(test_graph()));

  Submission a = service.submit(walk_request(6));
  Submission b = service.submit(walk_request(6));  // 12 > 8: next batch
  service.resume();
  service.drain();

  a.result.get();
  b.result.get();
  EXPECT_EQ(service.stats().batches, 2u);
}

TEST(Service, RegistryReportsResidencyAndSharedPartitions) {
  ServiceConfig config = quiet_config();
  config.options.memory_assumption = MemoryAssumption::kExceeds;
  Service service(config);
  service.add_graph("g", std::make_shared<const CsrGraph>(test_graph()));
  EXPECT_THROW(
      service.add_graph("g", std::make_shared<const CsrGraph>(test_graph())),
      CheckError);

  auto listed = service.graphs();
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].name, "g");
  EXPECT_EQ(listed[0].bytes, test_graph().bytes());
  EXPECT_TRUE(listed[0].paged);
  EXPECT_FALSE(listed[0].partitions_built);

  const RunResult result = service.sample(walk_request(4));
  EXPECT_GT(result.sampled_edges(), 0u);
  EXPECT_TRUE(result.oom.has_value());
  listed = service.graphs();
  EXPECT_TRUE(listed[0].partitions_built);
}

TEST(Service, SmallGraphStaysResidentUnderDefaultBudget) {
  Service service(quiet_config());
  service.add_graph("g", std::make_shared<const CsrGraph>(test_graph()));
  const auto listed = service.graphs();
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_FALSE(listed[0].paged);  // the stand-in fits the 16 GB default
}

TEST(Service, StatsAccumulateServedWork) {
  ServiceConfig config = quiet_config();
  config.start_paused = true;
  Service service(config);
  service.add_graph("g", std::make_shared<const CsrGraph>(test_graph()));

  Submission a = service.submit(walk_request(3));
  Submission b = service.submit(walk_request(3));
  service.resume();
  service.drain();
  const std::uint64_t edges =
      a.result.get().sampled_edges() + b.result.get().sampled_edges();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.sampled_edges, edges);
  EXPECT_GT(stats.sim_seconds, 0.0);
}

}  // namespace
}  // namespace csaw
