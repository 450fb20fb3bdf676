// The fault-tolerant serving path (PR 7): deadline admission and
// expiry, cooperative cancellation of queued requests, injected
// partition-copy faults absorbed by retry, terminal transfer failures
// that fail exactly one batch, and the health() snapshot. The two
// acceptance contracts live here: a fail-twice fault under a 3-attempt
// retry budget is byte-invisible, and an exhausted budget fails the
// batch typed, leaves the cache consistent, and lets the next batch on
// the same graph succeed.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "oom/partitioned_graph.hpp"
#include "telemetry/trace.hpp"
#include "util/fault_injector.hpp"
#include "../paths.hpp"

namespace csaw {
namespace {

using testing::expect_same_samples;

constexpr std::uint32_t kWalkLength = 8;
constexpr std::uint32_t kBase = 64;

const std::shared_ptr<const CsrGraph>& paged_graph() {
  static const auto g =
      std::make_shared<const CsrGraph>(generate_rmat(1024, 8192, 93));
  return g;
}

ServiceConfig paged_config() {
  ServiceConfig config;
  config.options.num_threads = 1;
  config.options.memory_assumption = MemoryAssumption::kExceeds;
  return config;
}

/// Seeds confined to partition 0 of the service's partitioning: the
/// first demand load of the batch is then partition 0 by construction,
/// so a fault scripted there is guaranteed to hit the demand path.
std::vector<VertexId> partition0_seeds(std::uint32_t n) {
  const PartitionedGraph parts(*paged_graph(),
                               paged_config().options.num_partitions);
  std::vector<VertexId> seeds;
  for (VertexId v = 0; v < paged_graph()->num_vertices() && seeds.size() < n;
       ++v) {
    if (parts.part_of(v) == 0) seeds.push_back(v);
  }
  EXPECT_EQ(seeds.size(), n);
  return seeds;
}

SampleRequest walk_request(std::uint32_t rng_base = kBase) {
  SampleRequest request = SampleRequest::single_seeds(
      "g", AlgorithmId::kBiasedRandomWalk, kWalkLength, partition0_seeds(12));
  request.rng_base = rng_base;
  return request;
}

RunResult run_one(Service& service, SampleRequest request) {
  Submission submission = service.submit(std::move(request));
  EXPECT_TRUE(submission.accepted());
  service.drain();
  return submission.result.get();
}

TEST(ServiceFault, RetriedFaultsAreByteInvisible) {
  // Acceptance contract 1: partition 0 fails its first two copy attempts
  // and the default 3-attempt budget absorbs them — the batch's samples
  // are byte-identical to a fault-free service, only simulated time and
  // the fault counters move.
  Service clean(paged_config());
  clean.add_graph("g", paged_graph());
  const RunResult ref = run_one(clean, walk_request());
  ASSERT_TRUE(ref.oom.has_value());

  ServiceConfig config = paged_config();
  auto injector = std::make_shared<FaultInjector>();
  injector->fail_next(0, 2);
  config.options.transfer_faults = injector;
  config.options.transfer_retry.attempts = 3;
  Service service(config);
  service.add_graph("g", paged_graph());
  const RunResult run = run_one(service, walk_request());

  expect_same_samples(run.samples, ref.samples, "retried");
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.oom.transfer_faults, 2u);
  EXPECT_EQ(stats.oom.transfer_retries, 2u);
  // The injector was consulted for every attempt partition 0 made plus
  // one per other load site.
  EXPECT_GE(injector->attempts_seen(), 3u);
}

TEST(ServiceFault, ExhaustedRetryFailsOnlyThatBatch) {
  // Acceptance contract 2: with a 1-attempt budget, a scripted fault is
  // terminal — every future of the batch fails typed as
  // kTransferFailed, the cache settles consistent (nothing pinned,
  // nothing stuck kLoading), and the next batch on the same graph
  // succeeds byte-identically to a fault-free run. One rider has a
  // deadline armed, so the failure path must disarm it too; the
  // riders' request spans and the batch span close typed, in order.
  Service clean(paged_config());
  clean.add_graph("g", paged_graph());
  const RunResult ref = run_one(clean, walk_request());

  ServiceConfig config = paged_config();
  config.start_paused = true;  // let both requests coalesce into one batch
  config.trace = std::make_shared<telemetry::TraceRecorder>();
  auto injector = std::make_shared<FaultInjector>();
  injector->fail_next(0, 1);
  config.options.transfer_faults = injector;
  config.options.transfer_retry.attempts = 1;
  Service service(config);
  service.add_graph("g", paged_graph());

  SampleRequest first = walk_request(kBase);
  first.tenant = "ta";
  SampleRequest second = walk_request(kBase + 100);
  second.tenant = "tb";
  second.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
  Submission a = service.submit(std::move(first));
  Submission b = service.submit(std::move(second));
  ASSERT_TRUE(a.accepted());
  ASSERT_TRUE(b.accepted());
  EXPECT_EQ(service.health().timed_requests, 1u);
  service.resume();
  service.drain();

  // Every future of the condemned batch resolves, with the typed error.
  for (Submission* s : {&a, &b}) {
    try {
      s->result.get();
      FAIL() << "the faulted batch should have failed";
    } catch (const RequestError& e) {
      EXPECT_EQ(e.outcome(), RequestOutcome::kTransferFailed);
      EXPECT_NE(std::string(e.what()).find("partition 0"), std::string::npos)
          << e.what();
    }
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.transfer_failed, 2u);
  EXPECT_EQ(stats.sampled_edges, 0u);
  EXPECT_EQ(stats.completed + stats.failed, stats.accepted);
  ASSERT_EQ(stats.tenants.size(), 2u);
  for (const TenantStats& tenant : stats.tenants) {
    EXPECT_EQ(tenant.failed, 1u) << tenant.tenant;
    EXPECT_EQ(tenant.completed + tenant.failed, tenant.accepted)
        << tenant.tenant;
  }
  EXPECT_EQ(service.health().timed_requests, 0u);

  // Each rider's request span closes exactly once, typed, before the
  // batch span closes as failed.
  std::map<std::uint64_t, std::vector<std::string>> request_outcomes;
  std::vector<std::uint64_t> request_end_seqs;
  std::vector<std::uint64_t> failed_batch_end_seqs;
  for (const telemetry::TraceEvent& event : config.trace->snapshot()) {
    if (event.phase != telemetry::TracePhase::kEnd) continue;
    std::string outcome;
    for (const auto& [key, value] : event.args) {
      if (key == "outcome") outcome = value;
    }
    if (event.name == "request") {
      request_outcomes[event.id].push_back(outcome);
      request_end_seqs.push_back(event.seq);
    } else if (event.name == "batch") {
      EXPECT_EQ(outcome, "failed");
      failed_batch_end_seqs.push_back(event.seq);
    }
  }
  ASSERT_EQ(request_outcomes.size(), 2u);
  for (const auto& [span, outcomes] : request_outcomes) {
    EXPECT_EQ(outcomes, std::vector<std::string>{"transfer_failed"});
  }
  ASSERT_EQ(failed_batch_end_seqs.size(), 1u);
  for (const std::uint64_t seq : request_end_seqs) {
    EXPECT_LT(seq, failed_batch_end_seqs.front());
  }

  // The scripted site was consumed by the failure: the same request
  // succeeds on the next batch, and its bytes match the fault-free run.
  const RunResult retry = run_one(service, walk_request());
  expect_same_samples(retry.samples, ref.samples, "retry");
  stats = service.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 2u);

  // The health window remembers the burst: two of the last three
  // retired requests failed.
  const ServiceHealth health = service.health();
  EXPECT_EQ(health.window, 3u);
  EXPECT_EQ(health.recent_failures, 2u);
  EXPECT_EQ(health.queue_depth, 0u);
  EXPECT_EQ(health.inflight_batches, 0u);
}

TEST(ServiceFault, ExpiredDeadlineIsRejectedAtAdmission) {
  ServiceConfig config;
  Service service(config);
  service.add_graph(
      "g", std::make_shared<const CsrGraph>(generate_rmat(512, 4096, 95)));

  SampleRequest request = SampleRequest::single_seeds(
      "g", AlgorithmId::kBiasedRandomWalk, 4, std::vector<VertexId>{1, 2, 3});
  request.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  Submission submission = service.submit(std::move(request));
  EXPECT_FALSE(submission.accepted());
  EXPECT_EQ(submission.rejected, RejectReason::kDeadlineExpired);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.rejected_deadline_expired, 1u);
  EXPECT_EQ(stats.rejected_total(), 1u);
}

TEST(ServiceFault, QueuedRequestFailsFastWhenItsDeadlineExpires) {
  // The dispatcher owns the timer: even with the scheduler paused (the
  // request can never dispatch), the armed deadline wakes the dispatcher
  // and the queued request fails without an engine run.
  ServiceConfig config;
  config.start_paused = true;
  Service service(config);
  service.add_graph(
      "g", std::make_shared<const CsrGraph>(generate_rmat(512, 4096, 95)));

  SampleRequest request = SampleRequest::single_seeds(
      "g", AlgorithmId::kBiasedRandomWalk, 4, std::vector<VertexId>{1, 2, 3});
  request.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  Submission submission = service.submit(std::move(request));
  ASSERT_TRUE(submission.accepted());

  ASSERT_EQ(submission.result.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  try {
    submission.result.get();
    FAIL() << "the expired request should have failed";
  } catch (const RequestError& e) {
    EXPECT_EQ(e.outcome(), RequestOutcome::kDeadlineExceeded);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.batches, 0u);  // never dispatched
  EXPECT_EQ(service.health().timed_requests, 0u);  // timer retired
  service.resume();
}

TEST(ServiceFault, OnlyTheDueDeadlineFiresAndTheOtherStaysArmed) {
  // Two armed deadlines in a paused service, one due in 20 ms and one an
  // hour away: the dispatcher fires the first alone, in queue, and keeps
  // the second armed until its request completes after resume().
  ServiceConfig config;
  config.start_paused = true;
  Service service(config);
  service.add_graph(
      "g", std::make_shared<const CsrGraph>(generate_rmat(512, 4096, 95)));

  SampleRequest soon = SampleRequest::single_seeds(
      "g", AlgorithmId::kBiasedRandomWalk, 4, std::vector<VertexId>{1, 2, 3});
  soon.rng_base = kBase;
  soon.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  SampleRequest later = SampleRequest::single_seeds(
      "g", AlgorithmId::kBiasedRandomWalk, 4, std::vector<VertexId>{4, 5, 6});
  later.rng_base = kBase + 100;
  later.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
  Submission a = service.submit(std::move(soon));
  Submission b = service.submit(std::move(later));
  ASSERT_TRUE(a.accepted());
  ASSERT_TRUE(b.accepted());
  EXPECT_EQ(service.health().timed_requests, 2u);

  ASSERT_EQ(a.result.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  try {
    a.result.get();
    FAIL() << "the request past its deadline should have failed";
  } catch (const RequestError& e) {
    EXPECT_EQ(e.outcome(), RequestOutcome::kDeadlineExceeded);
  }
  ServiceHealth health = service.health();
  EXPECT_EQ(health.timed_requests, 1u);
  EXPECT_EQ(health.queue_depth, 1u);
  EXPECT_EQ(b.result.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);

  service.resume();
  service.drain();
  EXPECT_GT(b.result.get().sampled_edges(), 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(service.health().timed_requests, 0u);
}

TEST(ServiceFault, CancelledQueuedRequestIsSweptNotDispatched) {
  ServiceConfig config;
  config.start_paused = true;
  Service service(config);
  service.add_graph(
      "g", std::make_shared<const CsrGraph>(generate_rmat(512, 4096, 95)));

  CancelSource source;
  SampleRequest cancelled = SampleRequest::single_seeds(
      "g", AlgorithmId::kBiasedRandomWalk, 4, std::vector<VertexId>{1, 2, 3});
  cancelled.cancel = source.token();
  cancelled.rng_base = kBase;
  SampleRequest untouched = SampleRequest::single_seeds(
      "g", AlgorithmId::kBiasedRandomWalk, 4, std::vector<VertexId>{4, 5, 6});
  untouched.rng_base = kBase + 100;

  Submission a = service.submit(std::move(cancelled));
  Submission b = service.submit(std::move(untouched));
  ASSERT_TRUE(a.accepted());
  ASSERT_TRUE(b.accepted());
  source.cancel();  // fired while queued, before any batch formed
  service.resume();
  service.drain();

  try {
    a.result.get();
    FAIL() << "the cancelled request should have failed";
  } catch (const RequestError& e) {
    EXPECT_EQ(e.outcome(), RequestOutcome::kCancelled);
  }
  EXPECT_GT(b.result.get().sampled_edges(), 0u);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].cancelled, 1u);
  EXPECT_EQ(stats.tenants[0].failed, 1u);
  EXPECT_EQ(stats.tenants[0].completed, 1u);
}

TEST(ServiceFault, HealthSnapshotTracksQueueTimersAndWindow) {
  ServiceConfig config;
  config.start_paused = true;
  Service service(config);
  service.add_graph(
      "g", std::make_shared<const CsrGraph>(generate_rmat(512, 4096, 95)));

  SampleRequest plain = SampleRequest::single_seeds(
      "g", AlgorithmId::kBiasedRandomWalk, 4, std::vector<VertexId>{1, 2, 3});
  plain.rng_base = kBase;
  SampleRequest timed = SampleRequest::single_seeds(
      "g", AlgorithmId::kBiasedRandomWalk, 4, std::vector<VertexId>{4, 5, 6});
  timed.rng_base = kBase + 100;
  timed.deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(10);

  Submission a = service.submit(std::move(plain));
  Submission b = service.submit(std::move(timed));
  ASSERT_TRUE(a.accepted());
  ASSERT_TRUE(b.accepted());

  ServiceHealth health = service.health();
  EXPECT_TRUE(health.accepting);
  EXPECT_TRUE(health.paused);
  EXPECT_EQ(health.queue_depth, 2u);
  EXPECT_EQ(health.inflight_batches, 0u);
  EXPECT_EQ(health.executing_batches, 0u);
  EXPECT_EQ(health.timed_requests, 1u);
  EXPECT_EQ(health.window, 0u);

  service.resume();
  service.drain();
  EXPECT_GT(a.result.get().sampled_edges(), 0u);
  EXPECT_GT(b.result.get().sampled_edges(), 0u);

  health = service.health();
  EXPECT_FALSE(health.paused);
  EXPECT_EQ(health.queue_depth, 0u);
  EXPECT_EQ(health.inflight_batches, 0u);
  EXPECT_EQ(health.timed_requests, 0u);  // the generous deadline retired
  EXPECT_EQ(health.window, 2u);
  EXPECT_EQ(health.recent_failures, 0u);

  service.shutdown();
  EXPECT_FALSE(service.health().accepting);
}

}  // namespace
}  // namespace csaw
