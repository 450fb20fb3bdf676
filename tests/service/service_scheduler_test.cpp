// Scheduling policy of the concurrent csaw::Service dispatcher:
// latency-aware batching (a head may wait out ServiceConfig::
// batching_deadline to coalesce late arrivals, but a full batch — or a
// draining shutdown — launches immediately), independent-graph batch
// overlap bounded by max_concurrent_batches, and the fairness pass
// (deficit round robin across tenants plus the tenant_quota in-flight
// bound) that keeps a flooding tenant from stalling everyone else.
// Byte-level guarantees live in service_determinism_test.cpp; this suite
// is about *when* batches launch and *who* gets dispatch capacity.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "service/service.hpp"
#include "telemetry/trace.hpp"
#include "../paths.hpp"

namespace csaw {
namespace {

using testing::spread_seeds;

using namespace std::chrono_literals;

const std::shared_ptr<const CsrGraph>& graph_a() {
  static const auto g =
      std::make_shared<const CsrGraph>(generate_rmat(1024, 8192, 97));
  return g;
}

const std::shared_ptr<const CsrGraph>& graph_b() {
  static const auto g =
      std::make_shared<const CsrGraph>(generate_rmat(1024, 8192, 98));
  return g;
}

SampleRequest walk_request(const std::string& graph, std::uint32_t instances,
                           std::uint32_t length,
                           const std::string& tenant = {}) {
  SampleRequest request = SampleRequest::single_seeds(
      graph, AlgorithmId::kBiasedRandomWalk, length,
      spread_seeds(*graph_a(), instances));
  request.tenant = tenant;
  return request;
}

ServiceConfig serial_engine_config() {
  ServiceConfig config;
  config.options.num_threads = 1;
  return config;
}

/// When the request's batch formed: the seq of the event that closed its
/// queue span. Formation orders requests without racing the host clock,
/// which a wait on a result future would.
std::uint64_t formed_at(const telemetry::TraceRecorder& trace,
                        const Submission& submission) {
  const telemetry::TraceRecorder::Args ticket = {
      {"ticket", std::to_string(submission.ticket)}};
  std::uint64_t span = 0;
  for (const telemetry::TraceEvent& event : trace.snapshot()) {
    if (event.name != "queue") continue;
    if (event.phase == telemetry::TracePhase::kBegin && event.args == ticket) {
      span = event.id;
    } else if (event.phase == telemetry::TracePhase::kEnd && span != 0 &&
               event.id == span) {
      return event.seq;
    }
  }
  ADD_FAILURE() << "no closed queue span for ticket " << submission.ticket;
  return 0;
}

TEST(ServiceScheduler, DeadlineLaunchesPartialBatch) {
  // A lone request can never fill max_batch_instances: with a deadline
  // configured, the only way it launches (short of shutdown) is the
  // deadline expiring — and the launch is counted as such.
  ServiceConfig config = serial_engine_config();
  config.batching_deadline = 25ms;
  Service service(config);
  service.add_graph("a", graph_a());

  Submission only = service.submit(walk_request("a", 2, 8));
  ASSERT_TRUE(only.accepted());
  EXPECT_GT(only.result.get().sampled_edges(), 0u);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.deadline_launches, 1u);
}

TEST(ServiceScheduler, FullBatchLaunchesBeforeItsDeadline) {
  // Two compatible requests exactly filling max_batch_instances launch
  // immediately — a long deadline must not hold a full batch hostage.
  ServiceConfig config = serial_engine_config();
  config.batching_deadline = 30s;  // a hung test, if the full check broke
  config.max_request_instances = 4;
  config.max_batch_instances = 8;
  config.start_paused = true;
  Service service(config);
  service.add_graph("a", graph_a());

  Submission first = service.submit(walk_request("a", 4, 8));
  Submission second = service.submit(walk_request("a", 4, 8));
  ASSERT_TRUE(first.accepted() && second.accepted());
  service.resume();
  EXPECT_GT(first.result.get().sampled_edges(), 0u);
  EXPECT_GT(second.result.get().sampled_edges(), 0u);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.coalesced_requests, 2u);
  EXPECT_EQ(stats.deadline_launches, 0u);
}

TEST(ServiceScheduler, QuotaSkippedRequestsNeverMakeAHeadFull) {
  // Head selection's "is this head full?" probe and formation share one
  // planner, so a request formation would skip for its tenant's quota
  // never counts toward a full batch. Queued: x (2 instances, tenant
  // "x"), y1 (4, "y") and y2 (2, "y") — 8 compatible instances, exactly
  // max_batch_instances, but tenant y's quota of 4 admits only y1 beside
  // x. The head must wait out its deadline and launch partial carrying
  // x + y1; y2 follows in a batch of its own.
  ServiceConfig config = serial_engine_config();
  config.batching_deadline = 50ms;
  config.max_request_instances = 4;
  config.max_batch_instances = 8;
  config.tenant_quota = 4;
  config.start_paused = true;
  config.trace = std::make_shared<telemetry::TraceRecorder>();
  Service service(config);
  service.add_graph("a", graph_a());

  const auto submitted = std::chrono::steady_clock::now();
  Submission x = service.submit(walk_request("a", 2, 8, "x"));
  Submission y1 = service.submit(walk_request("a", 4, 8, "y"));
  Submission y2 = service.submit(walk_request("a", 2, 8, "y"));
  ASSERT_TRUE(x.accepted() && y1.accepted() && y2.accepted());
  service.resume();
  EXPECT_GT(x.result.get().sampled_edges(), 0u);
  EXPECT_GE(std::chrono::steady_clock::now() - submitted,
            config.batching_deadline)
      << "the head launched as full before its deadline";
  service.drain();
  EXPECT_GT(y1.result.get().sampled_edges(), 0u);
  EXPECT_GT(y2.result.get().sampled_edges(), 0u);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.deadline_launches, 2u);
  EXPECT_EQ(stats.coalesced_requests, 2u);
  EXPECT_GE(stats.quota_deferrals, 1u);

  // Batch composition, in formation order: x + y1, then y2 alone.
  std::vector<std::pair<std::string, std::string>> batches;
  for (const telemetry::TraceEvent& event : config.trace->snapshot()) {
    if (event.name != "batch" ||
        event.phase != telemetry::TracePhase::kBegin) {
      continue;
    }
    std::pair<std::string, std::string> shape;
    for (const auto& [key, value] : event.args) {
      if (key == "requests") shape.first = value;
      if (key == "instances") shape.second = value;
    }
    batches.push_back(shape);
  }
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"2", "6"}, {"1", "2"}};
  EXPECT_EQ(batches, expected);
}

TEST(ServiceScheduler, ShutdownDrainsWithoutWaitingOutDeadlines) {
  ServiceConfig config = serial_engine_config();
  config.batching_deadline = 30s;
  config.start_paused = true;
  Service service(config);
  service.add_graph("a", graph_a());

  Submission queued = service.submit(walk_request("a", 2, 8));
  ASSERT_TRUE(queued.accepted());
  const auto begin = std::chrono::steady_clock::now();
  service.shutdown();  // must not sleep 30s per queued request
  EXPECT_GT(queued.result.get().sampled_edges(), 0u);
  EXPECT_LT(std::chrono::steady_clock::now() - begin, 10s);
  EXPECT_EQ(service.stats().deadline_launches, 0u);
}

TEST(ServiceScheduler, IndependentGraphBatchesRunConcurrently) {
  // Two batches on different graphs may be in flight at once; the same
  // graph never overlaps itself. Formation is deterministic (everything
  // queued while paused); the *executing* overlap is asserted loosely,
  // since it depends on host timing.
  ServiceConfig config = serial_engine_config();
  config.max_concurrent_batches = 2;
  config.start_paused = true;
  Service service(config);
  service.add_graph("a", graph_a());
  service.add_graph("b", graph_b());

  Submission on_a = service.submit(walk_request("a", 24, 48));
  Submission on_b = service.submit(walk_request("b", 24, 48));
  ASSERT_TRUE(on_a.accepted() && on_b.accepted());
  service.resume();
  service.drain();

  EXPECT_GT(on_a.result.get().sampled_edges(), 0u);
  EXPECT_GT(on_b.result.get().sampled_edges(), 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, 2u);  // different graphs never coalesce
  EXPECT_EQ(stats.coalesced_requests, 0u);
  // Deterministic: the dispatcher forms both batches (one per idle
  // graph) before any runner can retire the first, so both were
  // in flight simultaneously at the scheduling level.
  EXPECT_EQ(stats.peak_inflight_batches, 2u);
  EXPECT_GE(stats.peak_concurrent_batches, 1u);
  EXPECT_LE(stats.peak_concurrent_batches, 2u);
}

TEST(ServiceScheduler, TenantQuotaBoundsAFloodingTenant) {
  // "noisy" floods two graphs; with tenant_quota covering only one of
  // its requests, its second batch must defer — and "quiet", on a third
  // graph, is dispatched into the second runner slot instead of starving
  // behind the flood. The deferral is deterministic: a quantum covering
  // noisy1's whole cost funds every head in one turn, so the ring order
  // (noisy before quiet) forms noisy1 first and books its instances; the
  // dispatcher then runs its next pass without releasing the lock, and
  // that pass sees noisy2 over quota while noisy1 is still in flight.
  // The quantum is pinned because under the auto quantum quiet's cheaper
  // head forms first, and the only deferring pass races noisy1's
  // retirement.
  ServiceConfig config = serial_engine_config();
  config.max_concurrent_batches = 2;
  config.tenant_quota = 4;
  config.fairness_quantum = 4 * 4096;  // noisy1's estimated edge cost
  config.start_paused = true;
  config.trace = std::make_shared<telemetry::TraceRecorder>();
  Service service(config);
  service.add_graph("f1", graph_a());
  service.add_graph("f2", graph_b());
  service.add_graph("v", std::make_shared<const CsrGraph>(
                             generate_rmat(1024, 8192, 99)));

  Submission noisy1 = service.submit(walk_request("f1", 4, 4096, "noisy"));
  Submission noisy2 = service.submit(walk_request("f2", 4, 4096, "noisy"));
  Submission quiet = service.submit(walk_request("v", 1, 2, "quiet"));
  ASSERT_TRUE(noisy1.accepted() && noisy2.accepted() && quiet.accepted());
  service.resume();

  service.drain();
  EXPECT_GT(quiet.result.get().sampled_edges(), 0u);
  EXPECT_GT(noisy1.result.get().sampled_edges(), 0u);
  EXPECT_GT(noisy2.result.get().sampled_edges(), 0u);

  // The quiet tenant's tiny batch rides the second runner slot while the
  // flood's first (heavy) batch occupies the first; the flood's second
  // request cannot form before that batch retires.
  EXPECT_LT(formed_at(*config.trace, quiet), formed_at(*config.trace, noisy2))
      << "the flooding tenant overran its quota";

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_GE(stats.quota_deferrals, 1u);
  for (const TenantStats& tenant : stats.tenants) {
    if (tenant.tenant == "noisy") {
      EXPECT_EQ(tenant.completed, 2u);
      EXPECT_LE(tenant.peak_inflight_instances, 4u);  // the quota held
    }
    if (tenant.tenant == "quiet") {
      EXPECT_EQ(tenant.completed, 1u);
    }
  }
}

TEST(ServiceScheduler, DeficitRoundRobinRotatesTenants) {
  // One graph, one batch at a time: dispatch order is pure fairness
  // policy. Tenant "bulk" queues three incompatible (non-coalescible)
  // requests before "tiny" queues one; round-robin hands the second
  // batch to "tiny" instead of draining the whole flood first.
  ServiceConfig config = serial_engine_config();
  config.max_concurrent_batches = 1;
  config.start_paused = true;
  config.trace = std::make_shared<telemetry::TraceRecorder>();
  Service service(config);
  service.add_graph("a", graph_a());

  // Distinct lengths keep the bulk requests non-coalescible.
  Submission bulk1 = service.submit(walk_request("a", 4, 8, "bulk"));
  Submission bulk2 = service.submit(walk_request("a", 8, 2048, "bulk"));
  Submission bulk3 = service.submit(walk_request("a", 8, 2049, "bulk"));
  Submission tiny = service.submit(walk_request("a", 1, 2, "tiny"));
  ASSERT_TRUE(bulk1.accepted() && bulk2.accepted() && bulk3.accepted() &&
              tiny.accepted());
  service.resume();
  service.drain();
  EXPECT_GT(tiny.result.get().sampled_edges(), 0u);
  bulk1.result.get();
  bulk2.result.get();
  bulk3.result.get();
  EXPECT_EQ(service.stats().batches, 4u);

  // Batches run strictly one at a time, so the flood's last batch forms
  // after tiny's — unless fairness failed and tiny was dispatched behind
  // the whole flood.
  EXPECT_LT(formed_at(*config.trace, tiny), formed_at(*config.trace, bulk3))
      << "tiny was starved behind the flood";
}

TEST(ServiceScheduler, EdgeWeightedFairnessLetsCheapTenantsOvertake) {
  // The DRR cost is estimated sampled edges, not instance count (PR 9):
  // with *equal* instance counts, a tenant flooding 8x2048-step walks
  // (16384 edges, two quanta at the default 8192-edge quantum) must not
  // dispatch 1:1 against a tenant of 8x2-step walks (16 edges, funded
  // every turn). Under the old instance-denominated quantum both tenants
  // cost the same and strictly alternate; edge weighting lets all three
  // cheap requests dispatch before the flood's second request.
  ServiceConfig config = serial_engine_config();
  config.max_concurrent_batches = 1;
  config.start_paused = true;
  config.trace = std::make_shared<telemetry::TraceRecorder>();
  Service service(config);
  service.add_graph("a", graph_a());

  // Distinct lengths keep requests non-coalescible; "heavy" submits
  // first, so it also leads the fairness ring.
  Submission heavy1 = service.submit(walk_request("a", 8, 2048, "heavy"));
  Submission heavy2 = service.submit(walk_request("a", 8, 2049, "heavy"));
  Submission heavy3 = service.submit(walk_request("a", 8, 2050, "heavy"));
  Submission light1 = service.submit(walk_request("a", 8, 2, "light"));
  Submission light2 = service.submit(walk_request("a", 8, 3, "light"));
  Submission light3 = service.submit(walk_request("a", 8, 4, "light"));
  ASSERT_TRUE(heavy1.accepted() && heavy2.accepted() && heavy3.accepted());
  ASSERT_TRUE(light1.accepted() && light2.accepted() && light3.accepted());
  service.resume();
  service.drain();
  EXPECT_GT(light3.result.get().sampled_edges(), 0u);
  heavy1.result.get();
  heavy2.result.get();
  heavy3.result.get();
  light1.result.get();
  light2.result.get();
  EXPECT_EQ(service.stats().batches, 6u);

  // Serialized batches: the last cheap request forms before the flood's
  // second.
  EXPECT_LT(formed_at(*config.trace, light3),
            formed_at(*config.trace, heavy2))
      << "cheap tenant paid instance-denominated cost";
}

TEST(ServiceScheduler, PerTenantStatsAccumulate) {
  ServiceConfig config = serial_engine_config();
  config.start_paused = true;
  Service service(config);
  service.add_graph("a", graph_a());

  Submission alpha1 = service.submit(walk_request("a", 3, 8, "alpha"));
  Submission alpha2 = service.submit(walk_request("a", 2, 8, "alpha"));
  Submission beta = service.submit(walk_request("a", 4, 8, "beta"));
  ASSERT_TRUE(alpha1.accepted() && alpha2.accepted() && beta.accepted());
  service.resume();
  service.drain();

  const std::uint64_t alpha_edges = alpha1.result.get().sampled_edges() +
                                    alpha2.result.get().sampled_edges();
  const std::uint64_t beta_edges = beta.result.get().sampled_edges();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, 1u);  // compatible across tenants: one run
  ASSERT_EQ(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.tenants[0].tenant, "alpha");
  EXPECT_EQ(stats.tenants[0].accepted, 2u);
  EXPECT_EQ(stats.tenants[0].completed, 2u);
  EXPECT_EQ(stats.tenants[0].sampled_edges, alpha_edges);
  EXPECT_EQ(stats.tenants[0].peak_inflight_instances, 5u);
  EXPECT_EQ(stats.tenants[1].tenant, "beta");
  EXPECT_EQ(stats.tenants[1].completed, 1u);
  EXPECT_EQ(stats.tenants[1].sampled_edges, beta_edges);
  EXPECT_EQ(stats.tenants[1].failed + stats.tenants[0].failed, 0u);
}

}  // namespace
}  // namespace csaw
