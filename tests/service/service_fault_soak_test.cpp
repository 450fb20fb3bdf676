// Fault-injection soak for csaw::Service (PR 7): 8 client threads fire
// 200 mixed requests at two *paged* graphs while a deterministic
// injector fails ~5% of partition-copy sites (absorbed by a 2-attempt
// retry budget), two scripted sites fail terminally, some requests
// carry deadlines (a mix of generous and hopeless), and some are
// cancelled from the client thread at random points in their life. CI
// runs this under ThreadSanitizer with CSAW_THREADS=4 (the fault-soak
// job). The assertions are accounting closure: every accepted future
// resolves (value or typed RequestError), the failure breakdown sums
// exactly, the tenant slice matches the global counters, and the
// service drains clean — no pin, no timer, no queue entry left behind.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "service/service.hpp"
#include "util/fault_injector.hpp"

namespace csaw {
namespace {

constexpr std::uint32_t kClients = 8;
constexpr std::uint32_t kRequestsPerClient = 25;  // 8 x 25 = 200 total

TEST(ServiceFaultSoak, FaultyPagedTrafficClosesItsBooks) {
  ServiceConfig config;
  config.max_queue_depth = 256;
  config.max_concurrent_batches = 2;
  config.batching_deadline = std::chrono::microseconds(200);
  config.options.memory_assumption = MemoryAssumption::kExceeds;  // page all
  auto injector = std::make_shared<FaultInjector>([] {
    FaultInjector::Config c;
    c.seed = 7;
    c.fail_rate = 0.05;
    c.fail_times = 1;  // absorbed by the 2-attempt budget below
    c.slow_rate = 0.05;
    return c;
  }());
  // Two scripted terminal sites (deeper than the retry budget): whichever
  // batches open them fail typed, everyone else retries through.
  injector->fail_next(0, 5);
  injector->fail_next(1, 5);
  config.options.transfer_faults = injector;
  config.options.transfer_retry.attempts = 2;
  Service service(config);
  const auto small =
      std::make_shared<const CsrGraph>(generate_rmat(512, 4096, 95));
  const auto large =
      std::make_shared<const CsrGraph>(generate_rmat(1024, 8192, 96));
  service.add_graph("small", small);
  service.add_graph("large", large);

  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> cancelled{0};
  std::atomic<std::uint64_t> deadline_exceeded{0};
  std::atomic<std::uint64_t> transfer_failed{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> edges{0};

  struct InFlight {
    std::future<RunResult> future;
    // Keeps the client's cancel source alive until the future resolves.
    std::shared_ptr<CancelSource> source;
  };

  const auto resolve = [&](InFlight& flight) {
    try {
      edges += flight.future.get().sampled_edges();
      ++ok;
    } catch (const RequestError& e) {
      switch (e.outcome()) {
        case RequestOutcome::kCancelled:
          ++cancelled;
          break;
        case RequestOutcome::kDeadlineExceeded:
          ++deadline_exceeded;
          break;
        case RequestOutcome::kTransferFailed:
          ++transfer_failed;
          break;
        default:
          FAIL() << "unexpected outcome: " << to_string(e.outcome());
      }
    }
  };

  const auto client = [&](std::uint32_t c) {
    std::vector<InFlight> in_flight;
    for (std::uint32_t r = 0; r < kRequestsPerClient; ++r) {
      SampleRequest request;
      const bool use_large = r % 3 == 0;
      request.graph = use_large ? "large" : "small";
      request.algorithm = AlgorithmId::kBiasedRandomWalk;
      request.depth_or_length = 4 + (r % 3);
      request.tenant = "client-" + std::to_string(c % 3);  // 3 tenants
      const VertexId num_vertices =
          (use_large ? large : small)->num_vertices();
      const std::uint32_t instances = 1 + (r % 3);
      for (std::uint32_t i = 0; i < instances; ++i) {
        request.seeds.push_back(
            {static_cast<VertexId>((c * 131 + r * 17 + i) % num_vertices)});
      }
      std::shared_ptr<CancelSource> source;
      if (r % 6 == 5) {
        source = std::make_shared<CancelSource>();
        request.cancel = source->token();
      }
      if (r % 5 == 4) {
        // A mix of hopeless and generous deadlines; either may land
        // either way under load — closure, not placement, is asserted.
        request.deadline = std::chrono::steady_clock::now() +
                           (r % 2 == 0 ? std::chrono::milliseconds(50)
                                       : std::chrono::microseconds(200));
      }
      Submission submission = service.submit(std::move(request));
      if (!submission.accepted()) {
        // Only a deadline that expired between the clock read and
        // admission can reject here.
        EXPECT_EQ(submission.rejected, RejectReason::kDeadlineExpired);
        ++rejected;
        continue;
      }
      in_flight.push_back({std::move(submission.result), source});
      if (source != nullptr) {
        // Fired from the client thread while the request is queued,
        // forming, or mid-engine-run — whichever the race picks.
        source->cancel();
      }
      // Resolve a few early so queue pressure and waiting interleave.
      if (in_flight.size() >= 4) {
        resolve(in_flight.front());
        in_flight.erase(in_flight.begin());
      }
    }
    for (auto& flight : in_flight) resolve(flight);
  };

  std::atomic<bool> stop_observer{false};
  std::thread observer([&] {
    // Concurrent control-plane reads while traffic (and faults) flow.
    while (!stop_observer.load()) {
      (void)service.stats();
      (void)service.health();
      (void)service.graphs();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> clients;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back(client, c);
  }
  for (auto& t : clients) t.join();
  stop_observer.store(true);
  observer.join();
  service.shutdown();

  // Every submitted request is accounted for exactly once: accepted
  // requests resolved to a value or a typed error, the rest rejected.
  const std::uint64_t failed_local =
      cancelled.load() + deadline_exceeded.load() + transfer_failed.load();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, kClients * kRequestsPerClient);
  EXPECT_EQ(stats.accepted, ok.load() + failed_local);
  EXPECT_EQ(stats.completed, ok.load());
  EXPECT_EQ(stats.failed, failed_local);
  EXPECT_EQ(stats.cancelled, cancelled.load());
  EXPECT_EQ(stats.deadline_exceeded, deadline_exceeded.load());
  EXPECT_EQ(stats.transfer_failed, transfer_failed.load());
  EXPECT_EQ(stats.internal_errors, 0u);
  EXPECT_EQ(stats.rejected_total(), rejected.load());
  EXPECT_EQ(stats.rejected_deadline_expired, rejected.load());
  EXPECT_EQ(stats.sampled_edges, edges.load());
  EXPECT_GT(stats.completed, 0u);
  EXPECT_GT(stats.sampled_edges, 0u);
  // The random 5% sites plus the scripted ones really were exercised.
  EXPECT_GT(injector->attempts_seen(), 0u);

  // The tenant slice closes over the totals, including the breakdown.
  std::uint64_t tenant_accepted = 0;
  std::uint64_t tenant_completed = 0;
  std::uint64_t tenant_failed = 0;
  std::uint64_t tenant_edges = 0;
  for (const TenantStats& tenant : stats.tenants) {
    tenant_accepted += tenant.accepted;
    tenant_completed += tenant.completed;
    tenant_failed += tenant.failed;
    tenant_edges += tenant.sampled_edges;
    EXPECT_EQ(tenant.failed, tenant.cancelled + tenant.deadline_exceeded +
                                 tenant.transfer_failed +
                                 tenant.internal_errors)
        << tenant.tenant;
  }
  EXPECT_EQ(tenant_accepted, stats.accepted);
  EXPECT_EQ(tenant_completed, stats.completed);
  EXPECT_EQ(tenant_failed, stats.failed);
  EXPECT_EQ(tenant_edges, stats.sampled_edges);

  // Drained clean: nothing queued, in flight, or armed — and the health
  // window saw every retired request (200 < the default window).
  const ServiceHealth health = service.health();
  EXPECT_FALSE(health.accepting);
  EXPECT_EQ(health.queue_depth, 0u);
  EXPECT_EQ(health.inflight_batches, 0u);
  EXPECT_EQ(health.executing_batches, 0u);
  EXPECT_EQ(health.timed_requests, 0u);
  EXPECT_EQ(health.window, stats.accepted);
  EXPECT_EQ(health.recent_failures, stats.failed);
}

}  // namespace
}  // namespace csaw
