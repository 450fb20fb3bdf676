// The streaming delivery contract (Service::submit_streaming): the
// concatenation of a stream's chunks, ordered by request-local instance
// index, is byte-identical to the buffered RunResult of the same request
// — on every streamed service path of the matrix (tests/paths.hpp: each
// engine backend, solo or coalesced, host widths 1/2/7) and at any
// consumer speed; a slow consumer's in-flight chunks never exceed
// ServiceConfig::stream_chunk_budget; and cancellation / deadline expiry
// mid-stream deliver the already-completed chunks before surfacing the
// PR 7 RequestOutcome taxonomy as a typed RequestError. Abandoning a stream cancels the request's remaining
// instances instead of parking the batch forever.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "../paths.hpp"

namespace csaw {
namespace {

constexpr std::uint32_t kWalkLength = 8;
constexpr std::uint32_t kInstances = 12;
constexpr std::uint32_t kBase = 64;

using testing::expect_matrix;
using testing::Front;
using testing::gapped_tags;
using testing::Path;
using testing::paths_where;
using testing::spread_seeds;

const std::shared_ptr<const CsrGraph>& shared_graph() {
  static const auto g =
      std::make_shared<const CsrGraph>(generate_rmat(1024, 8192, 93));
  return g;
}

SampleRequest walk_request(std::uint32_t n = kInstances,
                           std::uint32_t length = kWalkLength) {
  SampleRequest request = SampleRequest::single_seeds(
      "g", AlgorithmId::kBiasedRandomWalk, length,
      spread_seeds(*shared_graph(), n));
  request.rng_base = kBase;
  return request;
}

/// Drains `stream` to completion and returns the chunks keyed by
/// instance, asserting each instance arrives exactly once.
std::map<std::uint32_t, std::vector<Edge>> drain_stream(SampleStream& stream) {
  std::map<std::uint32_t, std::vector<Edge>> rows;
  while (auto chunk = stream.next()) {
    const bool inserted =
        rows.emplace(chunk->instance, std::move(chunk->edges)).second;
    EXPECT_TRUE(inserted) << "instance " << chunk->instance
                          << " streamed twice";
  }
  return rows;
}

void expect_stream_equals_buffered(
    const std::map<std::uint32_t, std::vector<Edge>>& rows,
    const SampleStore& buffered, const std::string& label) {
  ASSERT_EQ(rows.size(), buffered.num_instances()) << label;
  for (std::uint32_t i = 0; i < buffered.num_instances(); ++i) {
    const auto it = rows.find(i);
    ASSERT_NE(it, rows.end()) << label << ", instance " << i;
    EXPECT_EQ(it->second, buffered.edges(i)) << label << ", instance " << i;
  }
}

TEST(ServiceStream, StreamedPathsMatchTheOracle) {
  // Every streamed service path of the matrix (tests/paths.hpp): the
  // reassembled chunks are the oracle's bytes, each instance arrives
  // once, the stream ends kOk with one chunk per instance, and the
  // service books the streamed edges although their rows moved out
  // mid-run. Adjacent tags make the solo run one request of twelve
  // chunks; gapped tags make it several.
  const auto paths = paths_where([](const Path& path) {
    return path.front == Front::kService && path.streamed;
  });
  for (const std::uint32_t cycle : {1u, 5u}) {
    expect_matrix(paths, *shared_graph(),
                  {AlgorithmId::kBiasedRandomWalk, kWalkLength},
                  spread_seeds(*shared_graph(), kInstances),
                  gapped_tags(kInstances, kBase, cycle));
  }
}

TEST(ServiceStream, SlowConsumerIsBoundedByBudget) {
  ServiceConfig config;
  config.stream_chunk_budget = 2;
  config.options.num_threads = 4;
  Service service(config);
  service.add_graph("g", shared_graph());

  constexpr std::uint32_t kMany = 24;
  Submission buffered = service.submit(walk_request(kMany));
  ASSERT_TRUE(buffered.accepted());
  const RunResult reference = buffered.result.get();

  StreamSubmission streaming = service.submit_streaming(walk_request(kMany));
  ASSERT_TRUE(streaming.accepted());
  // Consume deliberately slower than the producer completes instances:
  // the producer must park instead of queueing more than the budget.
  std::map<std::uint32_t, std::vector<Edge>> rows;
  while (true) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    auto chunk = streaming.stream->next();
    if (!chunk.has_value()) break;
    rows.emplace(chunk->instance, std::move(chunk->edges));
  }
  expect_stream_equals_buffered(rows, reference.samples, "slow consumer");
  // The backpressure bound held at every point in the run — and the
  // consumer was genuinely behind, so the bound was actually exercised.
  EXPECT_LE(streaming.stream->peak_queued(), 2u);
  EXPECT_EQ(streaming.stream->delivered_chunks(), kMany);
  service.drain();
  EXPECT_EQ(service.stats().failed, 0u);
}

TEST(ServiceStream, CancelMidStreamDeliversPrefixThenTypedOutcome) {
  // Serial host + budget 1: after the first chunk is taken the producer
  // parks on the second, so no further instance can start sampling until
  // the consumer moves — cancelling here provably lands mid-stream.
  ServiceConfig config;
  config.stream_chunk_budget = 1;
  config.options.num_threads = 1;
  Service service(config);
  service.add_graph("g", shared_graph());

  Submission buffered = service.submit(walk_request());
  ASSERT_TRUE(buffered.accepted());
  const RunResult reference = buffered.result.get();

  CancelSource client;
  SampleRequest request = walk_request();
  request.cancel = client.token();
  StreamSubmission streaming = service.submit_streaming(std::move(request));
  ASSERT_TRUE(streaming.accepted());

  auto first = streaming.stream->next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->edges, reference.samples.edges(first->instance));
  client.cancel();

  // Already-completed chunks drain first, then the typed outcome.
  std::uint64_t delivered = 1;
  try {
    while (auto chunk = streaming.stream->next()) {
      ++delivered;
      EXPECT_EQ(chunk->edges, reference.samples.edges(chunk->instance));
    }
    FAIL() << "cancelled stream ended without a typed outcome";
  } catch (const RequestError& error) {
    EXPECT_EQ(error.outcome(), RequestOutcome::kCancelled);
  }
  EXPECT_EQ(streaming.stream->outcome(), RequestOutcome::kCancelled);
  // The cancel genuinely cut the run short: not every instance streamed.
  EXPECT_LT(delivered, kInstances);
  service.drain();
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(ServiceStream, DeadlineMidStreamSurfacesAsDeadlineExceeded) {
  // Same parked-producer construction, but the clock does the firing:
  // while the consumer sits on the parked stream, the request's deadline
  // expires and the dispatcher cancels its remaining instances.
  ServiceConfig config;
  config.stream_chunk_budget = 1;
  config.options.num_threads = 1;
  Service service(config);
  service.add_graph("g", shared_graph());

  Submission buffered = service.submit(walk_request());
  ASSERT_TRUE(buffered.accepted());
  const RunResult reference = buffered.result.get();

  SampleRequest request = walk_request();
  request.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  StreamSubmission streaming = service.submit_streaming(std::move(request));
  ASSERT_TRUE(streaming.accepted());

  auto first = streaming.stream->next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->edges, reference.samples.edges(first->instance));
  // Sit on the stream until the deadline is safely past.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  std::uint64_t delivered = 1;
  try {
    while (auto chunk = streaming.stream->next()) {
      ++delivered;
      EXPECT_EQ(chunk->edges, reference.samples.edges(chunk->instance));
    }
    FAIL() << "expired stream ended without a typed outcome";
  } catch (const RequestError& error) {
    EXPECT_EQ(error.outcome(), RequestOutcome::kDeadlineExceeded);
  }
  EXPECT_LT(delivered, kInstances);
  service.drain();
  EXPECT_EQ(service.stats().deadline_exceeded, 1u);
}

TEST(ServiceStream, QueuedDeadlineExpiryFailsTheStreamFast) {
  // A paused service never dispatches: the deadline expires while the
  // request is still queued, and the sweep must finish the stream with
  // the typed outcome instead of fulfilling a promise nobody holds.
  ServiceConfig config;
  config.start_paused = true;
  Service service(config);
  service.add_graph("g", shared_graph());

  SampleRequest request = walk_request();
  request.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  StreamSubmission streaming = service.submit_streaming(std::move(request));
  ASSERT_TRUE(streaming.accepted());

  EXPECT_THROW(
      {
        while (streaming.stream->next().has_value()) {
        }
      },
      RequestError);
  EXPECT_EQ(streaming.stream->outcome(), RequestOutcome::kDeadlineExceeded);
  EXPECT_EQ(streaming.stream->delivered_chunks(), 0u);
  service.resume();
  service.drain();
  EXPECT_EQ(service.stats().deadline_exceeded, 1u);
}

TEST(ServiceStream, AbandoningTheStreamCancelsTheRequest) {
  // Dropping the stream handle mid-run must not park the batch forever:
  // the destructor cancels the request's remaining instances and the
  // service retires it as cancelled.
  ServiceConfig config;
  config.stream_chunk_budget = 1;
  config.options.num_threads = 1;
  Service service(config);
  service.add_graph("g", shared_graph());

  {
    StreamSubmission streaming = service.submit_streaming(walk_request());
    ASSERT_TRUE(streaming.accepted());
    auto first = streaming.stream->next();
    ASSERT_TRUE(first.has_value());
    // The stream handle dies here with the producer likely parked.
  }
  service.drain();  // must not hang
  EXPECT_EQ(service.stats().cancelled, 1u);
  EXPECT_EQ(service.stats().completed, 0u);
}

TEST(ServiceStream, StreamingAndBufferedCoalesceIntoOneBatch) {
  // A streaming request and a buffered request on one graph coalesce
  // like any two compatible requests; each gets its own delivery shape
  // and the buffered neighbor's bytes are untouched by the bridge.
  ServiceConfig config;
  config.start_paused = true;
  Service service(config);
  service.add_graph("g", shared_graph());

  // Solo buffered references for both stream ranges.
  ServiceConfig ref_config;
  Service reference(ref_config);
  reference.add_graph("g", shared_graph());
  const RunResult want_probe =
      reference.submit(walk_request()).result.get();
  SampleRequest other = walk_request();
  other.rng_base = kBase + 100;
  const RunResult want_other =
      reference.submit(std::move(other)).result.get();

  StreamSubmission streaming = service.submit_streaming(walk_request());
  SampleRequest buffered_request = walk_request();
  buffered_request.rng_base = kBase + 100;
  Submission buffered = service.submit(std::move(buffered_request));
  ASSERT_TRUE(streaming.accepted() && buffered.accepted());
  service.resume();

  const auto rows = drain_stream(*streaming.stream);
  expect_stream_equals_buffered(rows, want_probe.samples, "coalesced stream");
  const RunResult got = buffered.result.get();
  ASSERT_EQ(got.samples.num_instances(), want_other.samples.num_instances());
  for (std::uint32_t i = 0; i < got.samples.num_instances(); ++i) {
    EXPECT_EQ(got.samples.edges(i), want_other.samples.edges(i));
  }
  service.drain();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.coalesced_requests, 2u);
}

}  // namespace
}  // namespace csaw
