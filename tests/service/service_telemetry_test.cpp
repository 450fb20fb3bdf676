// The unified telemetry layer on the serving tier (PR 9): the golden
// metrics_text() exposition (pinned byte-for-byte on an idle service),
// the always-on latency histograms, the health() outcome rates, and the
// per-request trace: request/queue/batch/chain spans nest by global
// sequence number, transfer spans on a paged batch wrap their retry
// instants, and stream_chunk instants ride inside the batch span.
// Zero-cost gating (byte-identical simulated metrics with tracing off)
// is enforced by the bench trajectory, not here.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "core/sampler.hpp"
#include "graph/generators.hpp"
#include "oom/cache/partition_cache.hpp"
#include "oom/partitioned_graph.hpp"
#include "service/service.hpp"
#include "telemetry/trace.hpp"
#include "util/fault_injector.hpp"
#include "../paths.hpp"

namespace csaw {
namespace {

using testing::spread_seeds;

using telemetry::TraceEvent;
using telemetry::TracePhase;

const std::shared_ptr<const CsrGraph>& small_graph() {
  static const auto g =
      std::make_shared<const CsrGraph>(generate_rmat(1024, 8192, 97));
  return g;
}

ServiceConfig serial_config() {
  ServiceConfig config;
  config.options.num_threads = 1;
  return config;
}

SampleRequest walk_request(std::uint32_t instances, std::uint32_t length,
                           const std::string& tenant = {}) {
  SampleRequest request = SampleRequest::single_seeds(
      "g", AlgorithmId::kBiasedRandomWalk, length,
      spread_seeds(*small_graph(), instances));
  request.tenant = tenant;
  return request;
}

/// Arg lookup on a trace event; empty when absent.
std::string arg(const TraceEvent& event, const std::string& key) {
  for (const auto& [k, v] : event.args) {
    if (k == key) return v;
  }
  return {};
}

/// The [begin.seq, end.seq] window of the unique span with `name` (and,
/// when given, the matching arg); fails the test when absent.
struct SpanWindow {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};
std::optional<SpanWindow> span_window(const std::vector<TraceEvent>& events,
                                      const std::string& name,
                                      std::uint64_t id) {
  SpanWindow window;
  bool found_begin = false;
  bool found_end = false;
  for (const TraceEvent& event : events) {
    if (event.name != name || event.id != id) continue;
    if (event.phase == TracePhase::kBegin) {
      window.begin = event.seq;
      found_begin = true;
    } else if (event.phase == TracePhase::kEnd) {
      window.end = event.seq;
      found_end = true;
    }
  }
  if (!found_begin || !found_end) return std::nullopt;
  return window;
}

TEST(ServiceTelemetry, IdleExpositionMatchesGoldenFile) {
  // Pins the whole exposition format — family order, label order, bucket
  // boundaries, HELP text — on a service that has done nothing (host-time
  // observations would make any other state nondeterministic). Regenerate
  // by writing metrics_text() of an idle serial service over the golden
  // file when the catalog deliberately changes.
  std::ifstream golden(std::string(CSAW_SOURCE_DIR) +
                       "/tests/telemetry/golden_idle_metrics.txt");
  ASSERT_TRUE(golden.good()) << "golden file missing";
  std::stringstream contents;
  contents << golden.rdbuf();

  Service service(serial_config());
  EXPECT_EQ(service.metrics_text(), contents.str());
}

TEST(ServiceTelemetry, HistogramsObserveServedTraffic) {
  Service service(serial_config());
  service.add_graph("g", small_graph());
  for (int r = 0; r < 3; ++r) {
    Submission submission = service.submit(walk_request(4, 8));
    ASSERT_TRUE(submission.accepted());
    submission.result.get();
  }

  const telemetry::HistogramSnapshot queue_wait =
      service.histogram("csaw_request_queue_wait_seconds");
  const telemetry::HistogramSnapshot inflight =
      service.histogram("csaw_request_inflight_seconds");
  const telemetry::HistogramSnapshot inflight_sim =
      service.histogram("csaw_request_inflight_sim_seconds");
  const telemetry::HistogramSnapshot batch_sim =
      service.histogram("csaw_batch_sim_seconds");
  EXPECT_EQ(queue_wait.count, 3u);
  EXPECT_EQ(inflight.count, 3u);
  EXPECT_EQ(inflight_sim.count, 3u);
  EXPECT_GE(batch_sim.count, 1u);
  EXPECT_GT(inflight.sum, 0.0);
  EXPECT_GT(inflight_sim.sum, 0.0);  // simulated makespans are never 0
  EXPECT_TRUE(service.histogram("no_such_metric").bounds.empty());

  // The text exposition carries the same distributions.
  const std::string text = service.metrics_text();
  EXPECT_NE(text.find("csaw_request_queue_wait_seconds_count 3"),
            std::string::npos);
  EXPECT_NE(text.find("csaw_requests_accepted_total 3"), std::string::npos);
  EXPECT_NE(text.find("csaw_request_outcomes_total{outcome=\"ok\"} 3"),
            std::string::npos);
}

TEST(ServiceTelemetry, HealthReportsOutcomeRates) {
  Service service(serial_config());
  service.add_graph("g", small_graph());
  service.sample(walk_request(2, 8));

  // One cancelled request: cancel before resume so it dies queued.
  CancelSource cancel;
  ServiceConfig config = serial_config();
  config.start_paused = true;
  Service paused(config);
  paused.add_graph("g", small_graph());
  SampleRequest request = walk_request(2, 8);
  request.cancel = cancel.token();
  Submission doomed = paused.submit(std::move(request));
  ASSERT_TRUE(doomed.accepted());
  cancel.cancel(CancelReason::kRequested);
  paused.resume();
  paused.drain();
  EXPECT_THROW(doomed.result.get(), RequestError);

  const ServiceHealth ok_health = service.health();
  EXPECT_EQ(ok_health.window, 1u);
  EXPECT_EQ(ok_health.recent_ok, 1u);
  EXPECT_DOUBLE_EQ(ok_health.ok_rate, 1.0);
  EXPECT_DOUBLE_EQ(ok_health.cancelled_rate, 0.0);

  const ServiceHealth cancelled_health = paused.health();
  EXPECT_EQ(cancelled_health.window, 1u);
  EXPECT_EQ(cancelled_health.recent_cancelled, 1u);
  EXPECT_EQ(cancelled_health.recent_failures, 1u);
  EXPECT_DOUBLE_EQ(cancelled_health.cancelled_rate, 1.0);
  EXPECT_DOUBLE_EQ(cancelled_health.ok_rate, 0.0);
}

TEST(ServiceTelemetry, EmptyHealthWindowHasZeroRates) {
  Service service(serial_config());
  const ServiceHealth health = service.health();
  EXPECT_EQ(health.window, 0u);
  EXPECT_DOUBLE_EQ(health.ok_rate, 0.0);
  EXPECT_DOUBLE_EQ(health.cancelled_rate + health.deadline_rate +
                       health.transfer_failed_rate + health.internal_rate,
                   0.0);
}

TEST(ServiceTelemetry, TraceNestsChainSpansInsideBatchSpans) {
  ServiceConfig config = serial_config();
  config.trace = std::make_shared<telemetry::TraceRecorder>();
  Service service(config);
  service.add_graph("g", small_graph());
  service.sample(walk_request(3, 8));
  // The future resolves before the batch span closes; drain() waits for
  // the runner to retire the batch (which happens after the end event).
  service.drain();

  const std::vector<TraceEvent> events = config.trace->snapshot();
  ASSERT_FALSE(events.empty());

  // Exactly one batch span; find its seq window by id.
  std::uint64_t batch_id_arg = 0;
  std::optional<SpanWindow> batch;
  for (const TraceEvent& event : events) {
    if (event.name == "batch" && event.phase == TracePhase::kBegin) {
      batch = span_window(events, "batch", event.id);
      batch_id_arg = std::stoull(arg(event, "batch"));
    }
  }
  ASSERT_TRUE(batch.has_value());
  EXPECT_LT(batch->begin, batch->end);

  // Every chain span (one per instance) nests inside the batch span and
  // carries the batch attribution.
  std::size_t chains = 0;
  for (const TraceEvent& event : events) {
    if (event.name != "chain") continue;
    EXPECT_GT(event.seq, batch->begin);
    EXPECT_LT(event.seq, batch->end);
    if (event.phase == TracePhase::kBegin) {
      ++chains;
      EXPECT_EQ(arg(event, "batch"), std::to_string(batch_id_arg));
    }
  }
  EXPECT_EQ(chains, 3u);

  // The admission instant and both request-lifecycle spans exist, and
  // the queue span closes before the batch ends.
  std::optional<SpanWindow> request;
  std::optional<SpanWindow> queue;
  bool admitted = false;
  for (const TraceEvent& event : events) {
    if (event.name == "admit") admitted = true;
    if (event.phase != TracePhase::kBegin) continue;
    if (event.name == "request") {
      request = span_window(events, "request", event.id);
    }
    if (event.name == "queue") queue = span_window(events, "queue", event.id);
  }
  EXPECT_TRUE(admitted);
  ASSERT_TRUE(request.has_value());
  ASSERT_TRUE(queue.has_value());
  // request span: admission → outcome. It opens before the batch and
  // closes inside it (the outcome is delivered, then the batch span
  // closes last).
  EXPECT_LT(request->begin, batch->begin);
  EXPECT_GT(request->end, batch->begin);
  EXPECT_LT(request->end, batch->end);
  // queue span: admission → formation, so it closes before execution.
  EXPECT_LT(queue->begin, batch->begin);
  EXPECT_LT(queue->end, batch->end);
}

TEST(ServiceTelemetry, TraceWrapsTransferRetriesInTransferSpans) {
  // Paged service with a scripted fail-twice fault: the transfer span of
  // partition 0 must contain its two fault+retry instants by sequence.
  ServiceConfig config = serial_config();
  config.options.memory_assumption = MemoryAssumption::kExceeds;
  config.trace = std::make_shared<telemetry::TraceRecorder>();
  auto injector = std::make_shared<FaultInjector>();
  injector->fail_next(0, 2);
  config.options.transfer_faults = injector;
  config.options.transfer_retry.attempts = 3;
  Service service(config);
  service.add_graph("g", small_graph());

  // Seeds confined to partition 0 so the scripted fault is guaranteed to
  // hit a demand load.
  const PartitionedGraph parts(*small_graph(),
                               config.options.num_partitions);
  std::vector<VertexId> seeds;
  for (VertexId v = 0;
       v < small_graph()->num_vertices() && seeds.size() < 4; ++v) {
    if (parts.part_of(v) == 0) seeds.push_back(v);
  }
  ASSERT_EQ(seeds.size(), 4u);
  SampleRequest request = SampleRequest::single_seeds(
      "g", AlgorithmId::kBiasedRandomWalk, 8, seeds);
  const RunResult result = service.sample(std::move(request));
  ASSERT_TRUE(result.oom.has_value());
  EXPECT_EQ(result.oom->transfer_retries, 2u);

  const std::vector<TraceEvent> events = config.trace->snapshot();
  // Collect transfer span windows by id.
  std::map<std::uint64_t, SpanWindow> transfers;
  for (const TraceEvent& event : events) {
    if (event.name != "transfer" || event.phase != TracePhase::kBegin) {
      continue;
    }
    const std::optional<SpanWindow> window =
        span_window(events, "transfer", event.id);
    ASSERT_TRUE(window.has_value()) << "unbalanced transfer span";
    transfers.emplace(event.id, *window);
  }
  ASSERT_FALSE(transfers.empty());

  // Both retry instants (and both fault instants) fall inside some
  // transfer span's sequence window.
  std::size_t retries = 0;
  std::size_t faults = 0;
  for (const TraceEvent& event : events) {
    if (event.name != "transfer_retry" && event.name != "transfer_fault") {
      continue;
    }
    (event.name == "transfer_retry" ? retries : faults) += 1;
    bool inside = false;
    for (const auto& [id, window] : transfers) {
      if (event.seq > window.begin && event.seq < window.end) {
        inside = true;
        break;
      }
    }
    EXPECT_TRUE(inside) << event.name << " outside every transfer span";
  }
  EXPECT_EQ(retries, 2u);
  EXPECT_EQ(faults, 2u);

  // The successful transfer span reports its attempt count.
  bool saw_retried_transfer = false;
  for (const TraceEvent& event : events) {
    if (event.name == "transfer" && event.phase == TracePhase::kEnd &&
        arg(event, "attempts") == "3") {
      saw_retried_transfer = true;
    }
  }
  EXPECT_TRUE(saw_retried_transfer);
}

TEST(ServiceTelemetry, StreamChunksTraceInsideTheBatchSpan) {
  ServiceConfig config = serial_config();
  config.trace = std::make_shared<telemetry::TraceRecorder>();
  Service service(config);
  service.add_graph("g", small_graph());

  StreamSubmission submission = service.submit_streaming(walk_request(3, 8));
  ASSERT_TRUE(submission.accepted());
  std::size_t chunks = 0;
  while (submission.stream->next().has_value()) ++chunks;
  EXPECT_EQ(chunks, 3u);
  service.drain();  // the batch span closes after the stream finishes

  const std::vector<TraceEvent> events = config.trace->snapshot();
  std::optional<SpanWindow> batch;
  for (const TraceEvent& event : events) {
    if (event.name == "batch" && event.phase == TracePhase::kBegin) {
      batch = span_window(events, "batch", event.id);
    }
  }
  ASSERT_TRUE(batch.has_value());
  std::size_t chunk_instants = 0;
  for (const TraceEvent& event : events) {
    if (event.name != "stream_chunk") continue;
    ++chunk_instants;
    EXPECT_EQ(event.phase, TracePhase::kInstant);
    EXPECT_GT(event.seq, batch->begin);
    EXPECT_LT(event.seq, batch->end);
    EXPECT_NE(arg(event, "queued"), "");
  }
  EXPECT_EQ(chunk_instants, 3u);

  // Occupancy was observed once per delivered chunk.
  EXPECT_EQ(service.histogram("csaw_stream_chunk_occupancy").count, 3u);
}

TEST(ServiceTelemetry, RejectionsEmitTypedInstants) {
  ServiceConfig config = serial_config();
  config.trace = std::make_shared<telemetry::TraceRecorder>();
  Service service(config);
  service.add_graph("g", small_graph());

  Submission unknown = service.submit(walk_request(2, 8));
  // walk_request targets "g" which exists; craft an unknown-graph one.
  SampleRequest bad = walk_request(2, 8);
  bad.graph = "missing";
  Submission rejected = service.submit(std::move(bad));
  EXPECT_TRUE(unknown.accepted());
  EXPECT_EQ(rejected.rejected, RejectReason::kUnknownGraph);
  unknown.result.get();

  bool saw_reject = false;
  for (const TraceEvent& event : config.trace->snapshot()) {
    if (event.name == "reject") {
      saw_reject = true;
      EXPECT_NE(arg(event, "reason"), "");
    }
  }
  EXPECT_TRUE(saw_reject);
}

TEST(ServiceTelemetry, EstimatedEdgeCostWeighsWalksAndTrees) {
  // Walks: instances × length.
  EXPECT_EQ(Service::estimated_edge_cost(walk_request(8, 512)), 8u * 512u);
  EXPECT_EQ(Service::estimated_edge_cost(walk_request(1, 2)), 2u);

  // Sampling trees: instances × sum of neighbor_size^d.
  std::vector<VertexId> seeds = {0, 1};
  SampleRequest tree = SampleRequest::single_seeds(
      "g", AlgorithmId::kBiasedNeighborSampling, 2, seeds);
  tree.neighbor_size = 3;
  EXPECT_EQ(Service::estimated_edge_cost(tree), 2u * (3u + 9u));

  // Deep wide trees saturate at the per-instance cap instead of
  // overflowing.
  SampleRequest deep = SampleRequest::single_seeds(
      "g", AlgorithmId::kBiasedNeighborSampling, 40, seeds);
  deep.neighbor_size = 16;
  EXPECT_EQ(Service::estimated_edge_cost(deep),
            2u * (std::uint64_t{1} << 20));
}

/// The value of every exposition sample whose name starts with one of
/// `prefixes`, keyed by name plus labels.
std::map<std::string, std::string> exposition_samples(
    const std::string& text, const std::vector<std::string>& prefixes) {
  std::map<std::string, std::string> samples;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    for (const std::string& prefix : prefixes) {
      if (line.rfind(prefix, 0) != 0) continue;
      const std::size_t space = line.rfind(' ');
      samples[line.substr(0, space)] = line.substr(space + 1);
    }
  }
  return samples;
}

TEST(ServiceTelemetry, PagedAndShardCountersReachStatsAndExposition) {
  // Single-request paged batches, then sharded batches, on one service:
  // stats().oom and stats().shard are the sums of the requests' own
  // RunResult::oom and RunResult::shard, stats().kernels the merge of
  // their kernel stats, and every csaw_cache_*, csaw_transfer_*,
  // csaw_shard_* and csaw_kernel_* sample of the exposition reads its
  // field. A last paged batch fails its copy on every attempt, which
  // books one fault more than retries, so no two of those lines read
  // the same value; what else its cache counted is booked too
  // (FailedPagedBatchBooksWhatItsCacheCounted).
  const auto paged_graph =
      std::make_shared<const CsrGraph>(generate_rmat(2048, 16384, 98));
  ServiceConfig config = serial_config();
  config.shards = 2;
  // The device holds the small graph but not the large one, so "paged"
  // pages through a cache smaller than itself and "sharded" is routed.
  config.options.memory_budget_fraction = 1.0;
  config.options.device_params.memory_bytes =
      (small_graph()->bytes() + paged_graph->bytes()) / 2;
  auto transfer_faults = std::make_shared<FaultInjector>();
  transfer_faults->fail_next(0, 2);
  config.options.transfer_faults = transfer_faults;
  auto shard_faults = std::make_shared<FaultInjector>();
  shard_faults->fail_next(1, 1);
  config.shard_faults = shard_faults;
  Service service(config);
  service.add_graph("paged", paged_graph);
  service.add_graph("sharded", small_graph());

  const auto request = [](const std::string& graph, const CsrGraph& g,
                          std::uint32_t stride) {
    return SampleRequest::single_seeds(graph, AlgorithmId::kBiasedRandomWalk,
                                       12, spread_seeds(g, 8, stride));
  };
  OomMetrics want_oom;
  ShardMetrics want_shard;
  sim::KernelStats want_kernels;
  for (const std::uint32_t stride : {131u, 257u, 131u}) {
    const RunResult result = service.sample(request("paged", *paged_graph,
                                                    stride));
    ASSERT_TRUE(result.oom.has_value());
    ASSERT_FALSE(result.shard.has_value());
    want_oom.accumulate(*result.oom);
    want_kernels.merge(result.stats);
  }
  for (const std::uint32_t stride : {131u, 389u}) {
    const RunResult result =
        service.sample(request("sharded", *small_graph(), stride));
    ASSERT_TRUE(result.shard.has_value());
    ASSERT_FALSE(result.oom.has_value());
    want_shard.accumulate(*result.shard);
    want_kernels.merge(result.stats);
  }

  const ServiceStats before_failure = service.stats();
  for (std::uint32_t p = 0; p < config.options.num_partitions; ++p) {
    transfer_faults->fail_forever(p);
  }
  try {
    service.sample(request("paged", *paged_graph, 389));
    FAIL() << "every copy fails, so the batch should have failed";
  } catch (const RequestError& e) {
    EXPECT_EQ(e.outcome(), RequestOutcome::kTransferFailed);
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.transfer_failed, 1u);
  const std::uint32_t attempts = config.options.transfer_retry.attempts;
  EXPECT_EQ(stats.oom.transfer_faults - before_failure.oom.transfer_faults,
            attempts);
  EXPECT_EQ(stats.oom.transfer_retries - before_failure.oom.transfer_retries,
            attempts - 1);
  EXPECT_EQ(stats.paged_batches, 3u);
  EXPECT_EQ(stats.sharded_batches, 2u);
  // Before the failure, stats().oom is the sum of the requests' own.
  const OomMetrics& booked = before_failure.oom;
  EXPECT_EQ(booked.partition_transfers, want_oom.partition_transfers);
  EXPECT_EQ(booked.bytes_transferred, want_oom.bytes_transferred);
  EXPECT_DOUBLE_EQ(booked.kernel_imbalance, want_oom.kernel_imbalance);
  EXPECT_EQ(booked.scheduling_rounds, want_oom.scheduling_rounds);
  EXPECT_EQ(booked.kernel_launches, want_oom.kernel_launches);
  EXPECT_EQ(booked.cache_hits, want_oom.cache_hits);
  EXPECT_EQ(booked.cache_evictions, want_oom.cache_evictions);
  EXPECT_EQ(booked.prefetch_transfers, want_oom.prefetch_transfers);
  EXPECT_DOUBLE_EQ(booked.transfer_overlap_seconds,
                   want_oom.transfer_overlap_seconds);
  EXPECT_GT(booked.cache_hits, 0u);
  EXPECT_GT(booked.cache_evictions, 0u);
  // No copy of the failed batch landed, and it ran no kernel.
  EXPECT_EQ(stats.oom.partition_transfers, booked.partition_transfers);
  EXPECT_EQ(stats.oom.bytes_transferred, booked.bytes_transferred);
  EXPECT_EQ(stats.oom.scheduling_rounds, booked.scheduling_rounds);
  EXPECT_EQ(stats.oom.transfer_faults, 2u + attempts);
  EXPECT_EQ(stats.oom.transfer_retries, 2u + attempts - 1);

  EXPECT_EQ(stats.shard.shards, 2u);
  EXPECT_EQ(stats.shard.rounds, want_shard.rounds);
  EXPECT_EQ(stats.shard.forwarded_walkers, want_shard.forwarded_walkers);
  EXPECT_EQ(stats.shard.envelopes, want_shard.envelopes);
  EXPECT_EQ(stats.shard.bytes_forwarded, want_shard.bytes_forwarded);
  EXPECT_DOUBLE_EQ(stats.shard.transfer_seconds, want_shard.transfer_seconds);
  EXPECT_EQ(stats.shard.envelope_faults, 1u);
  EXPECT_EQ(stats.shard.envelope_retries, 1u);
  EXPECT_EQ(stats.shard.steps_per_shard, want_shard.steps_per_shard);
  EXPECT_EQ(stats.shard.forwarded_per_shard, want_shard.forwarded_per_shard);
  EXPECT_TRUE(stats.shard.failed.empty());
  EXPECT_GT(stats.shard.forwarded_walkers, 0u);

  std::map<std::string, std::uint64_t> want = {
      {"csaw_cache_hits_total", stats.oom.cache_hits},
      {"csaw_cache_evictions_total", stats.oom.cache_evictions},
      {"csaw_cache_prefetch_transfers_total", stats.oom.prefetch_transfers},
      {"csaw_transfer_faults_total", stats.oom.transfer_faults},
      {"csaw_transfer_retries_total", stats.oom.transfer_retries},
      {"csaw_shard_forwarded_walkers_total", stats.shard.forwarded_walkers},
      {"csaw_shard_envelopes_total", stats.shard.envelopes},
      {"csaw_shard_bytes_forwarded_total", stats.shard.bytes_forwarded},
      {"csaw_shard_envelope_faults_total", stats.shard.envelope_faults},
      {"csaw_shard_envelope_retries_total", stats.shard.envelope_retries},
  };
  for (std::size_t s = 0; s < 2; ++s) {
    const std::string labels = "{shard=\"" + std::to_string(s) + "\"}";
    want["csaw_shard_steps_total" + labels] = stats.shard.steps_per_shard[s];
    want["csaw_shard_forwarded_total" + labels] =
        stats.shard.forwarded_per_shard[s];
  }
  sim::visit_kernel_stats(want_kernels, [&](const char* field,
                                            std::uint64_t value) {
    want[std::string("csaw_kernel_") + field + "_total"] = value;
  });
  const std::map<std::string, std::string> got = exposition_samples(
      service.metrics_text(),
      {"csaw_cache_", "csaw_transfer_", "csaw_shard_", "csaw_kernel_"});
  EXPECT_EQ(got.size(), want.size());
  for (const auto& [name, value] : want) {
    ASSERT_EQ(got.count(name), 1u) << name << " missing";
    EXPECT_EQ(got.at(name), std::to_string(value)) << name;
  }
}

TEST(ServiceTelemetry, FailedPagedBatchBooksWhatItsCacheCounted) {
  // A paged batch whose copy of one partition fails on every attempt
  // after other copies of the batch landed. stats().oom gains exactly
  // what the graph's shared cache counted over the batch (the landed
  // copies and their bytes, hits, evictions, prefetches, faults and
  // retries), and the csaw_cache_* / csaw_transfer_* lines read it. A
  // Sampler paging through a cache of the same budget, run through the
  // same batches with the same faults, gives the cache's difference.
  const auto graph =
      std::make_shared<const CsrGraph>(generate_rmat(2048, 16384, 98));
  ServiceConfig config = serial_config();
  config.options.memory_budget_fraction = 1.0;
  config.options.device_params.memory_bytes = graph->bytes() / 2;
  const auto request = [&](std::uint32_t stride, std::uint32_t rng_base) {
    SampleRequest r = SampleRequest::single_seeds(
        "paged", AlgorithmId::kBiasedRandomWalk, 12,
        spread_seeds(*graph, 8, stride));
    r.rng_base = rng_base;
    return r;
  };
  const SampleRequest warm = request(131, 0);
  const SampleRequest failing = request(389, 100);

  // The service's first batch builds the cache and fixes its budget.
  auto faults = std::make_shared<FaultInjector>();
  config.options.transfer_faults = faults;
  Service service(config);
  service.add_graph("paged", graph);
  service.sample(warm);
  const std::uint64_t budget = service.graphs().at(0).cache_budget_bytes;
  ASSERT_GT(budget, 0u);

  // The mirror: the same batches on a cache this test can read. It also
  // picks the failing partition: one that batch loads after another copy
  // of the batch landed.
  struct Mirror {
    std::shared_ptr<FaultInjector> faults = std::make_shared<FaultInjector>();
    std::shared_ptr<PartitionCache> cache;
    std::optional<Sampler> sampler;
  };
  const auto mirror_of = [&] {
    Mirror m;
    SamplerOptions options = config.options;
    options.transfer_faults = m.faults;
    m.cache = std::make_shared<PartitionCache>(
        std::make_shared<const PartitionedGraph>(*graph,
                                                 options.num_partitions),
        CacheLimits{.bytes = budget});
    m.sampler.emplace(*graph, make_algorithm(AlgorithmId::kBiasedRandomWalk,
                                             12),
                      options);
    m.sampler->set_partition_cache(m.cache);
    return m;
  };
  const auto run = [](Mirror& m, const SampleRequest& r) {
    std::vector<std::uint32_t> tags(r.seeds.size());
    for (std::uint32_t i = 0; i < tags.size(); ++i) tags[i] = r.rng_base + i;
    m.sampler->run_tagged(r.seeds, tags);
  };
  std::optional<std::uint32_t> failed_partition;
  CacheMetrics before_cache, after_cache;
  for (std::uint32_t p = 0;
       p < config.options.num_partitions && !failed_partition; ++p) {
    Mirror m = mirror_of();
    run(m, warm);
    before_cache = m.cache->metrics();
    m.faults->fail_forever(p);
    try {
      run(m, failing);
      continue;  // the batch never needed partition p
    } catch (const TransferError&) {
    }
    after_cache = m.cache->metrics();
    if (after_cache.transfers > before_cache.transfers) failed_partition = p;
  }
  ASSERT_TRUE(failed_partition.has_value());

  const ServiceStats before = service.stats();
  faults->fail_forever(*failed_partition);
  try {
    service.sample(failing);
    FAIL() << "partition " << *failed_partition << " never lands";
  } catch (const RequestError& e) {
    EXPECT_EQ(e.outcome(), RequestOutcome::kTransferFailed);
  }
  const ServiceStats stats = service.stats();
  const OomMetrics& was = before.oom;
  const OomMetrics& is = stats.oom;
  EXPECT_EQ(is.partition_transfers - was.partition_transfers,
            after_cache.transfers - before_cache.transfers);
  EXPECT_EQ(is.bytes_transferred - was.bytes_transferred,
            after_cache.bytes_loaded - before_cache.bytes_loaded);
  EXPECT_EQ(is.cache_hits - was.cache_hits,
            after_cache.hits - before_cache.hits);
  EXPECT_EQ(is.cache_evictions - was.cache_evictions,
            after_cache.evictions - before_cache.evictions);
  EXPECT_EQ(is.prefetch_transfers - was.prefetch_transfers,
            after_cache.prefetch_loads - before_cache.prefetch_loads);
  EXPECT_EQ(is.transfer_faults - was.transfer_faults,
            after_cache.transfer_faults - before_cache.transfer_faults);
  EXPECT_EQ(is.transfer_retries - was.transfer_retries,
            after_cache.transfer_retries - before_cache.transfer_retries);
  // It ran no kernel the stats could book.
  EXPECT_EQ(is.scheduling_rounds, was.scheduling_rounds);
  EXPECT_EQ(is.kernel_launches, was.kernel_launches);
  EXPECT_EQ(is.transfer_overlap_seconds, was.transfer_overlap_seconds);
  EXPECT_GT(is.partition_transfers, was.partition_transfers);
  EXPECT_EQ(is.transfer_faults - was.transfer_faults,
            config.options.transfer_retry.attempts);

  const std::map<std::string, std::uint64_t> want = {
      {"csaw_cache_hits_total", is.cache_hits},
      {"csaw_cache_evictions_total", is.cache_evictions},
      {"csaw_cache_prefetch_transfers_total", is.prefetch_transfers},
      {"csaw_transfer_faults_total", is.transfer_faults},
      {"csaw_transfer_retries_total", is.transfer_retries},
  };
  const std::map<std::string, std::string> got = exposition_samples(
      service.metrics_text(), {"csaw_cache_", "csaw_transfer_"});
  EXPECT_EQ(got.size(), want.size());
  for (const auto& [name, value] : want) {
    ASSERT_EQ(got.count(name), 1u) << name << " missing";
    EXPECT_EQ(got.at(name), std::to_string(value)) << name;
  }
}

}  // namespace
}  // namespace csaw
