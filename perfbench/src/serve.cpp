// The three workloads that go through csaw::Service.
//
// gnn_serve: an open-loop, multi-tenant GNN mini-batch service. A seeded
// arrival schedule (loadgen.hpp) sends ~80% biased neighbor sampling
// (depth 2, fan-out 10) and ~20% short biased walks over two in-memory
// graphs, from a steady and a bursty tenant, below saturation.
//
// paged_serve: one closed-loop client sends walk requests to a graph whose
// CSR exceeds the device budget, so every batch pages through the
// per-graph demand cache, which stays warm across batches.
//
// sharded_serve: the same closed-loop walk shape on an in-memory weighted
// graph served with ServiceConfig::shards = 4.

#include <algorithm>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "algorithms/random_walks.hpp"
#include "common.hpp"
#include "graph/generators.hpp"
#include "loadgen.hpp"
#include "oom/partitioned_graph.hpp"
#include "service/service.hpp"

namespace csaw::perfbench {
namespace {

constexpr int kSetupReps = 5;
constexpr std::uint32_t kProbeSeeds = 256;
constexpr std::uint32_t kShards = 4;

/// Lifetime counters of a service, captured before and after the timed
/// phase so that warm-up traffic is excluded.
struct ServiceSnapshot {
  ServiceStats stats;
  sim::KernelStats kernels;
  telemetry::HistogramSnapshot queue_wait;
  telemetry::HistogramSnapshot formation;

  static ServiceSnapshot of(const Service& service) {
    return ServiceSnapshot{service.stats(),
                           exposition_kernel_stats(service.metrics_text()),
                           service.histogram("csaw_request_queue_wait_seconds"),
                           service.histogram("csaw_batch_formation_seconds")};
  }
};

double histogram_mean_ms(const telemetry::HistogramSnapshot& before,
                         const telemetry::HistogramSnapshot& after) {
  const std::uint64_t n = after.count - before.count;
  return n == 0 ? 0.0 : (after.sum - before.sum) * 1e3 / static_cast<double>(n);
}

sim::KernelStats kernel_delta(const sim::KernelStats& before,
                              const sim::KernelStats& after) {
  sim::KernelStats d;
  d.lockstep_rounds = after.lockstep_rounds - before.lockstep_rounds;
  d.global_bytes = after.global_bytes - before.global_bytes;
  d.occupied_slot_rounds =
      after.occupied_slot_rounds - before.occupied_slot_rounds;
  d.select_iterations = after.select_iterations - before.select_iterations;
  d.collision_searches = after.collision_searches - before.collision_searches;
  d.collisions = after.collisions - before.collisions;
  d.sampled_vertices = after.sampled_vertices - before.sampled_vertices;
  return d;
}

/// Service-layer metrics over the timed phase.
void record_service(Report& report, const ServiceSnapshot& before,
                    const ServiceSnapshot& after) {
  const std::uint64_t batches = after.stats.batches - before.stats.batches;
  const std::uint64_t retired = (after.stats.completed + after.stats.failed) -
                                (before.stats.completed + before.stats.failed);
  report.set("service.queue_wait_ms_mean",
             histogram_mean_ms(before.queue_wait, after.queue_wait), "ms");
  report.set("service.formation_ms_mean",
             histogram_mean_ms(before.formation, after.formation), "ms");
  report.set("service.requests_per_batch",
             batches == 0 ? 0.0
                          : static_cast<double>(retired) /
                                static_cast<double>(batches),
             "req/batch");
  report.set("service.peak_queue_depth",
             static_cast<double>(after.stats.peak_queue_depth), "count");
  report.set("service.quota_deferrals",
             static_cast<double>(after.stats.quota_deferrals -
                                 before.stats.quota_deferrals),
             "count");
}

std::vector<std::uint32_t> request_tags(const SampleRequest& request) {
  std::vector<std::uint32_t> tags(request.seeds.size());
  for (std::uint32_t i = 0; i < tags.size(); ++i) tags[i] = request.rng_base + i;
  return tags;
}

/// Reruns `request` solo through an in-memory Sampler with its pinned
/// Philox base and compares the bytes with what the service returned.
bool solo_matches(const CsrGraph& graph, const SampleRequest& request,
                  const SamplerOptions& options, const SampleStore& served) {
  SamplerOptions solo_options = options;
  solo_options.mode = ExecutionMode::kInMemory;
  Sampler solo(graph,
               make_algorithm(request.algorithm, request.depth_or_length,
                              request.neighbor_size),
               solo_options);
  const RunResult r = solo.run_tagged(request.seeds, request_tags(request));
  return same_samples(r.samples, served);
}

// ---------------------------------------------------------------------
// Closed-loop walk serving (paged_serve, sharded_serve).

/// One pool thread: a request runs on its batch runner alone, so its host
/// time is one thread's work plus the client -> dispatcher -> runner ->
/// client hand-offs, with no per-round wake-ups of pool workers (the shard
/// router would wake them once per superstep). Each wake-up costs tens of
/// microseconds on a VM, and more when the host is busy.
constexpr std::uint32_t kClosedPoolWidth = 1;

/// Requests per pass and walks per request. Simulated time and the counts
/// come from the first pass. A request's simulated makespan is
/// heavy-tailed, so sim_seps needs many requests per pass: on paged_serve
/// 64 requests of 32 walks spread 9% across seeds, 512 about 3%; on
/// sharded_serve 128 requests of 256 walks spread up to 10%. A
/// sharded request runs one superstep per hop of its slowest walk, so
/// its fixed per-round cost is spread over 256 walks (at 32 walks and
/// two pool threads sharded_serve spread 0.31 in host_seps over ten
/// seeds, at 256 walks 0.10).
struct WalkShape {
  std::uint32_t requests;
  std::uint32_t walks;
};
constexpr WalkShape kPagedShape{512, 32};
constexpr WalkShape kShardedShape{256, 256};
/// The traced pass reruns the requests that hold the first this many
/// walks of the pass, which bounds the trace.
constexpr std::uint32_t kClosedTracedWalks = 2048;
constexpr std::uint32_t kClosedWalkLength = 16;
constexpr std::uint32_t kClosedWarmupRequests = 4;
constexpr std::uint32_t kClosedCheckRequests = 4;
/// Latency limit a request must meet to count toward goodput.
constexpr double kClosedLimitMs = 100.0;

SampleRequest walk_request(const CsrGraph& graph, std::uint32_t walks,
                           std::uint64_t seed, std::uint32_t rng_base) {
  SampleRequest request = SampleRequest::single_seeds(
      "g", AlgorithmId::kBiasedRandomWalk, kClosedWalkLength,
      random_vertices(graph, walks, seed));
  request.tenant = "client";
  request.rng_base = rng_base;
  return request;
}

std::unique_ptr<Service> start_service(
    std::shared_ptr<const CsrGraph> graph, const ServiceConfig& config,
    std::uint32_t walks, std::uint64_t seed,
    std::shared_ptr<telemetry::TraceRecorder> trace) {
  ServiceConfig traced = config;
  traced.trace = std::move(trace);
  auto service = std::make_unique<Service>(traced);
  service->add_graph("g", graph);
  // Warm-up: builds the shared partitioning or shard map and warms the
  // cache, on Philox ranges far from the timed requests'.
  for (std::uint32_t i = 0; i < kClosedWarmupRequests; ++i) {
    service->sample(walk_request(*graph, walks, derive_seed(seed, 5000 + i),
                                 (1u << 30) + i * walks));
  }
  return service;
}

struct ClosedLoopPass {
  std::vector<RunResult> results;  ///< one per request of the first pass
  /// Per sent request, in send order (request i of the first pass is
  /// entry i): served ok with the first pass's bytes, and its latency.
  std::vector<bool> ok;
  std::vector<double> latency_ms;
  std::vector<double> seps;  ///< per-request edges / latency
  std::vector<double> submit_us;
  std::uint64_t edges = 0;   ///< over every timed request
};

/// Sends `pass` closed-loop, over and over until `seconds` elapse (always
/// finishing the first pass; one pass only when `seconds` is 0). Later
/// passes must repeat the first pass's bytes.
ClosedLoopPass drive_closed_loop(Service& service,
                                 const std::vector<SampleRequest>& pass,
                                 double seconds, Report& report,
                                 telemetry::TraceRecorder* bench_trace) {
  ClosedLoopPass out;
  out.results.resize(pass.size());
  const auto t_start = Clock::now();
  for (std::uint32_t p = 0;; ++p) {
    bool done = false;
    for (std::size_t i = 0; i < pass.size() && !done; ++i) {
      const auto t0 = Clock::now();
      std::uint64_t span = 0;
      if (bench_trace != nullptr) span = bench_trace->begin_span("bench.submit");
      Submission submission = service.submit(pass[i]);
      if (bench_trace != nullptr) bench_trace->end_span(span, "bench.submit");
      out.submit_us.push_back(seconds_since(t0) * 1e6);
      bool ok = submission.accepted();
      report.check(ok, "request " + std::to_string(i) + " refused");
      RunResult result;
      if (ok) {
        try {
          result = submission.result.get();
        } catch (const std::exception& e) {
          ok = false;
          report.check(false, std::string("request failed: ") + e.what());
        }
      }
      const double dt = seconds_since(t0);
      out.latency_ms.push_back(dt * 1e3);
      out.seps.push_back(static_cast<double>(result.sampled_edges()) / dt);
      out.edges += result.sampled_edges();
      if (ok && p == 0) {
        out.results[i] = std::move(result);
      } else if (ok) {
        ok = same_samples(result.samples, out.results[i].samples);
        report.check(ok, "pass " + std::to_string(p) + " request " +
                             std::to_string(i) + " repeated different bytes");
      }
      out.ok.push_back(ok);
      done = p > 0 && seconds_since(t_start) >= seconds;
    }
    if (done || seconds_since(t_start) >= seconds) break;
  }
  return out;
}

/// Counts every request of `pass` once and returns the latencies with
/// kMissedMs for each request that is not ok.
std::vector<double> count_requests(Report& report, const ClosedLoopPass& pass) {
  std::vector<double> latency_ms = pass.latency_ms;
  for (std::size_t k = 0; k < pass.ok.size(); ++k) {
    report.attempt(pass.ok[k]);
    if (!pass.ok[k]) latency_ms[k] = kMissedMs;
  }
  return latency_ms;
}

/// Runs paged_serve or sharded_serve. The graph is fixed: the run seed
/// draws only the requests, as a graph per seed would add graph-to-graph
/// variation to every metric.
void run_closed_loop(const RunArgs& args, Report& report,
                     std::shared_ptr<const CsrGraph> (*make_graph)(),
                     ServiceConfig (*make_config)(const CsrGraph&),
                     WalkShape shape) {
  declare_layer_metrics(report);
  record_env(report, args, kClosedPoolWidth);
  report.env("job", "requests/pass=" + std::to_string(shape.requests) +
                        " instances=" + std::to_string(shape.walks) +
                        " length=" + std::to_string(kClosedWalkLength) +
                        " client=closed-loop x1");

  std::shared_ptr<const CsrGraph> graph;
  ServiceConfig config;
  std::unique_ptr<Service> service;
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    const auto t0 = Clock::now();
    graph = make_graph();
    generate_s.push_back(seconds_since(t0));
    config = make_config(*graph);
    service = start_service(graph, config, shape.walks, args.seed, nullptr);
    setup_s.push_back(seconds_since(t0));
  }
  record_graph(report, "g", *graph);
  report.set("graph.generate_s", median(generate_s), "s");

  std::vector<SampleRequest> pass;
  for (std::uint32_t i = 0; i < shape.requests; ++i) {
    pass.push_back(walk_request(*graph, shape.walks,
                                derive_seed(args.seed, 1000 + i),
                                i * shape.walks));
  }

  // --- Timed phase.
  const ServiceSnapshot before = ServiceSnapshot::of(*service);
  ClosedLoopPass timed =
      drive_closed_loop(*service, pass, args.seconds, report, nullptr);
  const ServiceSnapshot after = ServiceSnapshot::of(*service);

  // --- Output checks: the service booked exactly the edges it returned;
  // seeded requests match an unsharded in-memory Sampler run; every
  // request really took the paged (or sharded) path. A request that fails
  // a check counts as failed.
  report.check(after.stats.sampled_edges - before.stats.sampled_edges ==
                   timed.edges,
               "ServiceStats::sampled_edges differs from the sum over requests");
  for (std::uint32_t k = 0; k < kClosedCheckRequests; ++k) {
    const auto i = static_cast<std::size_t>(derive_seed(args.seed, 20 + k) %
                                            pass.size());
    if (!timed.ok[i]) continue;  // already counted failed
    timed.ok[i] = solo_matches(*graph, pass[i], config.options,
                               timed.results[i].samples);
    report.check(timed.ok[i], "request " + std::to_string(i) +
                                  " differs from its in-memory solo rerun");
  }
  for (std::size_t i = 0; i < pass.size(); ++i) {
    const RunResult& r = timed.results[i];
    if (timed.ok[i] && (config.shards > 1 ? !r.shard : !r.oom)) {
      timed.ok[i] = false;
      report.check(false, "request " + std::to_string(i) +
                              " bypassed the layer this workload measures");
    }
  }

  std::uint64_t edges = 0;
  double sim_seconds = 0.0;
  sim::KernelStats stats;
  OomMetrics oom;
  ShardMetrics shard;
  for (const RunResult& r : timed.results) {
    edges += r.sampled_edges();
    sim_seconds += r.sim_seconds;
    stats.merge(r.stats);
    if (r.oom) oom.accumulate(*r.oom);
    if (r.shard) shard.accumulate(*r.shard);
  }
  report.set("host_seps", windowed_quantile(timed.seps, 0.5, kSlowRate),
             "edges/s");
  report.set("sim_seps", sampled_edges_per_second(edges, sim_seconds),
             "edges/s");
  const std::vector<double> latency_ms = count_requests(report, timed);
  record_latency(report, latency_ms, kSlowTime);
  report.set("goodput_rps", closed_loop_goodput(latency_ms, kClosedLimitMs),
             "req/s");
  record_kernel_stats(report, stats, edges);
  record_service(report, before, after);
  report.set("service.submit_us_p50", median(timed.submit_us), "us");
  if (config.shards > 1) {
    record_shard(report, shard, edges, sim_seconds);
  } else {
    record_oom(report, oom, timed.results.size(), edges, sim_seconds);
  }

  if (args.trace) {
    const AlgorithmSetup setup = biased_random_walk(kClosedWalkLength);
    std::vector<VertexId> probe_seeds;
    for (const SampleRequest& r : pass) {
      for (const auto& list : r.seeds) {
        if (probe_seeds.size() < kProbeSeeds) probe_seeds.push_back(list[0]);
      }
    }
    probe_core(report, *graph, setup, config.options, probe_seeds);
    probe_select(report, *graph, setup, timed.results[0].samples);
    probe_graph_builds(report, *graph, config.options.num_partitions, kShards);

    // Traced pass: a fresh service with a recorder, the same warm-up and
    // the first requests of the pass. Their simulated time must equal the
    // untraced first pass's.
    service.reset();
    auto trace = std::make_shared<telemetry::TraceRecorder>();
    service = start_service(graph, config, shape.walks, args.seed, trace);
    const std::vector<SampleRequest> prefix(
        pass.begin(), pass.begin() + kClosedTracedWalks / shape.walks);
    ClosedLoopPass traced =
        drive_closed_loop(*service, prefix, 0.0, report, trace.get());
    double traced_sim = 0.0;
    double untraced_sim = 0.0;
    for (std::size_t i = 0; i < prefix.size(); ++i) {
      traced_sim += traced.results[i].sim_seconds;
      untraced_sim += timed.results[i].sim_seconds;
      if (!traced.ok[i]) continue;
      traced.ok[i] = same_samples(traced.results[i].samples,
                                  timed.results[i].samples);
      report.check(traced.ok[i],
                   "traced request " + std::to_string(i) + " differs");
    }
    count_requests(report, traced);
    report.check(traced_sim == untraced_sim,
                 "traced pass changed simulated time");
    service->shutdown();
    report.set("telemetry.trace_overhead_frac",
               median(timed.seps) / median(traced.seps) - 1.0, "ratio");
    export_trace(report, args, *trace);
  }
  report.set("setup_s", median(setup_s), "s");
}

// ---------------------------------------------------------------------
// gnn_serve.

constexpr std::uint32_t kGnnPoolWidth = 2;
constexpr std::uint32_t kGnnFanout = 10;
constexpr std::uint32_t kGnnDepth = 2;
constexpr std::uint32_t kGnnWalkLength = 10;
/// Offered rate: about half of the saturation rate `--workload
/// gnn_saturation` measures (1010-1160 req/s on a 4-core x86 host), so
/// that bursts stay near two-thirds of it. At two-thirds on average the
/// bursts reach ~85% of saturation and p99 latency spread ±20% between
/// runs of one seed (perfbench/README.md).
constexpr double kGnnOfferedRps = 500.0;
/// Latency limit a request must meet to count toward goodput.
constexpr double kGnnLimitMs = 50.0;
constexpr std::uint32_t kGnnCheckRequests = 24;
/// The traced replay covers this prefix of the schedule, which bounds the
/// trace to ~10^5 events.
constexpr double kGnnTracedSeconds = 2.0;

std::shared_ptr<const CsrGraph> gnn_graph(std::uint32_t g) {
  // Two differently shaped power-law graphs, a larger sparse one and a
  // smaller denser one; fixed, like every workload's graphs.
  return g == 0 ? std::make_shared<const CsrGraph>(
                      generate_rmat(32768, 196608, 0x6E1))
                : std::make_shared<const CsrGraph>(
                      generate_rmat(16384, 163840, 0x6E2));
}

ServiceConfig gnn_config() {
  ServiceConfig config;
  config.options.num_threads = kGnnPoolWidth;
  config.max_concurrent_batches = 2;
  config.max_queue_depth = 1u << 16;  // open loop: never refuse for depth
  config.max_request_instances = 32;
  config.max_batch_instances = 256;
  config.tenant_quota = 192;
  return config;
}

SampleRequest gnn_request(const Arrival& a) {
  SampleRequest request;
  request.graph = a.graph == 0 ? "g0" : "g1";
  request.tenant = a.tenant == 0 ? "steady" : "bursty";
  request.algorithm = a.walk ? AlgorithmId::kBiasedRandomWalk
                             : AlgorithmId::kBiasedNeighborSampling;
  request.depth_or_length = a.walk ? kGnnWalkLength : kGnnDepth;
  request.neighbor_size = a.walk ? 1 : kGnnFanout;
  request.seeds = expand_single_seeds(a.seeds);
  request.rng_base = a.rng_base;
  return request;
}

struct Gnn {
  std::shared_ptr<const CsrGraph> graphs[2];
  std::unique_ptr<Service> service;
};

Gnn start_gnn(std::uint64_t seed,
              std::shared_ptr<telemetry::TraceRecorder> trace,
              std::vector<double>* generate_s) {
  Gnn gnn;
  const auto t0 = Clock::now();
  gnn.graphs[0] = gnn_graph(0);
  gnn.graphs[1] = gnn_graph(1);
  if (generate_s != nullptr) generate_s->push_back(seconds_since(t0));
  ServiceConfig config = gnn_config();
  config.trace = std::move(trace);
  gnn.service = std::make_unique<Service>(config);
  gnn.service->add_graph("g0", gnn.graphs[0]);
  gnn.service->add_graph("g1", gnn.graphs[1]);
  // Warm-up: one request of each shape on each graph.
  for (std::uint32_t g = 0; g < 2; ++g) {
    for (const bool walk : {false, true}) {
      Arrival a;
      a.graph = g;
      a.walk = walk;
      a.rng_base = (1u << 30) + (2 * g + (walk ? 1 : 0)) * 64;
      a.seeds = random_vertices(*gnn.graphs[g], 16,
                                derive_seed(seed, 6000 + 2 * g + walk));
      gnn.service->sample(gnn_request(a));
    }
  }
  return gnn;
}

/// gnn_serve's simulated SEPS. In the open-loop run, batch composition
/// (and so simulated time) depends on arrival timing. Here every scheduled
/// request is queued on a paused service that runs one batch at a time,
/// then released, so the batches and the simulated time are the same on
/// every run of a seed. At 1000 requests sim_seps spread 9% across seeds;
/// the ~5000 of a 10 s schedule bring that to about 2%.
double replay_sim_seps(const Gnn& gnn, const std::vector<Arrival>& arrivals,
                       Report& report) {
  ServiceConfig config = gnn_config();
  config.max_concurrent_batches = 1;
  config.start_paused = true;
  Service service(config);
  service.add_graph("g0", gnn.graphs[0]);
  service.add_graph("g1", gnn.graphs[1]);
  std::vector<std::future<RunResult>> futures;
  for (const Arrival& a : arrivals) {
    Submission submission = service.submit(gnn_request(a));
    report.check(submission.accepted(), "paused replay refused a request");
    if (submission.accepted()) futures.push_back(std::move(submission.result));
  }
  service.resume();
  std::uint64_t edges = 0;
  for (auto& f : futures) edges += f.get().sampled_edges();
  service.shutdown();
  const ServiceStats stats = service.stats();
  report.check(stats.sampled_edges == edges,
               "paused replay: ServiceStats::sampled_edges differs from the "
               "sum over requests");
  return sampled_edges_per_second(stats.sampled_edges, stats.sim_seconds);
}

ScheduleSpec gnn_schedule_spec(const Gnn& gnn, double seconds) {
  ScheduleSpec spec;
  spec.duration_s = seconds;
  spec.target_rps = kGnnOfferedRps;
  spec.graph_vertices[0] = gnn.graphs[0]->num_vertices();
  spec.graph_vertices[1] = gnn.graphs[1]->num_vertices();
  return spec;
}

/// Outcome of one scheduled request.
struct Served {
  double latency_ms = 0.0;  ///< from the scheduled send time to ready
  bool ok = false;
  std::uint64_t edges = 0;
  SampleStore samples;  ///< kept only for requests the checks rerun
};

struct OpenLoopRun {
  std::vector<Served> served;
  std::vector<double> lag_ms;
  std::vector<double> submit_us;
  double wall_s = 0.0;  ///< schedule start until the last request is ready
};

/// Replays `arrivals` open-loop: the calling thread sends each request at
/// its scheduled time; a collector thread polls the futures and stamps
/// each one's ready time.
OpenLoopRun drive_open_loop(Service& service,
                            const std::vector<Arrival>& arrivals,
                            const std::vector<bool>& keep,
                            telemetry::TraceRecorder* bench_trace) {
  OpenLoopRun run;
  run.served.resize(arrivals.size());
  std::vector<SampleRequest> requests;
  requests.reserve(arrivals.size());
  for (const Arrival& a : arrivals) requests.push_back(gnn_request(a));

  struct Inflight {
    std::size_t index = 0;
    std::future<RunResult> future;
  };
  std::mutex mu;
  std::vector<Inflight> incoming;
  bool producer_done = false;
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(arrivals[i].at_s));
  };

  std::thread collector([&] {
    std::vector<Inflight> local;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu);
        for (Inflight& f : incoming) local.push_back(std::move(f));
        incoming.clear();
        if (producer_done && local.empty()) break;
      }
      bool any = false;
      for (auto it = local.begin(); it != local.end();) {
        if (it->future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++it;
          continue;
        }
        const auto ready = Clock::now();
        Served& s = run.served[it->index];
        s.latency_ms =
            std::chrono::duration<double, std::milli>(ready - due(it->index))
                .count();
        try {
          RunResult r = it->future.get();
          s.ok = true;
          s.edges = r.sampled_edges();
          if (keep[it->index]) s.samples = std::move(r.samples);
        } catch (const std::exception&) {
          s.ok = false;
        }
        it = local.erase(it);
        any = true;
      }
      if (!any) std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  const auto finish = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      producer_done = true;
    }
    collector.join();
  };
  try {
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      std::this_thread::sleep_until(due(i));
      const auto sent = Clock::now();
      run.lag_ms.push_back(
          std::chrono::duration<double, std::milli>(sent - due(i)).count());
      std::uint64_t span = 0;
      if (bench_trace != nullptr) {
        span = bench_trace->begin_span("bench.submit");
      }
      Submission submission = service.submit(std::move(requests[i]));
      if (bench_trace != nullptr) bench_trace->end_span(span, "bench.submit");
      run.submit_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - sent)
              .count());
      if (submission.accepted()) {
        std::lock_guard<std::mutex> lock(mu);
        incoming.push_back(Inflight{i, std::move(submission.result)});
      } else {
        run.served[i].latency_ms = kMissedMs;
      }
    }
  } catch (...) {
    finish();  // the collector reads this frame's state
    throw;
  }
  finish();
  run.wall_s = seconds_since(start);
  return run;
}

std::shared_ptr<const CsrGraph> paged_graph() {
  // Milder skew than the default R-MAT, so that the vertex-range
  // partitions are closer in size and the budget below is not spent on
  // one hub partition.
  return std::make_shared<const CsrGraph>(
      generate_rmat(32768, 262144, 0x9A6, {0.45, 0.22, 0.22, 0.11}));
}

ServiceConfig paged_config(const CsrGraph& graph) {
  ServiceConfig config;
  config.options.num_threads = kClosedPoolWidth;
  config.options.num_partitions = 8;
  // The stand-in is treated as exceeding device memory, as the paper does
  // for its bench-scale FR/TW stand-ins. The device budget, 0.9 x 4 of the
  // largest partition, gives the cache 3 slots for the 8 partitions, so it
  // keeps part of the graph warm.
  config.options.memory_assumption = MemoryAssumption::kExceeds;
  const PartitionedGraph parts(graph, config.options.num_partitions);
  config.options.device_params.memory_bytes = 4 * parts.max_partition_bytes();
  // A PCIe-class host link, so partition transfers weigh in simulated time
  // as they do for graphs at paper scale.
  config.options.device_params.link_gbytes_per_sec = 12.0;
  return config;
}

std::shared_ptr<const CsrGraph> sharded_graph() {
  return std::make_shared<const CsrGraph>(
      generate_rmat(32768, 262144, 0x5A4D, {}, /*weighted=*/true));
}

ServiceConfig sharded_config(const CsrGraph&) {
  ServiceConfig config;
  config.options.num_threads = kClosedPoolWidth;
  config.shards = kShards;
  return config;
}

}  // namespace

void run_paged_serve(const RunArgs& args, Report& report) {
  run_closed_loop(args, report, paged_graph, paged_config, kPagedShape);
}

void run_sharded_serve(const RunArgs& args, Report& report) {
  run_closed_loop(args, report, sharded_graph, sharded_config, kShardedShape);
}

void run_gnn_serve(const RunArgs& args, Report& report) {
  declare_layer_metrics(report);
  record_env(report, args, kGnnPoolWidth);

  Gnn gnn;
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    gnn.service.reset();
    const auto t0 = Clock::now();
    gnn = start_gnn(args.seed, nullptr, &generate_s);
    setup_s.push_back(seconds_since(t0));
  }
  record_graph(report, "g0", *gnn.graphs[0]);
  record_graph(report, "g1", *gnn.graphs[1]);
  report.set("graph.generate_s", median(generate_s), "s");
  const ScheduleSpec spec = gnn_schedule_spec(gnn, args.seconds);
  const std::vector<Arrival> arrivals =
      make_schedule(spec, derive_seed(args.seed, 3));
  report.env("offered_rps", std::to_string(spec.target_rps));
  report.env("latency_limit_ms", std::to_string(kGnnLimitMs));

  std::vector<bool> keep(arrivals.size(), false);
  std::vector<std::size_t> checked;
  for (std::uint32_t k = 0; k < kGnnCheckRequests && !arrivals.empty(); ++k) {
    const auto i = static_cast<std::size_t>(derive_seed(args.seed, 30 + k) %
                                            arrivals.size());
    keep[i] = true;
    checked.push_back(i);
  }

  // --- Timed phase: one replay of the schedule.
  const ServiceSnapshot before = ServiceSnapshot::of(*gnn.service);
  const OpenLoopRun run = drive_open_loop(*gnn.service, arrivals, keep, nullptr);
  gnn.service->drain();
  const ServiceSnapshot after = ServiceSnapshot::of(*gnn.service);

  // --- Output checks. A checked request with wrong bytes counts as failed.
  std::vector<bool> ok(run.served.size());
  std::uint64_t edges = 0;
  std::size_t not_served = 0;
  for (std::size_t i = 0; i < run.served.size(); ++i) {
    ok[i] = run.served[i].ok;
    edges += run.served[i].edges;
    if (!ok[i]) ++not_served;
  }
  report.check(not_served == 0, std::to_string(not_served) +
                                    " requests were refused or failed");
  report.check(after.stats.sampled_edges - before.stats.sampled_edges == edges,
               "ServiceStats::sampled_edges differs from the sum over requests");
  const SamplerOptions options = gnn_config().options;
  for (const std::size_t i : checked) {
    if (!ok[i]) continue;  // already counted failed
    const Arrival& a = arrivals[i];
    ok[i] = solo_matches(*gnn.graphs[a.graph], gnn_request(a), options,
                         run.served[i].samples);
    report.check(ok[i], "request " + std::to_string(i) +
                            " differs from its solo rerun");
  }

  // A refused, failed or wrong request misses every latency limit.
  std::vector<double> latency_ms;
  for (std::size_t i = 0; i < run.served.size(); ++i) {
    report.attempt(ok[i]);
    latency_ms.push_back(ok[i] ? run.served[i].latency_ms : kMissedMs);
  }
  report.set("host_seps", static_cast<double>(edges) / run.wall_s, "edges/s");
  report.set("sim_seps", replay_sim_seps(gnn, arrivals, report), "edges/s");
  record_latency(report, latency_ms, kFastTime);
  report.set("goodput_rps",
             static_cast<double>(std::count_if(
                 latency_ms.begin(), latency_ms.end(),
                 [](double ms) { return ms <= kGnnLimitMs; })) /
                 run.wall_s,
             "req/s");
  record_service(report, before, after);
  record_kernel_stats(report, kernel_delta(before.kernels, after.kernels),
                      edges);
  report.set("service.submit_us_p50", median(run.submit_us), "us");
  report.set("loadgen.lag_ms_p99", quantile_or_zero(run.lag_ms, 0.99), "ms");
  report.set("loadgen.offered_rps",
             static_cast<double>(arrivals.size()) / spec.duration_s, "req/s");

  if (args.trace) {
    // Layer probes on the neighbor-sampling shape of graph 0.
    const AlgorithmSetup setup =
        make_algorithm(AlgorithmId::kBiasedNeighborSampling, kGnnDepth,
                       kGnnFanout);
    const std::vector<VertexId> probe_seeds = random_vertices(
        *gnn.graphs[0], kProbeSeeds, derive_seed(args.seed, 7));
    probe_core(report, *gnn.graphs[0], setup, options, probe_seeds);
    Sampler visited(*gnn.graphs[0], setup, options);
    probe_select(report, *gnn.graphs[0], setup,
                 visited.run_single_seed(probe_seeds).samples);
    probe_graph_builds(report, *gnn.graphs[0], options.num_partitions,
                       kShards);

    // Traced replay of the schedule's first kGnnTracedSeconds on a fresh
    // service; its latency is compared with the untraced run's over the
    // same requests.
    gnn.service.reset();
    auto trace = std::make_shared<telemetry::TraceRecorder>();
    Gnn traced_gnn = start_gnn(args.seed, trace, nullptr);
    std::vector<Arrival> prefix;
    for (const Arrival& a : arrivals) {
      if (a.at_s < kGnnTracedSeconds) prefix.push_back(a);
    }
    const OpenLoopRun traced =
        drive_open_loop(*traced_gnn.service, prefix, keep, trace.get());
    traced_gnn.service->shutdown();
    std::vector<double> traced_latency;
    std::vector<double> untraced_latency;
    for (std::size_t i = 0; i < traced.served.size(); ++i) {
      const Served& s = traced.served[i];
      bool traced_ok = s.ok;
      if (traced_ok && keep[i]) {
        traced_ok = same_samples(s.samples, run.served[i].samples);
        report.check(traced_ok,
                     "traced request " + std::to_string(i) + " differs");
      }
      report.attempt(traced_ok);
      traced_latency.push_back(traced_ok ? s.latency_ms : kMissedMs);
      untraced_latency.push_back(latency_ms[i]);
    }
    report.set("telemetry.trace_overhead_frac",
               quantile_with_misses(traced_latency, 0.5) /
                       quantile_with_misses(untraced_latency, 0.5) -
                   1.0,
               "ratio");
    export_trace(report, args, *trace);
  }
  report.set("setup_s", median(setup_s), "s");
}

void run_gnn_saturation(const RunArgs& args, Report& report) {
  // Closed loop with one outstanding request per batch runner: the
  // service is never idle, and no backlog builds for batches to coalesce,
  // so completions per second is its saturation rate for the gnn_serve
  // mix as an open loop below saturation sees it.
  constexpr std::size_t kOutstanding = 2;
  Gnn gnn = start_gnn(args.seed, nullptr, nullptr);
  const ScheduleSpec spec = gnn_schedule_spec(gnn, args.seconds);
  const std::vector<Arrival> arrivals =
      make_schedule(spec, derive_seed(args.seed, 3));
  std::deque<std::future<RunResult>> inflight;
  std::size_t completed = 0;
  const auto t0 = Clock::now();
  for (const Arrival& a : arrivals) {
    if (inflight.size() == kOutstanding) {
      inflight.front().get();
      inflight.pop_front();
      ++completed;
    }
    Submission submission = gnn.service->submit(gnn_request(a));
    report.attempt(submission.accepted());
    if (submission.accepted()) inflight.push_back(std::move(submission.result));
  }
  for (auto& f : inflight) {
    f.get();
    ++completed;
  }
  const double wall = seconds_since(t0);
  report.set("saturation_rps", static_cast<double>(completed) / wall, "req/s");
  report.set("offered_rps_at_two_thirds",
             2.0 / 3.0 * static_cast<double>(completed) / wall, "req/s");
}

}  // namespace csaw::perfbench
