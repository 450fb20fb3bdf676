#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/engine.hpp"
#include "gpusim/device.hpp"
#include "oom/partitioned_graph.hpp"
#include "select/its.hpp"
#include "shard/partition_map.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace csaw::perfbench {

double quantile_or_zero(std::vector<double> xs, double p) {
  return xs.empty() ? 0.0 : quantile(std::move(xs), p);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<VertexId> random_vertices(const CsrGraph& graph,
                                      std::uint32_t count,
                                      std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<VertexId> out(count);
  for (VertexId& v : out) {
    v = static_cast<VertexId>(rng.bounded(graph.num_vertices()));
  }
  return out;
}

bool same_samples(const SampleStore& a, const SampleStore& b) {
  if (a.num_instances() != b.num_instances()) return false;
  for (std::uint32_t i = 0; i < a.num_instances(); ++i) {
    if (a.edges(i) != b.edges(i)) return false;
  }
  return true;
}

void declare_layer_metrics(Report& report) {
  static const char* const kMetrics[][2] = {
      {"failed_frac", "ratio"},
      {"service.submit_us_p50", "us"},
      {"service.queue_wait_ms_mean", "ms"},
      {"service.formation_ms_mean", "ms"},
      {"service.requests_per_batch", "req/batch"},
      {"service.peak_queue_depth", "count"},
      {"service.quota_deferrals", "count"},
      {"core.engine_ms_per_kedge", "ms/kedge"},
      {"core.facade_overhead_frac", "ratio"},
      {"select.ns_per_call", "ns"},
      {"select.iterations_per_vertex", "ratio"},
      {"select.collision_searches_per_kedge", "1/kedge"},
      {"select.collisions_per_kedge", "1/kedge"},
      {"gpusim.lockstep_rounds_per_edge", "1/edge"},
      {"gpusim.global_bytes_per_edge", "B/edge"},
      {"gpusim.occupied_waste_frac", "ratio"},
      {"gpusim.kernel_launches", "count"},
      {"gpusim.sim_us.sample_pipeline", "us"},
      {"gpusim.sim_us.neighbor_select", "us"},
      {"oom.transfers_per_batch", "1/batch"},
      {"oom.bytes_per_edge", "B/edge"},
      {"oom.cache_hit_ratio", "ratio"},
      {"oom.evictions", "count"},
      {"oom.prefetch_transfers", "count"},
      {"oom.transfer_overlap_frac", "ratio"},
      {"oom.kernel_imbalance", "ratio"},
      {"shard.forwarded_per_kedge", "1/kedge"},
      {"shard.envelopes", "count"},
      {"shard.bytes_forwarded", "B"},
      {"shard.rounds", "count"},
      {"shard.transfer_frac", "ratio"},
      {"shard.step_imbalance", "ratio"},
      {"graph.generate_s", "s"},
      {"graph.csr_mb", "MiB"},
      {"graph.partition_build_s", "s"},
      {"graph.shard_map_build_s", "s"},
      {"telemetry.trace_overhead_frac", "ratio"},
      {"telemetry.trace_events", "count"},
      {"loadgen.lag_ms_p99", "ms"},
      {"loadgen.offered_rps", "req/s"},
  };
  for (const auto& [name, unit] : kMetrics) report.set(name, 0.0, unit);
}

void record_env(Report& report, const RunArgs& args,
                std::uint32_t pool_width) {
  report.env("workload", args.workload);
  report.env("seed", args.seed);
  report.env("seconds", std::to_string(args.seconds));
  report.env("nproc", static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  report.env("pool_width", pool_width);
  report.env("build_type", PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
  report.env("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  report.env("compiler", std::string("gcc ") + __VERSION__);
#else
  report.env("compiler", "unknown");
#endif
}

void record_graph(Report& report, const std::string& name,
                  const CsrGraph& graph) {
  std::ostringstream shape;
  shape << "V=" << graph.num_vertices() << " E=" << graph.num_edges()
        << " bytes=" << graph.bytes();
  report.env("graph." + name, shape.str());
}

void record_kernel_stats(Report& report, const sim::KernelStats& stats,
                         std::uint64_t edges) {
  const double e = static_cast<double>(std::max<std::uint64_t>(edges, 1));
  const double kedges = e / 1000.0;
  report.set("gpusim.lockstep_rounds_per_edge",
             static_cast<double>(stats.lockstep_rounds) / e, "1/edge");
  report.set("gpusim.global_bytes_per_edge",
             static_cast<double>(stats.global_bytes) / e, "B/edge");
  // occupied_slot_rounds is 0 where a path does not measure it (the shard
  // router's steps); report no waste rather than -1 there.
  report.set("gpusim.occupied_waste_frac",
             stats.lockstep_rounds == 0 || stats.occupied_slot_rounds == 0
                 ? 0.0
                 : static_cast<double>(stats.occupied_slot_rounds) /
                           static_cast<double>(stats.lockstep_rounds) -
                       1.0,
             "ratio");
  report.set("select.iterations_per_vertex",
             stats.sampled_vertices == 0
                 ? 0.0
                 : static_cast<double>(stats.select_iterations) /
                       static_cast<double>(stats.sampled_vertices),
             "ratio");
  report.set("select.collision_searches_per_kedge",
             static_cast<double>(stats.collision_searches) / kedges,
             "1/kedge");
  report.set("select.collisions_per_kedge",
             static_cast<double>(stats.collisions) / kedges, "1/kedge");
}

void record_oom(Report& report, const OomMetrics& oom, std::uint64_t batches,
                std::uint64_t edges, double sim_seconds) {
  const std::size_t demand = oom.partition_transfers - oom.prefetch_transfers;
  report.set("oom.transfers_per_batch",
             static_cast<double>(oom.partition_transfers) /
                 static_cast<double>(std::max<std::uint64_t>(batches, 1)),
             "1/batch");
  report.set("oom.bytes_per_edge",
             static_cast<double>(oom.bytes_transferred) /
                 static_cast<double>(std::max<std::uint64_t>(edges, 1)),
             "B/edge");
  report.set("oom.cache_hit_ratio",
             oom.cache_hits + demand == 0
                 ? 0.0
                 : static_cast<double>(oom.cache_hits) /
                       static_cast<double>(oom.cache_hits + demand),
             "ratio");
  report.set("oom.evictions", static_cast<double>(oom.cache_evictions),
             "count");
  report.set("oom.prefetch_transfers",
             static_cast<double>(oom.prefetch_transfers), "count");
  report.set("oom.transfer_overlap_frac",
             sim_seconds > 0.0 ? oom.transfer_overlap_seconds / sim_seconds
                               : 0.0,
             "ratio");
  report.set("oom.kernel_imbalance", oom.kernel_imbalance, "ratio");
}

void record_shard(Report& report, const ShardMetrics& shard,
                  std::uint64_t edges, double sim_seconds) {
  const double kedges =
      static_cast<double>(std::max<std::uint64_t>(edges, 1)) / 1000.0;
  report.set("shard.forwarded_per_kedge",
             static_cast<double>(shard.forwarded_walkers) / kedges, "1/kedge");
  report.set("shard.envelopes", static_cast<double>(shard.envelopes), "count");
  report.set("shard.bytes_forwarded",
             static_cast<double>(shard.bytes_forwarded), "B");
  report.set("shard.rounds", static_cast<double>(shard.rounds), "count");
  report.set("shard.transfer_frac",
             sim_seconds > 0.0 ? shard.transfer_seconds / sim_seconds : 0.0,
             "ratio");
  double max_steps = 0.0;
  double sum_steps = 0.0;
  for (const std::uint64_t steps : shard.steps_per_shard) {
    max_steps = std::max(max_steps, static_cast<double>(steps));
    sum_steps += static_cast<double>(steps);
  }
  const double mean_steps =
      shard.steps_per_shard.empty()
          ? 0.0
          : sum_steps / static_cast<double>(shard.steps_per_shard.size());
  report.set("shard.step_imbalance",
             mean_steps > 0.0 ? max_steps / mean_steps : 0.0, "ratio");
}

double quantile_with_misses(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = p * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (xs[lo] == kMissedMs || (frac > 0.0 && xs[hi] == kMissedMs)) {
    return kMissedMs;
  }
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

namespace {

/// Samples per window for a p-quantile: >= 10 beyond it (20 at the
/// median, 1000 at p99).
std::size_t window_size(double p) {
  return static_cast<std::size_t>(std::ceil(10.0 / (1.0 - p) - 1e-9));
}

/// Splits `xs` into consecutive windows of >= window_size(p) samples (one
/// window when it holds fewer) and returns f applied to each.
template <typename F>
std::vector<double> per_window(const std::vector<double>& xs, double p, F f) {
  const std::size_t n = xs.size();
  const std::size_t windows = std::max<std::size_t>(1, n / window_size(p));
  std::vector<double> out;
  for (std::size_t w = 0; w < windows; ++w) {
    out.push_back(f(std::vector<double>(xs.begin() + n * w / windows,
                                        xs.begin() + n * (w + 1) / windows)));
  }
  return out;
}

}  // namespace

double windowed_quantile(const std::vector<double>& xs, double p, double q) {
  return quantile_with_misses(
      per_window(xs, p,
                 [p](std::vector<double> w) {
                   return quantile_with_misses(std::move(w), p);
                 }),
      q);
}

void record_latency(Report& report, const std::vector<double>& latency_ms,
                    double across) {
  report.set("latency_p50_ms", windowed_quantile(latency_ms, 0.50, across),
             "ms");
  report.set("latency_p99_ms", windowed_quantile(latency_ms, 0.99, across),
             "ms");
}

double closed_loop_goodput(const std::vector<double>& latency_ms,
                           double limit_ms) {
  std::vector<double> good_rps;
  for (const double ms : latency_ms) {
    good_rps.push_back(ms <= limit_ms ? 1e3 / ms : 0.0);
  }
  return windowed_quantile(good_rps, 0.5, kSlowRate);
}

double exposition_value(const std::string& text, const std::string& name) {
  std::istringstream lines(text);
  std::string line;
  const std::string prefix = name + " ";
  while (std::getline(lines, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size()));
    }
  }
  return 0.0;
}

sim::KernelStats exposition_kernel_stats(const std::string& text) {
  sim::KernelStats stats;
  const auto field = [&](const char* name) {
    return static_cast<std::uint64_t>(exposition_value(
        text, std::string("csaw_kernel_") + name + "_total"));
  };
  stats.lockstep_rounds = field("lockstep_rounds");
  stats.global_bytes = field("global_bytes");
  stats.occupied_slot_rounds = field("occupied_slot_rounds");
  stats.select_iterations = field("select_iterations");
  stats.collision_searches = field("collision_searches");
  stats.collisions = field("collisions");
  stats.sampled_vertices = field("sampled_vertices");
  return stats;
}

void probe_core(Report& report, const CsrGraph& graph,
                const AlgorithmSetup& setup, const SamplerOptions& options,
                std::span<const VertexId> seeds) {
  constexpr int kReps = 5;
  const CsrGraphView view(graph);
  sim::Device device(0, options.device_params);
  device.set_num_threads(options.num_threads);
  SamplerOptions in_memory = options;
  in_memory.mode = ExecutionMode::kInMemory;
  Sampler sampler(graph, setup, in_memory);
  const std::vector<std::vector<VertexId>> seed_lists =
      expand_single_seeds(seeds);

  // Interleaved repetitions, first one discarded as warm-up.
  std::vector<double> engine_s;
  std::vector<double> facade_s;
  std::uint64_t edges = 0;
  for (int rep = 0; rep <= kReps; ++rep) {
    device.reset();
    SamplingEngine engine(view, setup.policy, setup.spec,
                          in_memory.engine_config());
    auto t0 = Clock::now();
    const SampleRun run = engine.run(device, seed_lists);
    const double e_s = seconds_since(t0);
    t0 = Clock::now();
    const RunResult facade = sampler.run(seed_lists);
    const double f_s = seconds_since(t0);
    if (rep == 0) {
      report.check(same_samples(run.samples, facade.samples),
                   "bench-owned SamplingEngine and Sampler disagree");
      edges = run.sampled_edges();
      continue;
    }
    engine_s.push_back(e_s);
    facade_s.push_back(f_s);
  }
  const double engine_med = median(engine_s);
  report.set("core.engine_ms_per_kedge",
             engine_med * 1e3 /
                 (static_cast<double>(std::max<std::uint64_t>(edges, 1)) /
                  1000.0),
             "ms/kedge");
  report.set("core.facade_overhead_frac",
             engine_med > 0.0 ? median(facade_s) / engine_med - 1.0 : 0.0,
             "ratio");

  // Simulated time per kernel name: the pipelined kernel the facade runs,
  // then the step-barrier schedule's per-step kernels on the same seeds.
  std::uint64_t launches = 0;
  for (const Schedule schedule : {Schedule::kPipelined, Schedule::kStepBarrier}) {
    device.reset();
    EngineConfig config = in_memory.engine_config();
    config.schedule = schedule;
    SamplingEngine engine(view, setup.policy, setup.spec, config);
    engine.run(device, seed_lists);
    launches += device.kernel_log().size();
    for (const char* name : {"sample_pipeline", "neighbor_select"}) {
      double sim_s = 0.0;
      for (const double d : device.kernel_durations(name)) sim_s += d;
      if (sim_s > 0.0) {
        report.set(std::string("gpusim.sim_us.") + name, sim_s * 1e6, "us");
      }
    }
  }
  report.set("gpusim.kernel_launches", static_cast<double>(launches), "count");
}

void probe_select(Report& report, const CsrGraph& graph,
                  const AlgorithmSetup& setup, const SampleStore& visited) {
  constexpr std::size_t kMaxVectors = 4096;
  constexpr double kMinSeconds = 0.2;
  const CsrGraphView view(graph);

  // One bias vector per visited source vertex, in sample order.
  std::vector<std::vector<float>> biases;
  for (std::uint32_t i = 0; i < visited.num_instances(); ++i) {
    for (const Edge& edge : visited.edges(i)) {
      if (biases.size() == kMaxVectors) break;
      const auto adj = graph.neighbors(edge.src);
      if (adj.empty()) continue;
      std::vector<float> b(adj.size());
      InstanceContext ctx;
      ctx.instance_id = i;
      for (std::size_t k = 0; k < adj.size(); ++k) {
        const EdgeRef ref{edge.src, adj[k], graph.edge_weight(edge.src, k),
                          static_cast<EdgeIndex>(k)};
        b[k] = setup.policy.eval_edge_bias(view, ref, ctx);
      }
      biases.push_back(std::move(b));
    }
  }
  if (biases.empty()) return;

  SelectConfig config;
  config.with_replacement = setup.spec.with_replacement;
  ItsSelector selector(config);
  const CounterStream rng(SamplerOptions{}.seed);
  sim::KernelStats stats;
  std::vector<double> ns_per_call;
  std::uint64_t sink = 0;
  const auto t_start = Clock::now();
  for (std::uint32_t rep = 0;
       ns_per_call.size() < 5 || seconds_since(t_start) < kMinSeconds; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t v = 0; v < biases.size(); ++v) {
      sim::WarpContext warp(stats);
      sink += selector
                  .select(biases[v], setup.spec.neighbor_size, rng,
                          SelectCoords{rep, 0, static_cast<std::uint32_t>(v)},
                          warp)
                  .size();
    }
    ns_per_call.push_back(seconds_since(t0) * 1e9 /
                          static_cast<double>(biases.size()));
  }
  report.check(sink > 0, "select replay selected nothing");
  report.set("select.ns_per_call", median(ns_per_call), "ns");
}

void probe_graph_builds(Report& report, const CsrGraph& graph,
                        std::uint32_t partitions, std::uint32_t shards) {
  constexpr int kReps = 3;
  std::vector<double> part_s;
  std::vector<double> shard_s;
  for (int rep = 0; rep < kReps; ++rep) {
    auto t0 = Clock::now();
    const PartitionedGraph parts(graph, partitions);
    part_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    const ShardPartitionMap map(graph, shards);
    shard_s.push_back(seconds_since(t0));
    report.check(parts.num_parts() == partitions && map.shards() == shards,
                 "partition or shard-map build has the wrong shape");
  }
  report.set("graph.partition_build_s", median(part_s), "s");
  report.set("graph.shard_map_build_s", median(shard_s), "s");
  report.set("graph.csr_mb", static_cast<double>(graph.bytes()) / (1 << 20),
             "MiB");
}

void export_trace(Report& report, const RunArgs& args,
                  const telemetry::TraceRecorder& trace) {
  std::ofstream out(args.trace_path);
  out << trace.json();
  report.check(static_cast<bool>(out), "could not write " + args.trace_path);
  report.set("telemetry.trace_events",
             static_cast<double>(trace.event_count()), "count");
}

}  // namespace csaw::perfbench
