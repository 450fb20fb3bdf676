#pragma once

// Shared pieces of the four workloads: run arguments, small statistics,
// environment recording, and the layer probes that drive bench-owned
// objects (a SamplingEngine on its own sim::Device, an ItsSelector,
// PartitionedGraph and ShardPartitionMap builds).

#include <chrono>
#include <cstdint>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "core/run_result.hpp"
#include "core/sampler.hpp"
#include "graph/csr.hpp"
#include "report.hpp"
#include "telemetry/trace.hpp"

namespace csaw::perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace-event JSON.
  std::string trace_path = "trace.json";
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Quantile with linear interpolation; 0 for an empty sample.
double quantile_or_zero(std::vector<double> xs, double p);
inline double median(std::vector<double> xs) {
  return quantile_or_zero(std::move(xs), 0.5);
}

/// Process peak resident set size, MiB.
double peak_rss_mb();

/// Independent 64-bit stream `stream` of the run seed (splitmix64).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// `count` seed vertices drawn uniformly from `graph`.
std::vector<VertexId> random_vertices(const CsrGraph& graph,
                                      std::uint32_t count,
                                      std::uint64_t seed);

/// Byte equality of two stores' rows.
bool same_samples(const SampleStore& a, const SampleStore& b);

/// Sets every per-layer metric the binary computes to 0 with its unit, so
/// a workload that bypasses a layer reports 0 for it.
void declare_layer_metrics(Report& report);

/// Environment fields every result carries: nproc, pool width, build
/// type, compiler, seed, workload and run length.
void record_env(Report& report, const RunArgs& args,
                std::uint32_t pool_width);
void record_graph(Report& report, const std::string& name,
                  const CsrGraph& graph);

/// Per-layer metrics derived from accumulated kernel stats: the gpusim
/// ratios and the select iteration/collision counts.
void record_kernel_stats(Report& report, const sim::KernelStats& stats,
                         std::uint64_t edges);
void record_oom(Report& report, const OomMetrics& oom, std::uint64_t batches,
                std::uint64_t edges, double sim_seconds);
void record_shard(Report& report, const ShardMetrics& shard,
                  std::uint64_t edges, double sim_seconds);

/// Latency of a request that was refused, failed or returned wrong bytes:
/// it misses every limit.
inline constexpr double kMissedMs = std::numeric_limits<double>::infinity();

/// quantile() of samples that may hold kMissedMs: a quantile that reaches
/// a missed request is kMissedMs (never NaN); 0 for no sample.
double quantile_with_misses(std::vector<double> xs, double p);

/// The host's speed switches between two states: on a shared 4-core VM
/// the same requests ran in a fast and a slow state 1.7-2x apart, each
/// lasting seconds, while a pure ALU loop moved only 10-20%. The slow
/// state showed up in nearly every run, the fast one in some runs only.
/// Host metrics of per-request samples (in send order) are therefore read
/// per window of consecutive samples, and across windows at the quartile
/// of the slower ones: kSlowTime for times, kSlowRate for rates. Over
/// five seeds that spread 0.03-0.12 IQR / median across runs, where the
/// quartile of the faster windows spread 0.17-0.24.
///
/// An open loop is the exception: in the slow state its queue grows, so
/// latency rises far more than service time and the slow windows are the
/// volatile ones. gnn_serve reads latency at kFastTime (p50 spread 0.20
/// over six seeds there, 0.44 at kSlowTime); a run spent wholly in the
/// slow state still reads 2-5x slower, which is why gnn_serve is not one
/// of BENCHMARK.json's workloads.
inline constexpr double kSlowTime = 0.75;
inline constexpr double kSlowRate = 0.25;
inline constexpr double kFastTime = 0.25;

/// The p-quantile of each window of consecutive samples that holds >= 10
/// samples beyond it (20 at the median, 1000 at p99; one window when the
/// run holds fewer), then the q-quantile across windows.
double windowed_quantile(const std::vector<double>& xs, double p, double q);

/// latency_p50_ms and latency_p99_ms from per-request (or per-chunk)
/// latencies in send order, by windowed_quantile with `across` as the
/// quantile across windows. A request that is not ok carries kMissedMs,
/// and a quantile that lands on it fails the run.
void record_latency(Report& report, const std::vector<double>& latency_ms,
                    double across);

/// goodput_rps of a closed loop, where a request that took `ms` is one of
/// 1000 / ms sent per second: each request within `limit_ms` counts at
/// that rate and every other request at 0, read by windowed_quantile at
/// the median and kSlowRate. Per-window medians, not sums, so one stalled
/// request does not move the window (sums spread 0.16-0.18 over ten seeds
/// on the closed loops, and moved 26% between two sets). A request that
/// is not ok carries kMissedMs and counts as a miss.
double closed_loop_goodput(const std::vector<double>& latency_ms,
                           double limit_ms);

/// Value of an unlabelled sample in a Prometheus text exposition (0 when
/// absent), and the per-field kernel counters Service::metrics_text()
/// exports as csaw_kernel_<field>_total.
double exposition_value(const std::string& text, const std::string& name);
sim::KernelStats exposition_kernel_stats(const std::string& text);

/// Core and gpusim layer probe: times SamplingEngine::run on a
/// bench-owned sim::Device against Sampler::run_single_seed for the same
/// seeds (core.engine_ms_per_kedge, core.facade_overhead_frac) and reads
/// the device's kernel log (gpusim.kernel_launches, gpusim.sim_us.*).
/// Checks that both produce the same bytes.
void probe_core(Report& report, const CsrGraph& graph,
                const AlgorithmSetup& setup, const SamplerOptions& options,
                std::span<const VertexId> seeds);

/// Select layer probe: replays SELECT calls through a bench-owned
/// ItsSelector, with bias vectors built from the algorithm's EDGEBIAS
/// over the source vertices of `visited` (select.ns_per_call).
void probe_select(Report& report, const CsrGraph& graph,
                  const AlgorithmSetup& setup, const SampleStore& visited);

/// Graph layer: times PartitionedGraph and ShardPartitionMap builds on
/// `graph` (median of a few builds) and records the CSR size.
void probe_graph_builds(Report& report, const CsrGraph& graph,
                        std::uint32_t partitions, std::uint32_t shards);

/// Writes the recorder's Chrome trace JSON to args.trace_path and records
/// telemetry.trace_events.
void export_trace(Report& report, const RunArgs& args,
                  const telemetry::TraceRecorder& trace);

// --- Workloads.
void run_walk_corpus(const RunArgs& args, Report& report);
void run_gnn_serve(const RunArgs& args, Report& report);
void run_paged_serve(const RunArgs& args, Report& report);
void run_sharded_serve(const RunArgs& args, Report& report);
/// Offline helper, not a workload: drives the gnn_serve request mix
/// closed-loop as fast as the service completes it and prints the
/// saturation rate the workload's offered rate is derived from.
void run_gnn_saturation(const RunArgs& args, Report& report);

}  // namespace csaw::perfbench
