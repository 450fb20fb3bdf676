#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/sample_store.hpp"
#include "gpusim/cost_model.hpp"

namespace csaw {

/// How a sampling run executes. Users normally leave the facade on kAuto
/// and never see the execution mode (the paper's API promise, §IV); the
/// explicit values exist for benches that isolate one backend.
enum class ExecutionMode {
  /// Pick the backend from the spec's in-memory-only flags and the CSR
  /// footprint vs. the simulated device-memory budget.
  kAuto,
  /// Whole graph resident on one device (paper §IV).
  kInMemory,
  /// Partitioned residency paging on one device (paper §V).
  kOutOfMemory,
  /// Disjoint instance groups across several devices (paper §V-D); each
  /// device runs the in-memory or out-of-memory backend.
  kMultiDevice,
};

/// Human-readable mode name ("auto", "in-memory", ...).
std::string to_string(ExecutionMode mode);

/// Metrics of the out-of-memory backend, regenerating Figs. 13-15.
struct OomMetrics {
  /// Host-to-device partition copies (Fig. 15).
  std::size_t partition_transfers = 0;
  std::uint64_t bytes_transferred = 0;
  /// Mean over scheduling rounds of the coefficient of variation of
  /// per-stream kernel time — the workload-imbalance measure of Fig. 14
  /// (0 = perfectly balanced kernels).
  double kernel_imbalance = 0.0;
  /// Number of scheduling rounds executed.
  std::size_t scheduling_rounds = 0;
  /// Number of kernel launches.
  std::size_t kernel_launches = 0;

  // --- Demand-driven partition cache (pipelined OOM path; all zero under
  // the kStepBarrier waves).
  /// Residency rounds served without a demand transfer (partition already
  /// on device or its prefetch in flight).
  std::size_t cache_hits = 0;
  std::size_t cache_evictions = 0;
  /// Speculative copies issued behind the computing partition, failed
  /// ones included; each that lands counts in partition_transfers and
  /// bytes_transferred too.
  std::size_t prefetch_transfers = 0;
  /// Simulated seconds of host-to-device copy time that overlapped a
  /// kernel — the transfer/compute overlap the cache buys.
  double transfer_overlap_seconds = 0.0;
  /// Injected partition-copy faults observed (FaultInjector); zero
  /// without an injector.
  std::size_t transfer_faults = 0;
  /// Partition copies re-issued after a fault (bounded by
  /// SamplerOptions::transfer_retry per load).
  std::size_t transfer_retries = 0;

  /// Accumulates counters; kernel_imbalance is averaged weighted by
  /// scheduling_rounds (multi-device and batched runs).
  void accumulate(const OomMetrics& other) noexcept;
};

/// Metrics of the sharded routing tier (src/shard/): walker forwarding
/// over the simulated transport. Present on a RunResult only when a
/// ShardRouter executed the run.
struct ShardMetrics {
  std::uint32_t shards = 0;
  /// BSP forwarding rounds the host executed (compute + exchange
  /// supersteps). They order the exchange only: each shard's simulated
  /// compute is one persistent kernel per run, not one per round.
  std::size_t rounds = 0;
  /// Walkers handed to another shard (each hop counts once).
  std::uint64_t forwarded_walkers = 0;
  /// Envelopes delivered over the simulated transport.
  std::uint64_t envelopes = 0;
  /// Wire bytes of delivered envelopes (headers + walker records).
  std::uint64_t bytes_forwarded = 0;
  /// Simulated seconds spent on envelope transfers: per superstep the
  /// slowest source link, summed over supersteps. sim_seconds is this
  /// plus the compute makespan (the slowest shard kernel, or the longest
  /// walker's path across shards when that is longer).
  double transfer_seconds = 0.0;
  /// Injected delivery faults observed (FaultInjector).
  std::size_t envelope_faults = 0;
  /// Deliveries re-attempted after a fault.
  std::size_t envelope_retries = 0;
  /// Walker steps computed by each shard (length == shards).
  std::vector<std::uint64_t> steps_per_shard;
  /// Walkers each shard forwarded away (length == shards).
  std::vector<std::uint64_t> forwarded_per_shard;
  /// Run-local instance indices failed by terminal shard/transport
  /// faults, sorted ascending. The service maps these to
  /// RequestOutcome::kShardFailed.
  std::vector<std::uint32_t> failed;

  /// Accumulates counters; per-shard vectors add elementwise (resizing
  /// to the larger shard count). `failed` is left as it is: its indices
  /// are local to one run, so a union over runs names nothing.
  void accumulate(const ShardMetrics& other);
};

/// Sampled edges per second, the paper's SEPS metric (§VI). Shared by
/// every run-result type so the definition lives in exactly one place.
double sampled_edges_per_second(std::uint64_t edges, double seconds);

/// Expands one seed vertex per instance into the seeds-per-instance shape
/// every run entry point takes — the shared body of the run_single_seed
/// convenience wrappers.
std::vector<std::vector<VertexId>> expand_single_seeds(
    std::span<const VertexId> seeds);

/// True when every instance starts from exactly one seed vertex.
bool single_seeded(std::span<const std::vector<VertexId>> seeds) noexcept;

/// Result of one sampling run through the csaw::Sampler facade: the same
/// shape regardless of which backend executed it.
struct RunResult {
  SampleStore samples;
  /// Simulated makespan. In-memory: device seconds in sampling kernels.
  /// Out-of-memory: includes partition transfers (the paper's OOM SEPS
  /// definition). Multi-device: the slowest device. Batched: the sum over
  /// sequential batches. Sharded: the compute makespan plus envelope
  /// transfers (ShardMetrics::transfer_seconds).
  double sim_seconds = 0.0;
  /// Per-device simulated seconds; one entry for single-device modes.
  /// Sharded: each shard's persistent kernel, transfers excluded.
  std::vector<double> device_seconds;
  /// Aggregated kernel stats over the run (all devices).
  sim::KernelStats stats;
  /// The mode that actually executed (never kAuto).
  ExecutionMode mode = ExecutionMode::kInMemory;
  /// Why that mode was chosen — auto-selection records its reasoning,
  /// including fallbacks (e.g. an in-memory-only spec on an oversized
  /// graph).
  std::string mode_reason;
  /// Present when the out-of-memory backend ran on any device.
  std::optional<OomMetrics> oom;
  /// Present when a ShardRouter routed the run across shards.
  std::optional<ShardMetrics> shard;

  std::uint64_t sampled_edges() const { return samples.total_edges(); }
  double seps() const {
    return sampled_edges_per_second(samples.total_edges(), sim_seconds);
  }
};

}  // namespace csaw
