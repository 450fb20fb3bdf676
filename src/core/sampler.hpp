#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>

#include "algorithms/registry.hpp"
#include "core/engine.hpp"
#include "core/policy.hpp"
#include "core/run_result.hpp"
#include "gpusim/device.hpp"
#include "util/fault_injector.hpp"

namespace csaw {

class PartitionCache;
class PartitionedGraph;

/// What auto mode selection assumes about the CSR footprint vs. the
/// device-memory budget. The paper's evaluation "pretends" bench-scale
/// stand-ins for Twitter/Friendster do not fit (Figs. 13-15), and pins
/// small graphs in memory even when a tiny simulated device is configured;
/// both directions are expressible without forging DeviceParams.
enum class MemoryAssumption {
  kMeasure,  ///< compare graph.bytes() against the device budget
  kExceeds,  ///< treat the graph as exceeding device memory
  kFits,     ///< treat the graph as fitting device memory
};

/// Every knob of every execution mode in one struct. The facade reads the
/// subset its resolved mode needs; the rest is inert — so one options
/// value can be reused across modes and graphs.
struct SamplerOptions {
  /// Execution-mode request; kAuto resolves it per graph + spec.
  ExecutionMode mode = ExecutionMode::kAuto;

  // --- Engine knobs.
  SelectConfig select;
  std::uint64_t seed = 0xC5A30001ull;
  /// Added to local instance indices to form the global instance id used
  /// in RNG coordinates. This is the *single* source of truth: the
  /// multi-device path derives each device's disjoint offset range from
  /// it, and the batched path derives each batch's — user code never
  /// hands offsets to a backend directly.
  std::uint32_t instance_id_offset = 0;

  // --- Device topology.
  /// Devices to spread instances over. kAuto resolves to kMultiDevice
  /// when this exceeds 1.
  std::uint32_t num_devices = 1;
  sim::DeviceParams device_params;

  // --- Host execution.
  /// Host threads executing simulated warp-tasks, shared by all devices
  /// of the run (multi-device groups execute concurrently on the same
  /// pool): 0 = auto (the CSAW_THREADS environment variable, else
  /// hardware_concurrency), 1 = the legacy serial path. Samples, seps()
  /// and kernel stats are byte-identical at any width (see README
  /// "Threading model").
  std::uint32_t num_threads = 0;

  // --- Kernel schedule.
  /// Default on: per-instance pipelining — instance i's step s+1 starts
  /// the moment its own step s completes, instead of barriering every
  /// step across all instances (paper §V; docs/ARCHITECTURE.md
  /// "Pipelined scheduler"). Samples are byte-identical to the
  /// Schedule::kStepBarrier fallback in every execution mode
  /// (tests/core/pipeline_equivalence_test.cpp); only the simulated
  /// schedule — sim_seconds, seps(), kernel log shape — changes.
  Schedule schedule = Schedule::kPipelined;

  // --- Out-of-memory knobs (OomEngine), used whenever the out-of-memory
  // backend is selected on any device. The defaults are the paper's Fig.
  // 13 setup: 4 partitions, 2 resident, 2 streams.
  std::uint32_t num_partitions = 4;
  /// Partitions on the device at once: per barrier wave, and the limit of
  /// this sampler's private demand cache (whatever their bytes; a service
  /// cache is budgeted in bytes instead).
  std::uint32_t resident_partitions = 2;
  /// Streams of the kStepBarrier waves; the demand cache gives each
  /// partition on the device a stream of its own.
  std::uint32_t num_streams = 2;
  /// The optimization toggles of Fig. 13's legend: BA, batched
  /// multi-instance sampling (§V-C); WS, workload-aware partition
  /// scheduling (§V-B); BAL, thread-block based workload balancing
  /// (§V-B).
  bool oom_batched = true;
  bool oom_workload_aware = true;
  bool oom_block_balancing = true;
  /// Without batching, per-instance frontier queues and bitmaps occupy
  /// device memory, so only a gang of instances can be in flight at once;
  /// each gang pays its own partition transfers (the amortization loss
  /// batched multi-instance sampling removes, §V-C). Gang size in
  /// instances.
  std::uint32_t oom_unbatched_gang_size = 1024;

  // --- Paged-I/O fault tolerance (kPipelined demand-cache path only).
  /// Retry policy of a partition copy. A copy failing every attempt
  /// throws TransferError out of the run. The service's sharded router
  /// uses the same policy for envelope deliveries.
  RetryPolicy transfer_retry;
  /// Optional deterministic fault injector consulted per copy attempt,
  /// keyed by partition id. nullptr (the default) means fault-free paged
  /// I/O.
  std::shared_ptr<FaultInjector> transfer_faults;

  // --- Auto-selection inputs.
  MemoryAssumption memory_assumption = MemoryAssumption::kMeasure;
  /// Fraction of DeviceParams::memory_bytes the CSR may occupy before
  /// auto selection pages it (headroom for frontier queues and samples).
  double memory_budget_fraction = 0.9;

  /// The in-memory engine's slice of these options (SamplingEngine).
  EngineConfig engine_config() const;
};

/// The resolved execution plan, fixed at Sampler construction.
struct ModeDecision {
  ExecutionMode requested = ExecutionMode::kAuto;
  /// Never kAuto.
  ExecutionMode resolved = ExecutionMode::kInMemory;
  /// Per-device backend: true = out-of-memory paging. Meaningful for
  /// kOutOfMemory (always true) and kMultiDevice.
  bool out_of_memory = false;
  /// Human-readable selection rationale, including fallbacks.
  std::string reason;
};

/// Non-empty when `spec` can only run on the in-memory engine, naming the
/// flag that requires whole-graph frontier state; empty when the spec is
/// out-of-memory capable.
std::string in_memory_only_reason(const SamplingSpec& spec);

/// Whether kAuto should page `graph`: options.memory_assumption, or under
/// kMeasure whether its CSR footprint exceeds memory_budget_fraction of
/// the device's memory. When `why` is given, the footprint text of the
/// decision reason is written to it.
bool graph_exceeds_budget(const CsrGraph& graph, const SamplerOptions& options,
                          std::ostream* why = nullptr);

/// The C-SAW front door: one facade over the in-memory engine (paper
/// §IV), the out-of-memory engine (§V) and multi-device execution (§V-D).
/// Users pick an algorithm (three bias hooks, or a registry id), hand in
/// seeds, and get one RunResult back; which backend executed is an
/// auto-selected detail, recorded in decision().
///
/// The counter-based RNG makes the choice invisible in the output too:
/// every mode produces byte-identical per-instance samples (see
/// tests/core/sampler_test.cpp).
///
/// Under the (default) kPipelined schedule a single-device paged Sampler
/// keeps its partition cache warm across runs and run_batches chunks: a
/// later run starts with the partitions the previous one left resident,
/// which changes its transfers and seps(), never its samples.
class Sampler {
 public:
  Sampler(const CsrGraph& graph, Policy policy, SamplingSpec spec,
          SamplerOptions options = {});
  Sampler(const CsrGraph& graph, const AlgorithmSetup& setup,
          SamplerOptions options = {});
  /// Registry shortcut: the default-parameter setup of `id` (paper §VI;
  /// depth_or_length is the walk length for walk algorithms).
  Sampler(const CsrGraph& graph, AlgorithmId id,
          std::uint32_t depth_or_length, std::uint32_t neighbor_size = 2,
          SamplerOptions options = {});

  const CsrGraph& graph() const noexcept { return *graph_; }
  const Policy& policy() const noexcept { return policy_; }
  const SamplingSpec& spec() const noexcept { return spec_; }
  const SamplerOptions& options() const noexcept { return options_; }
  /// The execution plan resolved at construction.
  const ModeDecision& decision() const noexcept { return decision_; }

  /// Runs all instances to completion; seeds[i] holds the seed vertices
  /// of instance i.
  RunResult run(std::span<const std::vector<VertexId>> seeds);

  /// Convenience: every instance starts from one seed vertex.
  RunResult run_single_seed(std::span<const VertexId> seeds);

  /// Serving-style batched execution: streams instances through the
  /// resolved backend in chunks of `batch_size`, bounding peak in-flight
  /// state while producing samples byte-identical to one big run (each
  /// batch keeps its instances' global ids, so the counter-based RNG
  /// draws the same numbers). sim_seconds is the sum over sequential
  /// batches.
  RunResult run_batches(std::span<const std::vector<VertexId>> seeds,
                        std::uint32_t batch_size);

  RunResult run_batches_single_seed(std::span<const VertexId> seeds,
                                    std::uint32_t batch_size);

  /// The coalesced (service-tier) entry point: one engine run over
  /// instances whose global RNG ids are given per instance by `tags`
  /// (strictly increasing, one per seeds entry) instead of the contiguous
  /// `instance_id_offset + i` assignment. Because the counter-based RNG
  /// addresses every draw by the global id, instance i's samples here are
  /// byte-identical to a plain run() whose offset placed it at tags[i] —
  /// which is how csaw::Service batches requests from different clients
  /// into one run and still returns each request the exact bytes a solo
  /// run would have produced. The batch executes through the resolved
  /// execution mode like any other run (multi-device splits the tag span
  /// with the seed span).
  ///
  /// `control` carries the run's handles (RunControl, core/engine.hpp):
  /// `control.cancel` skips the whole run once fired (only sound when the
  /// run's output is discarded); `control.instance_cancel[i]` (when
  /// non-empty: one token per seeds entry, checked) stops instance i at
  /// its next step boundary while every other instance's samples stay
  /// byte-identical to an uncancelled run. Tokens are polled, never
  /// blocked on — an already-finished run is unaffected by a late
  /// cancel. A completion callback streams rows as instances finish, and
  /// a trace recorder receives the run's chain and transfer spans; both
  /// last for this call only.
  ///
  /// Re-entrancy contract: one Sampler must run one call at a time, but
  /// any number of Samplers may share one executor pool (set_executor)
  /// and one partitioning (set_partitions) — and those Samplers may run
  /// *concurrently*, each driven by its own thread, up to the pool's
  /// external-slot capacity (sim::ThreadPool::max_workers()): every
  /// driving thread holds a unique worker identity, so the per-run
  /// engine scratch of simultaneous runs never aliases. csaw::Service
  /// uses exactly this — one batch-runner thread per in-flight batch, one
  /// shared pool sized to max_concurrent_batches — to overlap
  /// independent-graph batches.
  RunResult run_tagged(std::span<const std::vector<VertexId>> seeds,
                       std::span<const std::uint32_t> tags,
                       const RunControl& control = {});

  /// Attaches an externally owned host pool shared with other samplers
  /// (the service tier passes one pool through every batch). Replaces the
  /// lazily created per-sampler pool; the pool's width wins over
  /// SamplerOptions::num_threads. Concurrent runs of distinct Samplers on
  /// one pool are safe up to the pool's external-thread capacity (see
  /// run_tagged's re-entrancy contract).
  void set_executor(std::shared_ptr<sim::ThreadPool> pool);

  /// Shares a prebuilt partitioning for the out-of-memory backend instead
  /// of building one on first dispatch — the service's graph registry
  /// partitions a graph once and reuses it across every batch. `parts`
  /// must partition this sampler's graph into options().num_partitions
  /// ranges (checked when the out-of-memory engine consumes it). A
  /// partition cache built over a different partitioning is dropped, so
  /// the next pipelined run starts cold on the new one.
  void set_partitions(std::shared_ptr<const PartitionedGraph> parts);

  /// Shares a persistent partition cache for the pipelined OOM path: the
  /// service tier keeps one cache per paged graph so partitions stay warm
  /// across batches. Implies set_partitions with the cache's
  /// partitioning. Single-device paging only — multi-device groups build
  /// private caches (each simulated device has its own memory).
  void set_partition_cache(std::shared_ptr<PartitionCache> cache);

 private:
  /// Dispatches one run with an explicit global-id base offset (the
  /// batched path shifts it per chunk) or explicit per-instance tags
  /// (the service path; tags win when non-empty), under `control`.
  RunResult dispatch(std::span<const std::vector<VertexId>> seeds,
                     std::uint32_t instance_id_offset,
                     std::span<const std::uint32_t> tags = {},
                     const RunControl& control = {});
  RunResult run_in_memory(std::span<const std::vector<VertexId>> seeds,
                          std::uint32_t instance_id_offset,
                          std::span<const std::uint32_t> tags,
                          std::uint32_t device_id, const RunControl& control);
  RunResult run_out_of_memory(std::span<const std::vector<VertexId>> seeds,
                              std::uint32_t instance_id_offset,
                              std::span<const std::uint32_t> tags,
                              std::uint32_t device_id,
                              const RunControl& control);
  /// Splits the run into per-device groups, each with its own RunControl:
  /// the group's sub-range of instance tokens and a completion callback
  /// re-based to run-local instance indices.
  RunResult run_multi_device(std::span<const std::vector<VertexId>> seeds,
                             std::uint32_t instance_id_offset,
                             std::span<const std::uint32_t> tags,
                             const RunControl& control);

  /// Creates the run-wide host pool on first use (width from
  /// num_threads / CSAW_THREADS); null when the resolved width is serial.
  sim::ThreadPool* ensure_pool();
  /// Attaches the run-wide host executor to a device.
  void attach_executor(sim::Device& device);

  const CsrGraph* graph_;
  Policy policy_;
  SamplingSpec spec_;
  SamplerOptions options_;
  ModeDecision decision_;
  /// Built lazily on the first out-of-memory dispatch and shared by every
  /// subsequent engine (batched serving partitions once, not per batch).
  std::shared_ptr<const PartitionedGraph> parts_;
  /// Pipelined single-device paging only: the persistent residency cache
  /// shared by every OOM engine this sampler runs (set_partition_cache or
  /// lazily created holding resident_partitions partitions).
  std::shared_ptr<PartitionCache> cache_;
  /// The persistent host thread pool shared by every device of this
  /// sampler (and reused across runs/batches). Null while serial.
  std::shared_ptr<sim::ThreadPool> pool_;
};

}  // namespace csaw
