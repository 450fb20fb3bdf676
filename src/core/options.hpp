#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/run_result.hpp"
#include "gpusim/cost_model.hpp"
#include "select/its.hpp"
#include "util/fault_injector.hpp"

namespace csaw {

/// How one run's sampling work is scheduled onto the simulated device.
enum class Schedule {
  /// Per-instance pipelining (paper §V, ThunderRW-style interleaving):
  /// instance i's step s+1 launches the moment *its own* step s
  /// completes — instances never wait on each other. Recorded as one
  /// persistent fused kernel per run (per resident partition for the
  /// out-of-memory engine); samples are byte-identical to kStepBarrier
  /// (both schedules run the same per-instance chains), only the
  /// simulated schedule — and therefore sim_seconds / seps() — improves.
  kPipelined,
  /// One global barrier per step: every instance's step s finishes before
  /// any instance's step s+1 starts. The same chains run, and the tasks
  /// they ran in one step group are recorded as one kernel
  /// (Device::execute_waves): one launch per step group and
  /// kernel-granular cost accounting.
  kStepBarrier,
};

/// Human-readable schedule name ("pipelined" / "step_barrier").
std::string to_string(Schedule schedule);

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

/// Every knob of every execution mode in one struct, the one options
/// type of the Sampler facade and of every engine it runs (SamplingEngine,
/// OomEngine, ShardRouter). Each reads the subset it needs; the rest is
/// inert — so one options value can be reused across modes and graphs.
struct SamplerOptions {
  /// Execution-mode request; kAuto resolves it per graph + spec.
  ExecutionMode mode = ExecutionMode::kAuto;

  // --- Engine knobs.
  SelectConfig select;
  std::uint64_t seed = 0xC5A30001ull;

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
  /// Schedule::kStepBarrier fallback in every execution mode and engine
  /// (tests/paths.hpp); only the simulated schedule — sim_seconds,
  /// seps(), kernel log shape — changes.
  Schedule schedule = Schedule::kPipelined;

  // --- Out-of-memory knobs (OomEngine), used whenever the out-of-memory
  // backend is selected on any device. The defaults are the paper's Fig.
  // 13 setup: 4 partitions, 2 resident (and oom_engine.cpp's two barrier
  // streams).
  std::uint32_t num_partitions = 4;
  /// Partitions on the device at once: per barrier wave, and the limit of
  /// this sampler's private demand cache (whatever their bytes; a service
  /// cache is budgeted in bytes instead).
  std::uint32_t resident_partitions = 2;
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

  /// Returns *this; kept only because perfbench/src/common.cpp calls it.
  const SamplerOptions& engine_config() const noexcept { return *this; }
};

/// The old engine-options name, kept only for perfbench/src/common.cpp.
using EngineConfig = SamplerOptions;

}  // namespace csaw
