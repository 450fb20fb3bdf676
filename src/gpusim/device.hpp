#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "gpusim/cost_model.hpp"
#include "gpusim/stream.hpp"
#include "gpusim/thread_pool.hpp"
#include "gpusim/transfer.hpp"
#include "gpusim/warp.hpp"
#include "util/cancel.hpp"

namespace csaw::sim {

/// Record of one simulated kernel launch.
struct KernelRecord {
  std::string name;
  int stream_id = 0;
  double start = 0.0;
  double end = 0.0;
  /// Share of the device's SMs held: the launch's grant, or, for a window
  /// placed on the SM ledger (Device::record_round), its time-mean grant.
  double resource_fraction = 1.0;
  KernelStats stats;
  /// Ledger windows only: when the window's bytes were on the device.
  double ready = 0.0;
  /// Placed by Device::record_round: its grant varies over [start, end) as
  /// Device::sm_ledger() records.
  bool on_ledger = false;

  double duration() const noexcept { return end - start; }
};

/// One constant-grant stretch of a ledger window: kernel_log()[kernel]
/// held `grant` of the device's SMs over [start, end).
struct SmSegment {
  std::size_t kernel = 0;
  double start = 0.0;
  double end = 0.0;
  double grant = 0.0;
};

/// Per-chain execution context of a pipelined launch (Device::run_pipeline
/// / Device::execute_pipelined). A chain is one serial sequence of
/// dependent warp-tasks — typically one sampling instance's step chain:
/// task t+1 of a chain may read state task t wrote, so the chain executes
/// in program order on one worker, while tasks of *different* chains
/// overlap freely. run_task opens the stats scope of one simulated
/// warp-task and charges it to kernel slot `kernel`: pipelined executions
/// that record several fused kernels (the out-of-memory engine records one
/// per resident partition) give each partition a slot; single-kernel
/// launches pass 0. Every task of the chain runs `width` warps wide
/// (ChainWidth). A context of Device::execute_waves keeps each task's
/// stats and rounds per (kernel slot, group) instead.
class ChainContext {
 public:
  explicit ChainContext(std::uint32_t num_kernels = 1,
                        std::uint32_t width = 1, bool waves = false)
      : slots_(num_kernels), width_(width), keep_waves_(waves) {}

  /// Executes `fn` as one simulated warp-task of this chain, charged to
  /// kernel slot `kernel`. `group` identifies the chain's dependency
  /// stage (the sampling step, or the residency pass): tasks of one chain
  /// in the same group are independent — the host serializes them only to
  /// keep per-instance mutation order deterministic, so the device model
  /// treats them as concurrent warps, exactly like a step-barrier kernel
  /// does — while distinct groups serialize in order. Group ids must be
  /// non-decreasing within a chain. Templated (not std::function): this
  /// is the pipelined hot loop, one call per simulated warp-task.
  template <typename Fn>
  void run_task(std::uint32_t kernel, std::uint64_t group, Fn&& fn) {
    if (keep_waves_) {
      WaveTasks& wave = begin_wave(kernel, group);
      wave.rounds.push_back(run_warp_task(wave.stats, width_, fn));
      return;
    }
    Slot& slot = begin_task(kernel, group);
    slot.open_longest = std::max(
        slot.open_longest, run_warp_task(slot.stats, width_, fn));
    ++slot.open_count;
    ++slot.tasks;
  }

 private:
  friend class Device;
  struct Slot {
    KernelStats stats;
    /// Critical path: sum over completed groups of the group's longest
    /// task (dependent stages serialize; tasks within a stage overlap).
    std::uint64_t span_rounds = 0;
    /// Peak concurrent tasks: the widest group's task count.
    std::uint64_t width = 0;
    std::uint64_t tasks = 0;  ///< warp-tasks the chain charged to this slot
    // Streaming state of the group currently being accumulated.
    std::uint64_t open_group = 0;
    std::uint64_t open_longest = 0;
    std::uint64_t open_count = 0;

    /// Folds the open group into span/width.
    void close_group() noexcept;
  };

  /// The tasks this chain charged to one (kernel slot, group) of a wave
  /// execution, in the order it ran them.
  struct WaveTasks {
    std::uint32_t kernel = 0;
    std::uint64_t group = 0;
    KernelStats stats;
    std::vector<std::uint64_t> rounds;  ///< each task's critical rounds
  };

  /// Bounds-checks the slot and closes the previous group when `group`
  /// advances; returns the slot to charge.
  Slot& begin_task(std::uint32_t kernel, std::uint64_t group);
  /// Bounds-checks the slot; returns the wave to charge, opening one
  /// when (kernel, group) differs from the last task's.
  WaveTasks& begin_wave(std::uint32_t kernel, std::uint64_t group);

  std::vector<Slot> slots_;
  std::uint32_t width_;
  bool keep_waves_;
  std::vector<WaveTasks> waves_;
};

/// How a pipelined launch gives warps to its chains.
enum class ChainWidth {
  /// Each task runs on one warp, and a chain holds one block warp slot.
  kOneWarp,
  /// Chains that run one warp-task per step (a walk_shaped() spec with
  /// one seed per instance, pipelined_chain_width) run CostModel::
  /// cooperative_widths warps each, splitting every step's neighbor
  /// tiles across them. With enough chains to hide latency every width
  /// is 1, and the launch is kOneWarp's.
  kCooperative,
};

/// Persistent-kernel shape over chains folded in chain order: a chain's
/// warp slots stay resident until the chain retires, so the kernel's
///   - warps = the sum of per-chain warps,
///   - max_warp_rounds = the longest chain's span (its critical path),
///   - occupied_slot_rounds = sum over blocks of (the block's warp slots
///     x its longest chain span). Chains pack in order into blocks of
///     kWarpsPerBlock warp slots, and a chain never splits across
///     blocks, so the idle warps of a cooperative chain's narrow steps
///     are charged.
/// Device::execute_pipelined shapes each fused kernel slot with it; the
/// shard router shapes each shard's kernel over its walkers.
class PersistentKernelShape {
 public:
  /// Folds the next chain: its critical path, its peak concurrent warps
  /// and the block warp slots it holds (its cooperative width; a
  /// one-warp chain holds one slot however many tasks it runs at once).
  /// Call only for chains that ran at least one warp-task.
  void add_chain(std::uint64_t span_rounds, std::uint64_t warps,
                 std::uint64_t slots) noexcept;

  /// Writes warps, max_warp_rounds and occupied_slot_rounds of the chains
  /// folded so far into `stats`; the other fields are the caller's sum.
  void apply(KernelStats& stats) const noexcept;

 private:
  std::uint64_t peak_warps_ = 0;
  std::uint64_t longest_ = 0;
  std::uint64_t occupied_ = 0;  ///< closed blocks only
  std::uint64_t block_slots_ = 0;
  std::uint64_t block_longest_ = 0;
};

/// One simulated GPU. Every kernel runs as chains of dependent warp-tasks
/// (run_chains): the chain bodies run eagerly on the host, accumulating
/// KernelStats per chain, and the CostModel turns the aggregated stats
/// into a simulated duration placed on a stream.
///
/// Host-side execution width: chains run serially by default, or
/// concurrently on a persistent work-stealing thread pool
/// (set_num_threads / set_executor). The parallel path is byte-identical
/// to the serial one — the counter-based RNG makes sampling results
/// order-independent, a chain's tasks run in program order on one
/// worker, and stats are merged from per-chain accumulators in chain
/// order — so `seps()`, kernel logs and samples do not depend on the
/// thread count. Bodies must uphold their side of the contract: no two
/// chains may share mutable state (see ChainBody).
class Device {
 public:
  explicit Device(std::uint32_t id = 0, DeviceParams params = {});

  std::uint32_t id() const noexcept { return id_; }
  const CostModel& cost_model() const noexcept { return cost_; }
  TransferEngine& transfer() noexcept { return transfer_; }
  const TransferEngine& transfer() const noexcept { return transfer_; }

  /// Returns stream `i`, creating streams up to that index. Stream 0 is
  /// the default stream.
  Stream& stream(std::size_t i = 0);

  /// Requests a host-side execution width: 0 = auto (CSAW_THREADS, else
  /// hardware_concurrency), 1 = serial, n = a pool of n threads. Creates
  /// or resizes the device-owned pool lazily; a no-op when an external
  /// executor is attached (the facade's shared pool wins) or the width is
  /// already in effect.
  void set_num_threads(std::uint32_t num_threads);

  /// Attaches a shared executor (multi-device runs push one pool through
  /// every device). nullptr detaches, restoring the serial path.
  void set_executor(std::shared_ptr<ThreadPool> pool);

  /// Upper bound (exclusive) of worker identities passed to bodies; 1
  /// when serial. Engines size per-worker scratch with this. With an
  /// attached pool this is ThreadPool::max_workers() — wider than the
  /// thread count when the pool admits several concurrent external
  /// drivers, so per-batch scratch rows never alias across the engine
  /// runs sharing the pool.
  std::uint32_t max_workers() const noexcept;

  // --- Chain-granular launches.
  //
  // Every launch hands the device `num_chains` independent chains of
  // dependent task groups. Host side, each chain is one parallel_chains
  // item. Simulated side, execute_waves records every task group as one
  // step-barrier kernel, while a pipelined execution lets chains
  // progress at their own pace (paper §V: per-instance pipelines are
  // independent) and is modeled as a persistent kernel over the chains'
  // dependency graphs:
  //   - stats.max_warp_rounds = the longest chain's span (sum over its
  //     groups of the group's longest task — the dependency graph's
  //     critical path; no schedule finishes sooner),
  //   - stats.warps = the sum of per-chain peak widths (every chain can
  //     keep its widest group in flight at once — the same "all tasks of
  //     a launch are concurrent" convention the barrier kernels use),
  //     times the chain's cooperative width (ChainWidth),
  //   - occupied_slot_rounds = block imbalance over chain spans, chains
  //     packed into blocks of kWarpsPerBlock warp slots
  //     (PersistentKernelShape),
  //   - one kernel_launch_us per recorded kernel instead of one per step.
  // Everything is assembled from per-chain accumulators merged in chain
  // order, so results are byte-identical at any host width.

  /// Chain body: runs the whole chain `chain`, issuing its warp-tasks
  /// through the ChainContext. `worker` identifies the executing host
  /// thread in [0, max_workers()). The body may only mutate (a) state
  /// owned by its chain, (b) scratch owned by `worker`, and (c) pre-sized
  /// per-chain output slots.
  using ChainBody =
      std::function<void(std::uint64_t chain, ChainContext&, std::uint32_t worker)>;

  /// Aggregation of one pipelined execution's kernel slot, ready to be
  /// recorded with record_pipelined or record_round.
  struct PipelinedKernel {
    KernelStats stats;
    std::uint64_t num_tasks = 0;
  };

  /// Runs `num_chains` chain bodies (concurrently when an executor is
  /// attached) and returns one PipelinedKernel per kernel slot in
  /// [0, num_kernels). Does not touch streams or the kernel log — callers
  /// record each slot where (and at the SM fraction) it belongs.
  ///
  /// `cancel` is a run-level cooperative stop: once it fires, chains that
  /// have not yet started are skipped (their slots contribute nothing).
  /// Which chains had already begun depends on the host schedule, so
  /// callers only pass an armed token when the whole execution's output
  /// will be discarded; chains that must stop *deterministically* poll
  /// their own per-instance token inside the body instead.
  ///
  /// `widths` gives every chain one warp, or, for chains that run one
  /// warp-task per step, its cooperative width among `num_chains` chains.
  std::vector<PipelinedKernel> execute_pipelined(
      std::uint32_t num_kernels, std::uint64_t num_chains,
      const ChainBody& body, CancelToken cancel, ChainWidth widths);

  /// Every task that one (kernel slot, group) of a wave execution ran,
  /// across its chains.
  struct Wave {
    std::uint32_t kernel = 0;
    std::uint64_t group = 0;
    PipelinedKernel tasks;
  };

  /// Runs the chains as execute_pipelined does, one warp per task, but
  /// shapes each non-empty (kernel slot, group) as one step-barrier
  /// kernel: the sum of its tasks' stats, with the intra-block imbalance
  /// of their rounds packed into blocks of kWarpsPerBlock in chain order,
  /// then in each chain's task order. Returns the waves in (group,
  /// kernel) order, each ready for record_pipelined.
  std::vector<Wave> execute_waves(std::uint32_t num_kernels,
                                  std::uint64_t num_chains,
                                  const ChainBody& body, CancelToken cancel);

  /// Records one fused kernel of a pipelined execution, or one wave, on
  /// `stream`. A kernel that ran no task lasts zero seconds.
  const KernelRecord& record_pipelined(std::string name, Stream& stream,
                                       double resource_fraction,
                                       const PipelinedKernel& kernel);

  /// One fused kernel window of a residency round (record_round).
  struct RoundWindow {
    std::string name;
    std::size_t stream = 0;  ///< device stream index (stream())
    /// When the window's bytes are on the device. The window opens at
    /// max(ready, the stream's ready time).
    double ready = 0.0;
    /// Its claim on free SMs. A window of weight 0 takes none and lasts
    /// zero seconds (a window that ran no task).
    double weight = 0.0;
    PipelinedKernel kernel;
  };

  /// Places a residency round's windows on the SM ledger and records
  /// them, in window order; returns the new kernel_log() records. At every
  /// instant, the SMs that windows of earlier rounds do not hold are
  /// water-filled across the round's open, unfinished windows in
  /// proportion to their weights, each capped at the SMs its thread
  /// blocks can occupy (CostModel::occupiable_fraction(warps)). When a
  /// window ends, its SMs go to the round's windows still running:
  /// processor sharing, each window progressing at rate
  /// 1 / kernel_seconds(stats, grant). Windows of earlier rounds keep
  /// their placement, so the device never grants more SMs than it has.
  /// A window alone on an idle device lasts exactly kernel_seconds at its
  /// cap. Each record's resource_fraction is its time-mean grant; the
  /// ledger keeps the piecewise grants (sm_ledger()). The windows must be
  /// on distinct streams (checked).
  std::span<const KernelRecord> record_round(
      std::span<const RoundWindow> windows);

  /// Forgets the ledger segments that end by `horizon`, the caller's
  /// promise that no later window opens before it: they never constrain a
  /// placement again, so record_round's cost stays flat over long runs.
  /// A later window opening before the horizon is a caller error
  /// (checked). sm_ledger() keeps every segment.
  void prune_ledger(double horizon);

  /// Piecewise SM grants of every window record_round placed, in
  /// placement order.
  const std::vector<SmSegment>& sm_ledger() const noexcept {
    return sm_log_;
  }

  /// Simulated seconds of host-to-device copy time overlapping kernel
  /// execution, over the log suffixes starting at `transfer_log_begin` /
  /// `kernel_log_begin` (pass the log sizes captured at run start). The
  /// transfer/compute overlap a run achieved — 0 on a fully serialized
  /// schedule.
  double transfer_kernel_overlap(std::size_t transfer_log_begin,
                                 std::size_t kernel_log_begin) const;

  /// Convenience: single-slot pipelined launch recorded on the default
  /// stream at full SM share. `cancel` and `widths` follow
  /// execute_pipelined.
  const KernelRecord& run_pipeline(std::string name, std::uint64_t num_chains,
                                   const ChainBody& body,
                                   CancelToken cancel, ChainWidth widths);

  /// Simulated time at which all streams drain.
  double synchronize() const noexcept;

  const std::vector<KernelRecord>& kernel_log() const noexcept {
    return kernel_log_;
  }
  /// Durations of logged kernels whose name starts with `prefix`.
  std::vector<double> kernel_durations(std::string_view prefix) const;
  /// Sum of stats across all logged kernels.
  KernelStats total_stats() const;

  /// Clears logs and rewinds all stream clocks (bench reuse). The
  /// executor (and its parked workers) persists.
  void reset();

  /// Runs the device audit (set_device_audit), if any, on the logs.
  ~Device();

 private:
  ThreadPool* executor() const noexcept {
    return shared_pool_ ? shared_pool_.get() : owned_pool_.get();
  }
  /// Runs every chain's body on its context (concurrently when an
  /// executor is attached), skipping chains not yet started once
  /// `cancel` fires.
  void run_chains(std::vector<ChainContext>& chains, const ChainBody& body,
                  const CancelToken& cancel);

  std::uint32_t id_;
  CostModel cost_;
  TransferEngine transfer_;
  std::vector<Stream> streams_;
  std::vector<KernelRecord> kernel_log_;
  std::vector<SmSegment> sm_log_;
  /// The sm_log_ segments record_round still has to place around: those
  /// that end after ledger_horizon_.
  std::vector<SmSegment> sm_live_;
  double ledger_horizon_ = 0.0;
  std::shared_ptr<ThreadPool> shared_pool_;
  std::unique_ptr<ThreadPool> owned_pool_;
};

/// A process-wide check run on every Device's logs as the device is
/// reset or destroyed: how a harness or test audits the simulated
/// timelines of devices that Sampler and Service build privately (for
/// example with check_timeline). Install it before devices exist; it is
/// called from whichever thread drops the device, and may not throw.
using DeviceAudit = void (*)(const Device&);
/// Installs `audit` (nullptr removes it).
void set_device_audit(DeviceAudit audit) noexcept;

}  // namespace csaw::sim
