#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace csaw::sim {

/// Warps per thread block (256 threads). A block runs on one SM and holds
/// its warp slots until its longest warp retires, so block shape sets
/// the occupancy bubbles Device charges, how many SMs a launch can
/// occupy (CostModel::occupiable_fraction) and the most warps one walker
/// of a cooperative launch gets (CostModel::cooperative_widths).
inline constexpr std::uint64_t kWarpsPerBlock = 8;

/// Parameters of the simulated device. Defaults approximate one NVIDIA
/// V100 of the paper's Summit nodes (16 GB HBM2 @ 900 GB/s, 80 SMs @
/// 1.38 GHz, NVLink2 host link at 50 GB/s).
///
/// The simulator is *analytic*: kernels execute for real on the host and
/// count the events a CUDA kernel would generate (lock-step warp
/// instruction rounds, global-memory bytes, atomics and same-word atomic
/// conflicts). This model converts those counts into time with a roofline:
///
///   compute = rounds / (issue slots actually usable)    [instruction-bound]
///   memory  = bytes / bandwidth                          [bandwidth-bound]
///   kernel  = max(compute, memory) + atomic serialization + launch cost
///
/// Underutilization is modeled through the issue-slot term: a kernel with
/// fewer warps than the device needs to keep its SMs busy pays a stall
/// penalty, which is what makes multi-GPU scaling flatten when instances
/// are scarce (paper Fig. 17, whose bench runs the one-warp-per-task
/// step-barrier kernels). The penalty is taken over the SMs a kernel is
/// granted, so the grant matters. The cached out-of-memory path places
/// its kernel windows on one SM ledger (Device::record_round): a window
/// is never granted more than the SMs its thread blocks can occupy
/// (CostModel::occupiable_fraction) nor more than earlier windows leave
/// free, and its grant changes as other windows start and end. A
/// pipelined walk launch of scarce walkers widens each walker toward the
/// latency-hiding target instead (CostModel::cooperative_widths), so it
/// stalls only when a block per walker still falls short.
struct DeviceParams {
  double clock_ghz = 1.38;
  std::uint32_t sm_count = 80;
  /// Average cycles one lock-step round costs per SM. Sampling kernels
  /// are chains of *dependent* memory operations (gather row_ptr -> load
  /// adjacency -> scan -> binary-search steps), so a round is not one
  /// issue slot but one partially-hidden memory latency. 40 cycles
  /// calibrates simulated kernel times into the millisecond range the
  /// paper reports for its Fig. 16 sweeps; ratios between configurations
  /// depend on counted rounds, not on this constant.
  double cycles_per_round = 40.0;
  /// Warps per SM needed to hide memory latency; below this the stall
  /// penalty grows proportionally. Sampling kernels are chains of
  /// dependent global loads, so they need deep warp occupancy (~20/SM)
  /// before adding devices stops helping — the mechanism behind the
  /// paper's flat 2k-instance scaling curve (Fig. 17(a)).
  double latency_hiding_warps_per_sm = 20.0;
  double hbm_gbytes_per_sec = 900.0;
  /// Host-to-device link (Summit NVLink2). PCIe-class systems would use
  /// ~12-16.
  double link_gbytes_per_sec = 50.0;
  double link_latency_us = 10.0;
  double kernel_launch_us = 5.0;
  /// Extra serialization cycles charged per same-word atomic conflict.
  double atomic_conflict_cycles = 24.0;
  /// Device memory capacity; partitions must fit (out-of-memory engine).
  std::uint64_t memory_bytes = 16ull << 30;

  std::uint64_t clock_hz() const noexcept {
    return static_cast<std::uint64_t>(clock_ghz * 1e9);
  }
};

/// Event counts accumulated by the warps of one kernel.
struct KernelStats {
  // Hardware-level events (drive the cost model).
  std::uint64_t lockstep_rounds = 0;   ///< warp-wide instructions issued
  std::uint64_t global_bytes = 0;      ///< global memory traffic
  std::uint64_t atomic_ops = 0;
  std::uint64_t atomic_conflicts = 0;  ///< same-word conflicts within a round
  std::uint64_t warps = 0;             ///< warp-tasks executed
  /// Rounds of the longest-running single warp — the kernel's critical
  /// path. Instance-grained work distribution (the paper's non-batched
  /// baseline) makes one warp carry a whole instance, so the straggler
  /// term dominates when workloads are skewed (§V-C).
  std::uint64_t max_warp_rounds = 0;
  /// Warp-slot rounds *occupied* including intra-block imbalance bubbles:
  /// a thread block's slots are held until its longest warp retires, so
  /// occupied >= lockstep_rounds, with the gap measuring wasted residency.
  /// Filled in by the Device as it shapes a kernel from its chains; 0
  /// means "not measured" and the cost model falls back to
  /// lockstep_rounds.
  std::uint64_t occupied_slot_rounds = 0;

  // Algorithm-level events (drive Figs. 11-12 and sanity checks).
  std::uint64_t select_iterations = 0;  ///< do-while trips in SELECT
  std::uint64_t collision_searches = 0; ///< collision-detection probes
  std::uint64_t collisions = 0;         ///< detected duplicate selections
  std::uint64_t sampled_vertices = 0;

  void merge(const KernelStats& other) noexcept;
};

/// Visits every KernelStats field as (name, value) — the single source of
/// truth exporters iterate (the service's metrics_text() turns each field
/// into a counter) so a new field added here shows up everywhere.
template <typename Fn>
void visit_kernel_stats(const KernelStats& stats, Fn&& fn) {
  fn("lockstep_rounds", stats.lockstep_rounds);
  fn("global_bytes", stats.global_bytes);
  fn("atomic_ops", stats.atomic_ops);
  fn("atomic_conflicts", stats.atomic_conflicts);
  fn("warps", stats.warps);
  fn("max_warp_rounds", stats.max_warp_rounds);
  fn("occupied_slot_rounds", stats.occupied_slot_rounds);
  fn("select_iterations", stats.select_iterations);
  fn("collision_searches", stats.collision_searches);
  fn("collisions", stats.collisions);
  fn("sampled_vertices", stats.sampled_vertices);
}

/// Converts kernel stats into simulated seconds.
class CostModel {
 public:
  explicit CostModel(DeviceParams params) : params_(params) {}

  const DeviceParams& params() const noexcept { return params_; }

  /// `resource_fraction` is the share of the device's SMs granted to this
  /// kernel (thread-block based workload balancing, paper §V-B assigns
  /// block counts proportional to active vertices).
  double kernel_seconds(const KernelStats& stats,
                        double resource_fraction = 1.0) const;

  /// The SM share a launch of `warps` warp slots can occupy: a thread
  /// block runs on one SM, so ceil(warps / kWarpsPerBlock) blocks fill at
  /// most that many SMs (at most all of them). kernel_seconds divides the
  /// warps over the SMs it is handed — a k-warp launch on s SMs pays a
  /// stall penalty of latency_hiding_warps_per_sm * s / k per round — so
  /// a grant beyond this would stall a few-warp kernel across idle SMs.
  /// Returns 1 when `warps` is 0 (kernel_seconds requires a positive
  /// fraction). Only the SM ledger caps its windows with this: the
  /// barrier waves, the in-memory pipelined launch and the shard router
  /// charge the share they are given.
  double occupiable_fraction(std::uint64_t warps) const;

  /// Warps a walk-shaped persistent launch of `chains` chains gives each
  /// chain, in chain order (the cooperative width rule). Hiding latency
  /// takes latency_hiding_warps_per_sm warps on every SM; a launch of
  /// fewer chains than that spreads the target T = clamp(target, chains,
  /// kWarpsPerBlock * chains) evenly over its chains, the first
  /// T mod chains taking one warp more, so a chain gets at most one full
  /// block. At chains >= target every width is 1. Each chain then splits
  /// its steps' neighbor tiles across its warps (WarpContext::charge_tiles).
  std::vector<std::uint32_t> cooperative_widths(std::uint64_t chains) const;

  /// Shortest duration of one launch whose longest chain of dependent
  /// lock-step rounds is `rounds`: the straggler term of kernel_seconds
  /// plus launch latency. Bounds a persistent kernel from below however
  /// many warps run beside that chain.
  double critical_path_seconds(std::uint64_t rounds) const;

  /// Host-to-device copy duration for `bytes` over the (exclusive) link.
  double transfer_seconds(std::uint64_t bytes) const;

 private:
  /// Simulated seconds of `rounds` dependent lock-step rounds on one SM.
  double rounds_seconds(std::uint64_t rounds) const;

  DeviceParams params_;
};

}  // namespace csaw::sim
