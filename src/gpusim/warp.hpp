#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/cost_model.hpp"
#include "util/bitmap.hpp"

namespace csaw::sim {

/// Execution context of one 32-lane warp. Kernel bodies receive a
/// WarpContext and do their real work on the host while reporting the
/// events a CUDA warp would generate; the context accumulates them into
/// the kernel's stats.
///
/// The two modeling rules that matter for fidelity:
///  - **Lock-step divergence:** when lanes iterate different trip counts,
///    the warp pays for the *maximum* (predicated-off lanes still occupy
///    the issue slot). Use `charge_diverged_rounds`.
///  - **Atomic conflicts:** lanes of one lock-step round hitting the same
///    8-bit bitmap word serialize; report word indices through
///    `atomic_test_and_set` so conflicts are counted.
class WarpContext {
 public:
  static constexpr std::uint32_t kLanes = 32;

  explicit WarpContext(KernelStats& stats) noexcept
      : stats_(&stats), rounds_at_start_(stats.lockstep_rounds) {
    ++stats_->warps;
  }

  WarpContext(const WarpContext&) = delete;
  WarpContext& operator=(const WarpContext&) = delete;

  /// On retirement the warp reports its own round count so the kernel's
  /// critical path (longest warp) is known.
  ~WarpContext() {
    const std::uint64_t mine = stats_->lockstep_rounds - rounds_at_start_;
    stats_->max_warp_rounds = std::max(stats_->max_warp_rounds, mine);
  }

  /// Charges `rounds` warp-wide instruction rounds (ALU/control).
  void charge_rounds(std::uint64_t rounds) noexcept {
    stats_->lockstep_rounds += rounds;
  }

  /// Charges rounds where per-lane trip counts diverge: the warp executes
  /// max(per-lane) rounds. Also charges one round per iteration for the
  /// loop bookkeeping.
  void charge_diverged_rounds(std::span<const std::uint32_t> lane_trip_counts);

  /// Charges a global-memory access of `bytes` total across the warp
  /// (coalescing is the caller's concern: pass the actual bytes moved).
  void charge_global(std::uint64_t bytes) noexcept {
    stats_->global_bytes += bytes;
    ++stats_->lockstep_rounds;
  }

  /// Performs an atomic test-and-set on `bitmap` bit `i` on behalf of one
  /// lane, charging the atomic plus conflict serialization if another lane
  /// already touched the same word this round. Call `end_atomic_round`
  /// when the lock-step round completes.
  bool atomic_test_and_set(AtomicBitmap& bitmap, std::size_t i);
  void end_atomic_round() noexcept { round_words_.clear(); }

  // Algorithm-level counters (Figs. 11-12).
  void count_select_iterations(std::uint64_t n = 1) noexcept {
    stats_->select_iterations += n;
  }
  void count_searches(std::uint64_t n = 1) noexcept {
    stats_->collision_searches += n;
  }
  void count_collisions(std::uint64_t n = 1) noexcept {
    stats_->collisions += n;
  }
  void count_sampled(std::uint64_t n = 1) noexcept {
    stats_->sampled_vertices += n;
  }

  /// Warp-level inclusive prefix sum (Kogge-Stone over 32-lane chunks),
  /// charging scan rounds and the traffic to read/write the array.
  void scan_inclusive(std::span<float> data);

  /// Charges exactly what `scan_inclusive` charges for an `n`-element
  /// array, in closed form and without scanning anything: per 32-lane
  /// chunk, log2(32) = 5 Kogge-Stone rounds plus one carry round, and the
  /// array streamed in and its prefix streamed out.
  void charge_scan(std::size_t n) noexcept {
    constexpr std::uint64_t kRoundsPerChunk = std::countr_zero(kLanes) + 1;
    stats_->lockstep_rounds += kRoundsPerChunk * ((n + kLanes - 1) / kLanes);
    stats_->global_bytes += 2 * n * sizeof(float);
  }

  /// Per-lane binary search cost over a CTPS of length `n` for
  /// `active_lanes` lanes (lock-step: everyone pays ceil(log2 n) rounds).
  void charge_binary_search(std::size_t n, std::uint32_t active_lanes);

  const KernelStats& stats() const noexcept { return *stats_; }

 private:
  KernelStats* stats_;
  std::uint64_t rounds_at_start_;
  /// Words touched by atomics in the current lock-step round.
  std::vector<std::size_t> round_words_;
};

}  // namespace csaw::sim
