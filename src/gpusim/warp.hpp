#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/cost_model.hpp"
#include "util/bitmap.hpp"
#include "util/check.hpp"

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
///
/// A task may run `width` warps wide (a walker of a cooperative launch,
/// CostModel::cooperative_widths). Its loops over 32-edge neighbor tiles
/// (`charge_tiles`) then split across those warps; every other round is
/// the lead warp's alone. At width 1 a task's critical rounds are its
/// lock-step rounds.
class WarpContext {
 public:
  static constexpr std::uint32_t kLanes = 32;

  explicit WarpContext(KernelStats& stats, std::uint32_t width = 1) noexcept
      : stats_(&stats),
        width_(width),
        rounds_at_start_(stats.lockstep_rounds) {
    ++stats_->warps;
  }

  WarpContext(const WarpContext&) = delete;
  WarpContext& operator=(const WarpContext&) = delete;

  ~WarpContext() { retire(); }

  /// Ends the task (idempotent; the destructor calls it). The tile loops
  /// run on as many of the task's warps as make it shortest; when that
  /// is e > 1 warps, they combine their partial tiles in a block scan of
  /// the warp totals plus an offset add, ceil(log2 e) + 1 rounds on each
  /// of the e warps. Returns the task's critical rounds:
  ///   (non-tile rounds) + sum of ceil(tiles / e) * rounds_per_tile
  ///   + combine rounds,
  /// and reports them as this warp's span for the kernel's critical path.
  std::uint64_t retire() noexcept;

  /// Charges `rounds` warp-wide instruction rounds (ALU/control).
  void charge_rounds(std::uint64_t rounds) noexcept {
    stats_->lockstep_rounds += rounds;
  }

  /// Charges a loop over the 32-lane tiles of an `n`-element neighbor
  /// list, `rounds_per_tile` rounds each: the one charge a cooperative
  /// task splits across its warps. lockstep_rounds grows by the same
  /// tiles * rounds_per_tile at any width. A task wider than one warp
  /// runs all its tile loops over one list (a walk step's NeighborPool).
  void charge_tiles(std::size_t n, std::uint64_t rounds_per_tile) {
    const std::uint64_t tiles = (n + kLanes - 1) / kLanes;
    stats_->lockstep_rounds += tiles * rounds_per_tile;
    if (width_ == 1) return;  // the tiles are ordinary rounds
    CSAW_CHECK(pool_rounds_ == 0 || tiles == pool_tiles_);
    pool_tiles_ = tiles;
    pool_rounds_ += rounds_per_tile;
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
  void charge_scan(std::size_t n) {
    constexpr std::uint64_t kRoundsPerChunk = std::countr_zero(kLanes) + 1;
    charge_tiles(n, kRoundsPerChunk);
    stats_->global_bytes += 2 * n * sizeof(float);
  }

  /// Per-lane binary search cost over a CTPS of length `n` for
  /// `active_lanes` lanes (lock-step: everyone pays ceil(log2 n) rounds).
  void charge_binary_search(std::size_t n, std::uint32_t active_lanes);

  const KernelStats& stats() const noexcept { return *stats_; }

 private:
  KernelStats* stats_;
  std::uint32_t width_;
  bool retired_ = false;
  std::uint64_t rounds_at_start_;
  /// Tile loops of a task wider than one warp: the list's tile count and
  /// the loops' summed rounds per tile.
  std::uint64_t pool_tiles_ = 0;
  std::uint64_t pool_rounds_ = 0;
  std::uint64_t critical_rounds_ = 0;
  /// Words touched by atomics in the current lock-step round.
  std::vector<std::size_t> round_words_;
};

inline std::uint64_t WarpContext::retire() noexcept {
  if (retired_) return critical_rounds_;
  retired_ = true;
  const auto combine_rounds = [](std::uint64_t warps) -> std::uint64_t {
    return warps <= 1 ? 0 : std::bit_width(warps - 1) + 1;
  };
  critical_rounds_ = stats_->lockstep_rounds - rounds_at_start_;
  // A lone tile cannot split, and a split over more warps than tiles
  // only adds combine rounds, so most steps skip the search.
  if (width_ > 1 && pool_tiles_ > 1) {
    // The tile rounds leave the critical path; the best split's join it.
    // Constant bounds unroll the loop into multiplies and selects.
    const std::uint64_t tile_rounds = pool_tiles_ * pool_rounds_;
    const std::uint64_t most = std::min<std::uint64_t>(width_, pool_tiles_);
    std::uint64_t best = tile_rounds;
    std::uint64_t warps = 1;
    for (std::uint64_t e = 2; e <= kWarpsPerBlock && e <= most; ++e) {
      const std::uint64_t rounds =
          (pool_tiles_ + e - 1) / e * pool_rounds_ + combine_rounds(e);
      warps = rounds < best ? e : warps;
      best = std::min(best, rounds);
    }
    stats_->lockstep_rounds += combine_rounds(warps) * warps;
    critical_rounds_ += best - tile_rounds;
  }
  stats_->max_warp_rounds = std::max(stats_->max_warp_rounds, critical_rounds_);
  return critical_rounds_;
}

/// Runs `fn(WarpContext&)` as one warp-task `width` warps wide, charging
/// `stats`, and returns its critical rounds (WarpContext::retire) — the
/// per-task bookkeeping of every persistent launch.
template <typename Fn>
std::uint64_t run_warp_task(KernelStats& stats, std::uint32_t width,
                            Fn&& fn) {
  WarpContext warp(stats, width);
  fn(warp);
  return warp.retire();
}

}  // namespace csaw::sim
