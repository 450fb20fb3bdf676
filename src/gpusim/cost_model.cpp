#include "gpusim/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace csaw::sim {

void KernelStats::merge(const KernelStats& other) noexcept {
  lockstep_rounds += other.lockstep_rounds;
  global_bytes += other.global_bytes;
  atomic_ops += other.atomic_ops;
  atomic_conflicts += other.atomic_conflicts;
  warps += other.warps;
  max_warp_rounds = std::max(max_warp_rounds, other.max_warp_rounds);
  occupied_slot_rounds += other.occupied_slot_rounds;
  select_iterations += other.select_iterations;
  collision_searches += other.collision_searches;
  collisions += other.collisions;
  sampled_vertices += other.sampled_vertices;
}

double CostModel::kernel_seconds(const KernelStats& stats,
                                 double resource_fraction) const {
  CSAW_CHECK(resource_fraction > 0.0 && resource_fraction <= 1.0);
  if (stats.warps == 0) return 0.0;

  const double sms = static_cast<double>(params_.sm_count) * resource_fraction;
  const double warps = static_cast<double>(stats.warps);

  // Issue slots: one warp-instruction per SM per cycle, but an SM with no
  // warp assigned issues nothing, and an SM with too few warps stalls on
  // memory latency it cannot hide.
  const double busy_sms = std::min(sms, warps);
  const double warps_per_sm = warps / sms;
  const double stall_penalty =
      std::max(1.0, params_.latency_hiding_warps_per_sm / warps_per_sm);

  // Slot-rounds actually held on the SMs: block-imbalance bubbles count
  // (a block's warp slots stay occupied until its longest warp retires).
  const double effective_rounds = static_cast<double>(
      std::max(stats.occupied_slot_rounds, stats.lockstep_rounds));
  const double cycles =
      effective_rounds * params_.cycles_per_round / busy_sms * stall_penalty +
      static_cast<double>(stats.atomic_conflicts) *
          params_.atomic_conflict_cycles / busy_sms;
  const double compute = cycles / static_cast<double>(params_.clock_hz());

  const double memory = static_cast<double>(stats.global_bytes) /
                        (params_.hbm_gbytes_per_sec * 1e9 * resource_fraction);

  // Critical path: no amount of parallelism finishes before the
  // longest-running warp does.
  const double straggler = rounds_seconds(stats.max_warp_rounds);

  return std::max({compute, memory, straggler}) +
         params_.kernel_launch_us * 1e-6;
}

double CostModel::occupiable_fraction(std::uint64_t warps) const {
  if (warps == 0) return 1.0;
  const std::uint64_t blocks = (warps + kWarpsPerBlock - 1) / kWarpsPerBlock;
  return std::min(1.0, static_cast<double>(blocks) /
                           static_cast<double>(params_.sm_count));
}

std::vector<std::uint32_t> CostModel::cooperative_widths(
    std::uint64_t chains) const {
  const auto target = static_cast<std::uint64_t>(std::ceil(
      params_.latency_hiding_warps_per_sm * params_.sm_count));
  const std::uint64_t total =
      std::clamp(target, chains, kWarpsPerBlock * chains);
  std::vector<std::uint32_t> widths(chains);
  for (std::uint64_t c = 0; c < chains; ++c) {
    widths[c] = static_cast<std::uint32_t>(total / chains +
                                           (c < total % chains ? 1 : 0));
  }
  return widths;
}

double CostModel::critical_path_seconds(std::uint64_t rounds) const {
  return rounds_seconds(rounds) + params_.kernel_launch_us * 1e-6;
}

double CostModel::rounds_seconds(std::uint64_t rounds) const {
  return static_cast<double>(rounds) * params_.cycles_per_round /
         static_cast<double>(params_.clock_hz());
}

double CostModel::transfer_seconds(std::uint64_t bytes) const {
  return static_cast<double>(bytes) / (params_.link_gbytes_per_sec * 1e9) +
         params_.link_latency_us * 1e-6;
}

}  // namespace csaw::sim
