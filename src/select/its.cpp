#include "select/its.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace csaw {

ItsSelector::ItsSelector(SelectConfig config)
    : config_(config), detector_(make_detector(config.detector)) {}

std::vector<std::uint32_t> ItsSelector::select(
    std::span<const float> biases, std::uint32_t k, const CounterStream& rng,
    SelectCoords coords, sim::WarpContext& warp,
    std::span<const std::uint32_t> pre_selected) {
  std::vector<std::uint32_t> out;
  if (k == 0 || biases.empty()) return out;

  charge_rebuild(warp, biases.size());
  ctps_.build(biases);

  if (config_.with_replacement) {
    out.reserve(k);
    select_with_replacement(ctps_.upper(), k, rng, coords, warp, out);
    return out;
  }

  // Sampling without replacement can never pick more candidates than are
  // selectable: positive bias and not already in the instance's sample.
  std::size_t blocked = 0;
  for (std::uint32_t idx : pre_selected) {
    CSAW_CHECK(idx < biases.size());
    if (biases[idx] > 0.0f) ++blocked;
  }
  CSAW_CHECK(blocked <= ctps_.positive_candidates());
  k = static_cast<std::uint32_t>(
      std::min<std::size_t>(k, ctps_.positive_candidates() - blocked));
  if (k == 0) return out;
  out.reserve(k);
  detector_->reset(biases.size());
  for (std::uint32_t idx : pre_selected) detector_->preload(idx);

  if (config_.policy == CollisionPolicy::kUpdatedSampling) {
    select_updated(biases, k, pre_selected, rng, coords, warp, out);
  } else {
    select_repeated_or_bipartite(k, rng, coords, warp, out);
  }
  return out;
}

std::vector<std::uint32_t> ItsSelector::select_prebuilt(
    std::span<const float> upper, std::uint32_t k, const CounterStream& rng,
    SelectCoords coords, sim::WarpContext& warp) {
  CSAW_CHECK_MSG(config_.with_replacement,
                 "a prebuilt CTPS serves only sampling with replacement");
  std::vector<std::uint32_t> out;
  if (k == 0 || upper.empty()) return out;
  charge_rebuild(warp, upper.size());
  out.reserve(k);
  select_with_replacement(upper, k, rng, coords, warp, out);
  return out;
}

void ItsSelector::charge_rebuild(sim::WarpContext& warp, std::size_t n) {
  // Fig. 5 lines 6-7: warp Kogge-Stone prefix sum + normalization. The
  // warp also streams the bias array from global memory once.
  warp.charge_global(n * sizeof(float));
  Ctps::charge_build(warp, n);
}

void ItsSelector::select_with_replacement(std::span<const float> upper,
                                          std::uint32_t k,
                                          const CounterStream& rng,
                                          SelectCoords coords,
                                          sim::WarpContext& warp,
                                          std::vector<std::uint32_t>& out) {
  // Random-walk style: k independent draws, no collision handling. Lanes
  // draw in waves of 32.
  for (std::uint32_t base = 0; base < k; base += sim::WarpContext::kLanes) {
    const std::uint32_t wave =
        std::min(sim::WarpContext::kLanes, k - base);
    warp.charge_rounds(1);  // RNG generation
    warp.charge_binary_search(upper.size() + 1, wave);
    for (std::uint32_t lane = 0; lane < wave; ++lane) {
      const double r =
          rng.uniform(coords.instance, coords.depth,
                      coords.slot_base + base + lane, /*attempt=*/0);
      out.push_back(static_cast<std::uint32_t>(ctps_locate(upper, r)));
      warp.count_select_iterations(1);
    }
  }
  warp.count_sampled(k);
}

void ItsSelector::select_repeated_or_bipartite(
    std::uint32_t k, const CounterStream& rng, SelectCoords coords,
    sim::WarpContext& warp, std::vector<std::uint32_t>& out) {
  const bool bipartite =
      config_.policy == CollisionPolicy::kBipartiteRegionSearch;
  const bool linear_detector =
      config_.detector == DetectorKind::kLinearSearch;

  lanes_.assign(k, Lane{});
  for (std::uint32_t i = 0; i < k; ++i) {
    lanes_[i].slot = coords.slot_base + i;
  }

  std::uint32_t remaining = k;
  std::uint32_t round = 0;
  // Scratch for lanes that collided in phase 1 of the current round.
  struct Collided {
    std::uint32_t lane;
    double r_prime;
    std::size_t region;
  };
  std::vector<Collided> collided;

  while (remaining > 0) {
    CSAW_CHECK_MSG(++round <= config_.max_rounds,
                   "SELECT exceeded max_rounds; bias vector degenerate?");
    collided.clear();

    // --- Phase 1 (lock-step): each unfinished lane draws a fresh random
    // number, binary-searches the CTPS, and probes the detector.
    std::uint32_t active = 0;
    for (const Lane& lane : lanes_) active += lane.done ? 0 : 1;
    warp.charge_rounds(1);  // RNG
    warp.charge_binary_search(ctps_.f().size(), active);
    if (linear_detector) {
      // Shared-memory scan: lock-step cost is the current list length.
      warp.charge_rounds(
          std::max<std::uint64_t>(detector_->selected().size(), 1));
    }
    warp.charge_rounds(1);  // probe/update

    for (std::uint32_t i = 0; i < k; ++i) {
      Lane& lane = lanes_[i];
      if (lane.done) continue;
      const double r_prime = rng.uniform(coords.instance, coords.depth,
                                         lane.slot, lane.attempt++);
      const std::size_t idx = ctps_.locate(r_prime);
      warp.count_select_iterations(1);
      if (!detector_->test_and_record(idx, warp)) {
        lane.done = true;
        lane.result = static_cast<std::uint32_t>(idx);
        --remaining;
      } else if (bipartite) {
        collided.push_back(Collided{i, r_prime, idx});
      }
    }
    warp.end_atomic_round();

    if (collided.empty()) continue;

    // --- Phase 2 (bipartite region search, paper Fig. 6(c) steps 3-5):
    // transform the random number around the pre-selected region and probe
    // once more. Lanes that collide again retry with a fresh draw next
    // round (step "go to 1").
    warp.charge_rounds(4);  // lambda/delta computation and comparisons
    warp.charge_binary_search(ctps_.f().size(),
                              static_cast<std::uint32_t>(collided.size()));
    if (linear_detector) {
      warp.charge_rounds(
          std::max<std::uint64_t>(detector_->selected().size(), 1));
    }
    warp.charge_rounds(1);  // probe/update

    for (const Collided& c : collided) {
      Lane& lane = lanes_[c.lane];
      const double l = ctps_.lo(c.region);
      const double h = ctps_.hi(c.region);
      const double delta = h - l;
      const double keep = 1.0 - delta;
      if (keep <= 0.0) continue;  // everything else has zero width; retry

      // Theorem 2 inverted: map an updated-space draw through
      // r = u/lambda (lambda = 1/(1-delta)), shifting past the selected
      // region when landing to its right. The draw u is the colliding r'
      // rescaled from [l, h) back to uniform [0, 1) — see SelectConfig::
      // literal_bipartite_transform for why the paper's printed variant
      // (u = r') is kept only as an option.
      // Clamp: float-stored CTPS boundaries can sit one ULP off the
      // double-valued draw, making the rescaled u marginally exit [0,1).
      const double u = std::clamp(config_.literal_bipartite_transform
                                      ? c.r_prime
                                      : (c.r_prime - l) / delta,
                                  0.0, std::nextafter(1.0, 0.0));
      double r = u * keep;
      if (r >= l) r += delta;
      if (r >= 1.0) r = std::nextafter(1.0, 0.0);

      const std::size_t idx = ctps_.locate(r);
      if (idx == c.region) continue;  // float tie landed back; retry
      if (!detector_->test_and_record(idx, warp)) {
        lane.done = true;
        lane.result = static_cast<std::uint32_t>(idx);
        --remaining;
      }
    }
    warp.end_atomic_round();
  }

  // Emit in lane order: deterministic and matches the per-thread layout a
  // CUDA kernel would write to its output slots.
  for (const Lane& lane : lanes_) out.push_back(lane.result);
  warp.count_sampled(k);
}

void ItsSelector::select_updated(std::span<const float> biases,
                                 std::uint32_t k,
                                 std::span<const std::uint32_t> pre_selected,
                                 const CounterStream& rng,
                                 SelectCoords coords, sim::WarpContext& warp,
                                 std::vector<std::uint32_t>& out) {
  // Fig. 6(b): correct but serial — every selection zeroes the chosen bias
  // and rebuilds the CTPS, paying a full prefix-sum pass per pick. The
  // instance's earlier selections are zeroed up front.
  updated_biases_.assign(biases.begin(), biases.end());
  for (std::uint32_t idx : pre_selected) updated_biases_[idx] = 0.0f;
  const bool rebuild_first = !pre_selected.empty();
  for (std::uint32_t i = 0; i < k; ++i) {
    if (i > 0 || rebuild_first) {
      charge_rebuild(warp, updated_biases_.size());
      ctps_.build(updated_biases_);
    }
    const double r = rng.uniform(coords.instance, coords.depth,
                                 coords.slot_base + i, /*attempt=*/0);
    warp.charge_rounds(1);
    const std::size_t idx = ctps_.locate(r, &warp);
    warp.count_select_iterations(1);
    // locate() skips zero-width regions, so idx is always fresh.
    updated_biases_[idx] = 0.0f;
    out.push_back(static_cast<std::uint32_t>(idx));
  }
  warp.count_sampled(k);
}

}  // namespace csaw
