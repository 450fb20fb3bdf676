#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "gpusim/warp.hpp"
#include "select/collision.hpp"
#include "select/ctps.hpp"
#include "util/rng.hpp"

namespace csaw {

/// How SELECT recovers when a thread picks an already-selected candidate
/// (paper §IV-B, Fig. 6).
enum class CollisionPolicy {
  /// Fig. 6(a): draw a fresh random number on the original CTPS until an
  /// unselected candidate is hit.
  kRepeatedSampling,
  /// Fig. 6(b): zero out the selected bias and recompute the CTPS, then
  /// the next draw cannot collide. Correct but pays a prefix-sum rebuild
  /// per selection.
  kUpdatedSampling,
  /// Fig. 6(c): C-SAW's bipartite region search — transform the random
  /// number instead of the CTPS (Theorem 2), retrying with a fresh draw
  /// only when the transformed number lands in yet another selected
  /// region.
  kBipartiteRegionSearch,
};

/// Logical coordinates of a SELECT call, addressing the counter-based RNG.
/// Uniqueness contract: no two SELECT calls in one run may share
/// (instance, depth, slot_base) — the engine encodes the frontier position
/// into slot_base. This is what makes sampling results independent of
/// execution order (see Philox4x32).
struct SelectCoords {
  std::uint32_t instance = 0;
  std::uint32_t depth = 0;
  std::uint32_t slot_base = 0;
};

struct SelectConfig {
  CollisionPolicy policy = CollisionPolicy::kBipartiteRegionSearch;
  DetectorKind detector = DetectorKind::kBitmapStrided;
  /// Random walks sample with replacement (a vertex may repeat); traversal
  /// based sampling must not (paper §II-A).
  bool with_replacement = false;
  /// Use the transform exactly as printed in the paper's algorithm box
  /// (r = r'/λ, reusing the colliding draw). Conditional on a collision,
  /// r' is uniform only on the selected region [l, h), so the literal
  /// transform covers just a δ(1-δ)-wide slice of the remaining space and
  /// skews probability toward regions adjacent to the pre-selected one.
  /// The default (false) first rescales u = (r'-l)/δ back to uniform
  /// [0,1), which makes the selection *exactly* the updated-sampling
  /// selection for draw u (Theorem 2) — matching the paper's proof rather
  /// than its pseudocode. Both variants are tested; see brs_test.cpp.
  bool literal_bipartite_transform = false;
  /// Safety valve for adversarial bias vectors.
  std::uint32_t max_rounds = 1u << 16;
};

/// Warp-centric inverse-transform-sampling SELECT (paper Fig. 5 with the
/// §IV-B optimizations). One instance of this class corresponds to the
/// per-warp scratch state (CTPS buffer, bitmap) that C-SAW preallocates in
/// device memory and reuses across the whole sampling run.
class ItsSelector {
 public:
  explicit ItsSelector(SelectConfig config);

  const SelectConfig& config() const noexcept { return config_; }

  /// Selects up to `k` candidates from `biases` (indices into the pool).
  /// Without replacement the result contains min(k, #selectable) distinct
  /// indices; with replacement exactly `k` draws.
  ///
  /// `pre_selected` lists candidate indices whose bitmap bits are already
  /// set from earlier SELECT calls of the same instance — the paper's
  /// persistent per-warp bitmap, which makes traversal-based sampling
  /// without replacement *across the whole sample*: draws landing on a
  /// pre-selected region collide and are re-resolved (repeated sampling)
  /// or transformed away (bipartite region search). Ignored with
  /// replacement.
  ///
  /// Lanes run in lock-step: the k selections proceed in parallel rounds,
  /// and costs are charged per warp-round, not per lane (divergence rule).
  std::vector<std::uint32_t> select(
      std::span<const float> biases, std::uint32_t k, const CounterStream& rng,
      SelectCoords coords, sim::WarpContext& warp,
      std::span<const std::uint32_t> pre_selected = {});

  /// With-replacement select() over a CTPS built ahead of time: `upper`
  /// holds the region upper boundaries F[1..n] that Ctps::build would
  /// compute from the pool's biases (the per-graph rows of a static
  /// EDGEBIAS). Charges `warp` exactly what select() charges for the same
  /// pool, rebuild included, and draws the same candidates; only the
  /// host skips the rebuild. Requires a with-replacement config.
  std::vector<std::uint32_t> select_prebuilt(std::span<const float> upper,
                                             std::uint32_t k,
                                             const CounterStream& rng,
                                             SelectCoords coords,
                                             sim::WarpContext& warp);

 private:
  struct Lane {
    std::uint32_t slot = 0;
    std::uint32_t attempt = 0;
    bool done = false;
    std::uint32_t result = 0;
  };

  /// Charges what rebuilding an n-candidate CTPS costs: the bias array
  /// streamed in from global memory, then Ctps::charge_build.
  static void charge_rebuild(sim::WarpContext& warp, std::size_t n);
  static void select_with_replacement(std::span<const float> upper,
                                      std::uint32_t k,
                                      const CounterStream& rng,
                                      SelectCoords coords,
                                      sim::WarpContext& warp,
                                      std::vector<std::uint32_t>& out);
  void select_repeated_or_bipartite(std::uint32_t k, const CounterStream& rng,
                                    SelectCoords coords,
                                    sim::WarpContext& warp,
                                    std::vector<std::uint32_t>& out);
  void select_updated(std::span<const float> biases, std::uint32_t k,
                      std::span<const std::uint32_t> pre_selected,
                      const CounterStream& rng, SelectCoords coords,
                      sim::WarpContext& warp,
                      std::vector<std::uint32_t>& out);

  SelectConfig config_;
  std::unique_ptr<CollisionDetector> detector_;
  Ctps ctps_;
  std::vector<float> updated_biases_;  // scratch for kUpdatedSampling
  std::vector<Lane> lanes_;            // scratch for lane-parallel rounds
};

}  // namespace csaw
