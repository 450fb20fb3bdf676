#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace csaw {

/// Dartboard (rejection) selection, paper §II-B Fig. 1(c): throw a 2-D
/// dart (candidate index, height); accept when the height falls under the
/// candidate's bias bar. Cheap per trial but may reject many times on
/// skewed distributions — the reason C-SAW prefers ITS, and the method
/// KnightKing falls back to for dynamic biases (§VII).
class Dartboard {
 public:
  /// Builds over a bias vector; `biases` must stay alive while drawing.
  explicit Dartboard(std::span<const float> biases);

  /// One accepted draw. `trials` (if given) accumulates the number of
  /// darts thrown including the accepted one.
  std::uint32_t draw(Xoshiro256& rng, std::uint64_t* trials = nullptr) const;

  /// k distinct draws by rejection on top of the dartboard (selected
  /// candidates also reject). Requires k <= #positive-bias candidates.
  std::vector<std::uint32_t> draw_distinct(std::uint32_t k, Xoshiro256& rng,
                                           std::uint64_t* trials = nullptr) const;

 private:
  std::span<const float> biases_;
  float max_bias_ = 0.0f;
  std::uint32_t positive_ = 0;
};

}  // namespace csaw
