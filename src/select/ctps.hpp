#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/warp.hpp"

namespace csaw {

/// Cumulative Transition Probability Space (paper §II-B): the normalized
/// inclusive prefix sum F of the candidate biases, F[0] = 0, F[n] = 1.
/// Candidate k owns the half-open probability region [F[k], F[k+1]); by
/// Theorem 1 its width equals the transition probability b_k / Σb_i.
class Ctps {
 public:
  Ctps() = default;

  /// Builds the CTPS from `biases`, charging the warp-level Kogge-Stone
  /// scan and normalization to `warp` when provided. Biases must be
  /// finite and non-negative, with a positive total that fits in float;
  /// anything else throws CheckError naming the cause.
  void build(std::span<const float> biases, sim::WarpContext* warp = nullptr);

  std::size_t size() const noexcept {
    return f_.empty() ? 0 : f_.size() - 1;
  }
  bool empty() const noexcept { return size() == 0; }

  /// Number of candidates with strictly positive bias — the most vertices
  /// that can ever be selected without replacement.
  std::size_t positive_candidates() const noexcept { return positive_; }

  /// Region boundaries of candidate k.
  double lo(std::size_t k) const noexcept { return f_[k]; }
  double hi(std::size_t k) const noexcept { return f_[k + 1]; }

  /// Finds the candidate whose region contains r in [0, 1): binary search
  /// over F, skipping zero-width (zero-bias) regions. Charges one lane's
  /// lock-step binary-search cost when `warp` is given.
  std::size_t locate(double r, sim::WarpContext* warp = nullptr) const;

  std::span<const float> f() const noexcept { return f_; }

 private:
  std::vector<float> f_;       // n+1 normalized prefix values
  std::size_t positive_ = 0;
};

}  // namespace csaw
