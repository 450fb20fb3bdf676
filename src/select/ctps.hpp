#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/warp.hpp"

namespace csaw {

/// What normalizing one bias vector into CTPS boundaries produced.
struct CtpsPrefix {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Candidates with strictly positive bias.
  std::size_t positive = 0;
  /// First bias that is negative or not finite (the prefix stops there);
  /// kNone when every bias is usable.
  std::size_t bad_bias = kNone;
  /// Sum of the biases, accumulated in double.
  double total = 0.0;
  /// True when the boundaries were written: every bias is usable and the
  /// total is positive and normalizable in float.
  bool normalized = false;
};

/// The CTPS arithmetic, shared by Ctps::build and the per-graph rows of
/// a static EDGEBIAS (core/static_ctps.hpp) so both produce the same
/// bytes: writes the normalized inclusive prefix F[1..n] of `biases`
/// into `upper` (same size; F[0] = 0 is implied) and reports what it
/// found. `biases` and `upper` may be the same span (an in-place build).
/// Never throws: the caller decides what a rejection means.
CtpsPrefix ctps_prefix(std::span<const float> biases,
                       std::span<float> upper) noexcept;

/// Finds the candidate whose region contains r in [0, 1), given the
/// region upper boundaries F[1..n] that ctps_prefix wrote: binary search
/// skipping zero-width (zero-bias) regions.
std::size_t ctps_locate(std::span<const float> upper, double r);

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

  /// Charges what build() charges `warp` for `n` candidates: the warp
  /// Kogge-Stone scan and the normalizing division pass.
  static void charge_build(sim::WarpContext& warp, std::size_t n);

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
  /// Region upper boundaries F[1..n].
  std::span<const float> upper() const noexcept {
    return f().subspan(f_.empty() ? 0 : 1);
  }

 private:
  std::vector<float> f_;       // n+1 normalized prefix values
  std::size_t positive_ = 0;
};

}  // namespace csaw
