#include "select/ctps.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/check.hpp"

namespace csaw {
namespace {

// The rejections are cold and out of line: Ctps::build reaches them only
// after ctps_prefix, whose loop therefore contains no call.

/// Names why bias `i` is unusable.
[[noreturn, gnu::cold, gnu::noinline]] void reject_bias(float bias,
                                                         std::size_t i) {
  std::ostringstream os;
  if (std::isfinite(bias)) {
    os << "negative bias " << bias << " at candidate " << i;
  } else {
    os << "non-finite bias " << bias << " at candidate " << i;
  }
  detail::check_fail("bias is finite and non-negative", __FILE__, __LINE__,
                     os.str());
}

/// Names why the bias total cannot be normalized into a CTPS.
[[noreturn, gnu::cold, gnu::noinline]] void reject_total(double total) {
  std::ostringstream os;
  if (total <= 0.0) {
    os << "all candidate biases are zero";
  } else if (total > std::numeric_limits<float>::max()) {
    os << "bias prefix sum " << total << " overflows float";
  } else {
    os << "bias total " << total << " is too small to normalize in float";
  }
  detail::check_fail("bias total is positive and normalizable in float",
                     __FILE__, __LINE__, os.str());
}

}  // namespace

CtpsPrefix ctps_prefix(std::span<const float> biases,
                       std::span<float> upper) noexcept {
  CtpsPrefix out;
  // Locals, not fields of `out`, so the running sum and count stay in
  // registers.
  std::size_t positive = 0;
  double acc = 0.0;
  for (std::size_t i = 0; i < biases.size(); ++i) {
    // NaN fails both comparisons.
    if (!(biases[i] >= 0.0f &&
          biases[i] <= std::numeric_limits<float>::max())) {
      out.bad_bias = i;
      return out;
    }
    if (biases[i] > 0.0f) ++positive;
    acc += biases[i];
    upper[i] = static_cast<float>(acc);
  }
  out.positive = positive;
  out.total = acc;
  // The prefix is non-decreasing, so a total that fits in float keeps
  // every stored prefix finite and F monotone.
  const auto inv = static_cast<float>(1.0 / acc);
  if (!(acc > 0.0 && acc <= std::numeric_limits<float>::max() &&
        std::isfinite(inv))) {
    return out;
  }
  for (float& f : upper) f *= inv;
  upper.back() = 1.0f;  // guard against rounding drift at the top end
  out.normalized = true;
  return out;
}

std::size_t ctps_locate(std::span<const float> upper, double r) {
  CSAW_CHECK(!upper.empty());
  CSAW_CHECK_MSG(r >= 0.0 && r < 1.0, "random number out of [0,1): " << r);
  const std::size_t n = upper.size();
  const auto lo = [&](std::size_t k) { return k == 0 ? 0.0f : upper[k - 1]; };

  // First region whose upper boundary exceeds r: F[k] <= r < F[k+1].
  const auto it =
      std::upper_bound(upper.begin(), upper.end(), static_cast<float>(r));
  auto k = static_cast<std::size_t>(std::distance(upper.begin(), it));
  k = std::min(k, n - 1);

  // A zero-width region carries zero probability; r can only land on its
  // boundary through floating-point ties. Walk to the nearest real region.
  while (k + 1 < n && upper[k] <= lo(k)) ++k;
  while (k > 0 && upper[k] <= lo(k)) --k;
  CSAW_CHECK_MSG(upper[k] > lo(k), "no positive-width region found");
  return k;
}

void Ctps::build(std::span<const float> biases, sim::WarpContext* warp) {
  CSAW_CHECK_MSG(!biases.empty(), "CTPS over empty candidate pool");
  f_.resize(biases.size() + 1);
  f_[0] = 0.0f;
  const CtpsPrefix prefix =
      ctps_prefix(biases, std::span<float>(f_).subspan(1));
  if (prefix.bad_bias != CtpsPrefix::kNone) {
    reject_bias(biases[prefix.bad_bias], prefix.bad_bias);
  }
  if (!prefix.normalized) reject_total(prefix.total);
  positive_ = prefix.positive;
  if (warp != nullptr) charge_build(*warp, biases.size());
}

void Ctps::charge_build(sim::WarpContext& warp, std::size_t n) {
  // The GPU kernel computes the same array with a warp Kogge-Stone scan
  // followed by a normalizing division pass (Fig. 5 lines 6-7), both
  // loops over the pool's 32-lane tiles.
  warp.charge_scan(n);
  warp.charge_tiles(n, 1);
}

std::size_t Ctps::locate(double r, sim::WarpContext* warp) const {
  CSAW_CHECK(!empty());
  if (warp != nullptr) warp->charge_binary_search(f_.size(), 1);
  return ctps_locate(upper(), r);
}

}  // namespace csaw
