#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace csaw {

/// Layout of a per-warp collision bitmap (paper §IV-B, Fig. 7).
///
/// The paper stores one bit per candidate vertex in 8-bit variables
/// (32-bit words would serialize more atomic CAS retries). Two layouts:
///  - Contiguous: bit i lives at byte i/8, position i%8 — adjacent
///    candidates share a byte, so adjacent lanes contend on the same
///    atomic variable.
///  - Strided: inspired by set-associative caches, bit i lives at byte
///    i % num_bytes, position i / num_bytes — adjacent candidates map to
///    different bytes, spreading atomic traffic.
enum class BitmapLayout { kContiguous, kStrided };

/// Fixed-capacity atomic bitmap over 8-bit words. `test_and_set` is the
/// only mutating operation the selection kernels need: it atomically marks
/// a candidate and reports whether it was already marked (a selection
/// collision).
class AtomicBitmap {
 public:
  AtomicBitmap(std::size_t bits, BitmapLayout layout);

  /// Resets all bits to zero and resizes to `bits` capacity. Reuses the
  /// allocation when possible (per-warp bitmaps are reused across the
  /// whole sampling run, matching the paper's preallocated design).
  void reset(std::size_t bits);

  /// Atomically sets bit `i`. Returns true if it was already set (i.e.
  /// this call collided with an earlier selection).
  bool test_and_set(std::size_t i) noexcept;

  /// Non-atomic read.
  bool test(std::size_t i) const noexcept;

  /// Which 8-bit variable bit `i` lives in — exposed so the warp simulator
  /// can detect same-word atomic contention between lanes.
  std::size_t word_index(std::size_t i) const noexcept;

  std::size_t size() const noexcept { return bits_; }
  BitmapLayout layout() const noexcept { return layout_; }

 private:
  struct Slot {
    std::size_t word;
    std::uint8_t mask;
  };
  Slot slot(std::size_t i) const noexcept;

  std::size_t bits_;
  BitmapLayout layout_;
  std::vector<std::atomic<std::uint8_t>> words_;
};

/// Plain (non-atomic) dynamic bitset for bookkeeping outside kernels.
class Bitset {
 public:
  explicit Bitset(std::size_t bits = 0) : bits_(bits), words_((bits + 63) / 64, 0) {}

  void resize(std::size_t bits) {
    bits_ = bits;
    words_.assign((bits + 63) / 64, 0);
  }
  void set(std::size_t i) noexcept {
    words_[i >> 6] |= (1ull << (i & 63));
  }
  void clear(std::size_t i) noexcept {
    words_[i >> 6] &= ~(1ull << (i & 63));
  }
  bool test(std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  std::size_t size() const noexcept { return bits_; }
  /// Number of set bits.
  std::size_t popcount() const noexcept;

 private:
  std::size_t bits_;
  std::vector<std::uint64_t> words_;
};

}  // namespace csaw
