#pragma once

// FNV-1a digests over the bit patterns of a simulated run: the pin tests
// compare them against constants captured from a known-good build, so any
// change to a kernel record, a clock or a sample shows up as one failing
// value.

#include <bit>
#include <cstdint>
#include <string_view>

#include "core/sample_store.hpp"
#include "gpusim/device.hpp"

namespace csaw::testing {

/// FNV-1a over little-endian bytes of each value added.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (v >> (8 * b)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) add(static_cast<std::uint64_t>(c));
  }
  std::uint64_t value() const { return hash_; }

  /// Every kernel record of `device`: name, stream, clock, share and each
  /// KernelStats field.
  void add_kernels(const sim::Device& device) {
    for (const sim::KernelRecord& k : device.kernel_log()) {
      add(k.name);
      add(static_cast<std::uint64_t>(k.stream_id));
      add(k.start);
      add(k.end);
      add(k.resource_fraction);
      sim::visit_kernel_stats(k.stats, [&](std::string_view name,
                                           std::uint64_t value) {
        add(name);
        add(value);
      });
    }
  }

  /// Every instance's edge count and edges, in instance order.
  void add_samples(const SampleStore& samples) {
    for (std::uint32_t i = 0; i < samples.num_instances(); ++i) {
      add(static_cast<std::uint64_t>(samples.edges(i).size()));
      for (const Edge& e : samples.edges(i)) {
        add(static_cast<std::uint64_t>(e.src));
        add(static_cast<std::uint64_t>(e.dst));
        add(static_cast<double>(e.weight));
      }
    }
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace csaw::testing
