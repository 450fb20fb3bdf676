#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "oom/cache/partition_cache.hpp"

namespace csaw {

/// Ranks partitions for the OOM round loop: which partitions the engine
/// should compute next, and which the cache should prefetch behind them.
/// The policy is the paper's workload-aware scheduling (§V-B) adapted to
/// a cache: most pending walkers first, then partitions already on the
/// device (a transfer saved beats a transfer issued), then lowest id for
/// determinism. Stateless — rank() is a pure function of the queue sizes
/// and cache contents, so the schedule is reproducible from the frontier
/// alone.
class PartitionScheduler {
 public:
  /// Returns the ids of all partitions with pending[p] > 0, best first.
  /// Empty result means the frontier is drained. A null `cache` holds
  /// nothing on the device (the barrier waves), so ties go to the lower
  /// id.
  static std::vector<std::uint32_t> rank(std::span<const std::size_t> pending,
                                         const PartitionCache* cache);
};

}  // namespace csaw
