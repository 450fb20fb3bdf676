#include "oom/cache/partition_scheduler.hpp"

#include <algorithm>

namespace csaw {

std::vector<std::uint32_t> PartitionScheduler::rank(
    std::span<const std::size_t> pending, const PartitionCache* cache) {
  std::vector<std::uint32_t> order;
  for (std::uint32_t p = 0; p < pending.size(); ++p) {
    if (pending[p] > 0) order.push_back(p);
  }
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (pending[a] != pending[b]) return pending[a] > pending[b];
              if (cache != nullptr &&
                  cache->on_device(a) != cache->on_device(b)) {
                return cache->on_device(a);  // resident breaks the tie
              }
              return a < b;
            });
  return order;
}

}  // namespace csaw
