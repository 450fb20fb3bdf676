#include "oom/partitioned_graph.hpp"

#include <algorithm>

namespace csaw {

PartitionedGraph::PartitionedGraph(const CsrGraph& graph,
                                   std::uint32_t num_parts)
    : graph_(&graph), partitioner_(graph, num_parts) {
  views_.reserve(num_parts);
  for (std::uint32_t p = 0; p < num_parts; ++p) {
    views_.push_back(
        std::make_unique<PartitionView>(graph, partitioner_.part(p)));
  }
}

std::uint64_t PartitionedGraph::total_bytes() const noexcept {
  std::uint64_t total = 0;
  for (std::uint32_t p = 0; p < num_parts(); ++p) total += bytes(p);
  return total;
}

std::uint64_t PartitionedGraph::max_partition_bytes() const noexcept {
  std::uint64_t largest = 0;
  for (std::uint32_t p = 0; p < num_parts(); ++p) {
    largest = std::max(largest, bytes(p));
  }
  return largest;
}

}  // namespace csaw
