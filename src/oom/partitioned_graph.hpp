#pragma once

#include <memory>

#include "core/policy.hpp"
#include "graph/partition.hpp"

namespace csaw {

/// GraphView over one resident partition (paper §V-A); see the
/// partition constructor of GraphView for what it serves from where.
class PartitionView final : public GraphView {
 public:
  PartitionView(const CsrGraph& whole, const GraphPartition& part) noexcept
      : GraphView(whole, part) {}
};

/// The partitioned graph plus its views, built once per OOM run.
class PartitionedGraph {
 public:
  PartitionedGraph(const CsrGraph& graph, std::uint32_t num_parts);

  std::uint32_t num_parts() const noexcept {
    return partitioner_.num_parts();
  }
  std::uint32_t part_of(VertexId v) const noexcept {
    return partitioner_.part_of(v);
  }
  const GraphPartition& part(std::uint32_t p) const {
    return partitioner_.part(p);
  }
  const PartitionView& view(std::uint32_t p) const { return *views_[p]; }
  const CsrGraph& whole() const noexcept { return *graph_; }

  // --- Byte accounting for the demand-driven partition cache, whose
  // budget is in bytes.

  /// Device footprint of partition p's paged payload.
  std::uint64_t bytes(std::uint32_t p) const { return part(p).bytes(); }
  /// Sum of all partition footprints.
  std::uint64_t total_bytes() const noexcept;
  /// Footprint of the largest partition.
  std::uint64_t max_partition_bytes() const noexcept;

 private:
  const CsrGraph* graph_;
  RangePartitioner partitioner_;
  std::vector<std::unique_ptr<PartitionView>> views_;
};

}  // namespace csaw
