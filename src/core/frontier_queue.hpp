#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"

namespace csaw {

/// One entry of a frontier queue: the paper's §IV-B data structure — a
/// structure of three arrays (VertexID, InstanceID, CurrDepth). Batched
/// multi-instance sampling (§V-C) interleaves entries of many instances in
/// one queue and uses InstanceID to route results back.
struct FrontierEntry {
  VertexId vertex = 0;
  std::uint32_t instance = 0;
  /// Local (run) index of `instance`: the result row the entry's edges go
  /// to, carried so no step maps a global tag back to its row. Seeds
  /// stamp it; children inherit it.
  std::uint32_t local = 0;
  std::uint32_t depth = 0;
  /// Position of this vertex in its instance's frontier at `depth` —
  /// preserved so the counter-based RNG coordinates are identical no
  /// matter which partition/queue order processes the entry.
  std::uint32_t slot = 0;
  /// The vertex this entry was sampled from (walk context for node2vec /
  /// metropolis-hastings); kInvalidVertex for seeds.
  VertexId prev = kInvalidVertex;
};

/// Struct-of-arrays frontier queue.
class FrontierQueue {
 public:
  void push(const FrontierEntry& e) {
    vertices_.push_back(e.vertex);
    instances_.push_back(e.instance);
    locals_.push_back(e.local);
    depths_.push_back(e.depth);
    slots_.push_back(e.slot);
    prevs_.push_back(e.prev);
  }

  bool empty() const noexcept { return vertices_.empty(); }
  std::size_t size() const noexcept { return vertices_.size(); }

  FrontierEntry at(std::size_t i) const {
    return FrontierEntry{vertices_[i], instances_[i], locals_[i], depths_[i],
                         slots_[i], prevs_[i]};
  }

  void clear() noexcept {
    vertices_.clear();
    instances_.clear();
    locals_.clear();
    depths_.clear();
    slots_.clear();
    prevs_.clear();
  }

  /// Moves all entries out, leaving the queue empty.
  std::vector<FrontierEntry> drain();

  /// Memory footprint of the queue arrays (device-resident in the paper).
  std::uint64_t bytes() const noexcept {
    return vertices_.size() *
           (2 * sizeof(VertexId) + 4 * sizeof(std::uint32_t));
  }

 private:
  std::vector<VertexId> vertices_;
  std::vector<std::uint32_t> instances_;
  std::vector<std::uint32_t> locals_;
  std::vector<std::uint32_t> depths_;
  std::vector<std::uint32_t> slots_;
  std::vector<VertexId> prevs_;
};

}  // namespace csaw
