#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "util/check.hpp"

namespace csaw {

/// Collects the sampled edges of every instance. One instance's sample is
/// an edge list (the subgraph for traversal sampling; the path for random
/// walks). Append order is deterministic given the engine's task order.
///
/// Streaming: a completion callback (set_completion_callback) subscribes
/// to per-instance completion — the engines call complete(i) exactly once
/// per instance whose sample is final: from the executing chain in the
/// in-memory engine, at a residency-round boundary in the out-of-memory
/// engine, and from an end-of-run sweep otherwise. The
/// subscriber may move the row out (the service's streaming bridge does,
/// keeping peak memory bounded by the chunk budget instead of the whole
/// run) or leave it in place. Without a subscriber complete() is a single
/// branch, so the buffered path pays nothing.
class SampleStore {
 public:
  /// Fired once per completed instance with a mutable reference to that
  /// instance's final edge list. May be invoked concurrently from host
  /// worker threads (pipelined chains finish independently) and may block
  /// (a bounded consumer queue exerting backpressure) — blocking parks
  /// the producing chain between simulated steps and never changes the
  /// bytes or the simulated timeline.
  using CompletionCallback =
      std::function<void(std::uint32_t instance, std::vector<Edge>& edges)>;

  explicit SampleStore(std::uint32_t num_instances = 0) {
    reset(num_instances);
  }

  void reset(std::uint32_t num_instances) {
    edges_.assign(num_instances, {});
    if (on_complete_) completed_.assign(num_instances, 0);
  }

  /// Installs (or with a default-constructed callback, clears) the
  /// completion subscription and resets the fired-flags. The engines
  /// clear it before returning a store to the caller, so a store never
  /// outlives what its callback captured.
  void set_completion_callback(CompletionCallback on_complete) {
    on_complete_ = std::move(on_complete);
    if (on_complete_) {
      completed_.assign(edges_.size(), 0);
    } else {
      completed_.clear();
    }
  }

  /// True while a completion callback is installed.
  bool streaming() const noexcept { return on_complete_ != nullptr; }

  /// Marks instance `instance` complete and fires the callback. No-op
  /// without a subscriber; firing twice for one instance is a bug
  /// (checked).
  void complete(std::uint32_t instance) {
    if (!on_complete_) return;
    CSAW_CHECK_MSG(!completed_[instance],
                   "instance " << instance << " completed twice");
    completed_[instance] = 1;
    on_complete_(instance, edges_[instance]);
  }

  /// Whether complete(instance) has fired (always false while no
  /// callback is installed).
  bool completed(std::uint32_t instance) const noexcept {
    return on_complete_ != nullptr && completed_[instance] != 0;
  }

  std::uint32_t num_instances() const noexcept {
    return static_cast<std::uint32_t>(edges_.size());
  }

  void add(std::uint32_t instance, const Edge& e) {
    edges_[instance].push_back(e);
  }

  /// Moves one instance's whole edge list out, leaving that row empty.
  /// The service tier splits a coalesced batch's store into per-request
  /// stores with row moves instead of per-edge copies.
  std::vector<Edge> take(std::uint32_t instance) {
    return std::move(edges_[instance]);
  }

  /// Replaces one instance's edge list (the receiving half of take()).
  void put(std::uint32_t instance, std::vector<Edge> edges) {
    edges_[instance] = std::move(edges);
  }

  const std::vector<Edge>& edges(std::uint32_t instance) const {
    return edges_[instance];
  }

  std::uint64_t total_edges() const noexcept {
    std::uint64_t total = 0;
    for (const auto& per_instance : edges_) total += per_instance.size();
    return total;
  }

  /// Average sampled edges per instance (the paper reports 1,703 per
  /// instance for its standard setup).
  double average_edges() const noexcept {
    return edges_.empty() ? 0.0
                          : static_cast<double>(total_edges()) /
                                static_cast<double>(edges_.size());
  }

 private:
  std::vector<std::vector<Edge>> edges_;
  CompletionCallback on_complete_;
  /// One fired-flag per instance while a callback is installed (complete
  /// must fire exactly once per instance).
  std::vector<char> completed_;
};

}  // namespace csaw
