#pragma once

#include <cstdint>
#include <vector>

#include "core/frontier_queue.hpp"

namespace csaw {

/// A batch of walkers moving from one shard to another. Envelopes are
/// the unit of simulated transfer: `bytes()` feeds
/// `CostModel::transfer_seconds`, and the fault injector scripts
/// drops/delays per delivery attempt. The router's exchange runs on one
/// thread, so a shard's ingress list receives envelopes in source-shard
/// order and needs no reordering; the host struct therefore carries only
/// the destination.
struct WalkerEnvelope {
  /// Simulated wire header: source, destination, sequence number and
  /// walker count, as a real transport would send them.
  static constexpr std::uint64_t kHeaderBytes = 16;
  /// Simulated wire size of one walker record: the full resume state
  /// of a walk-shaped instance — its global Philox tag (which keys every
  /// draw, so the receiving shard continues the exact stream the sender
  /// would have used), the current and previous vertices, the seed
  /// (restart/jump policies return to it), the depth of the next step
  /// and the run-local instance index, six 4-byte words. The host
  /// carries each walker as the FrontierEntry step_entry takes; its
  /// seed stays in the run's seed list, and its RNG slot is always 0.
  static constexpr std::uint64_t kWalkerBytes = 24;

  std::uint32_t to = 0;
  std::vector<FrontierEntry> walkers;

  std::uint64_t bytes() const noexcept {
    return kHeaderBytes + walkers.size() * kWalkerBytes;
  }
};

}  // namespace csaw
