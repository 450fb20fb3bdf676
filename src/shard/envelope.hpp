#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "core/frontier_queue.hpp"

namespace csaw {

/// A batch of walkers moving from one shard to another. Envelopes are
/// the unit of simulated transfer: `bytes()` feeds
/// `CostModel::transfer_seconds`, and the fault injector scripts
/// drops/delays per delivery attempt. `seq` is assigned per source
/// shard so a receiver can restore a deterministic order no matter
/// how queue interleaving lands.
struct WalkerEnvelope {
  /// Simulated wire header: from/to/seq + walker count.
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

  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint64_t seq = 0;  ///< per-source-shard monotone sequence number
  std::vector<FrontierEntry> walkers;

  std::uint64_t bytes() const noexcept {
    return kHeaderBytes + walkers.size() * kWalkerBytes;
  }
};

/// Bounded MPSC envelope queue — the simulated ingress link of one
/// shard. Producers (other shards' exchange phases) push; the owning
/// shard drains everything at a round boundary. A full queue rejects
/// the push: the sender keeps the envelope in its outbox and retries
/// next round, which is how transport backpressure surfaces in the
/// simulation without ever blocking a host thread.
class EnvelopeQueue {
 public:
  explicit EnvelopeQueue(std::size_t capacity) : capacity_(capacity) {}

  /// False when the queue is at capacity (envelope not consumed).
  bool try_push(WalkerEnvelope&& env) {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.size() >= capacity_) return false;
    queue_.push_back(std::move(env));
    return true;
  }

  /// Remove and return everything queued. Arrival order is whatever
  /// the producers' interleaving produced — callers must re-sort by
  /// (from, seq) before acting on the contents.
  std::vector<WalkerEnvelope> drain() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<WalkerEnvelope> out(std::make_move_iterator(queue_.begin()),
                                    std::make_move_iterator(queue_.end()));
    queue_.clear();
    return out;
  }

  bool full() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size() >= capacity_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

  std::size_t capacity() const noexcept { return capacity_; }

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::deque<WalkerEnvelope> queue_;
};

}  // namespace csaw
