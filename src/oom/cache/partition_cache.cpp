#include "oom/cache/partition_cache.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace csaw {

std::string to_string(PartitionState state) {
  switch (state) {
    case PartitionState::kOnDisk:
      return "on_disk";
    case PartitionState::kLoading:
      return "loading";
    case PartitionState::kResident:
      return "resident";
    case PartitionState::kInUse:
      return "in_use";
    case PartitionState::kEvictable:
      return "evictable";
  }
  return "unknown";
}

PartitionCache::PartitionCache(std::shared_ptr<const PartitionedGraph> parts,
                               std::uint32_t capacity,
                               std::uint32_t num_streams)
    : parts_(std::move(parts)),
      capacity_(capacity),
      num_streams_(std::max(num_streams, 1u)) {
  CSAW_CHECK(parts_ != nullptr);
  CSAW_CHECK_MSG(capacity_ >= 1, "a partition cache needs at least one slot");
  entries_.assign(parts_->num_parts(), Entry{});
  slot_used_.assign(capacity_, false);
}

std::uint32_t PartitionCache::stream_index(std::uint32_t p) const {
  const Entry& e = entries_.at(p);
  CSAW_CHECK_MSG(e.state != PartitionState::kOnDisk,
                 "partition " << p << " holds no cache slot");
  return e.slot % num_streams_;
}

std::optional<double> PartitionCache::issue_transfer(std::uint32_t p,
                                                     sim::Device& device,
                                                     OomMetrics* oom) {
  const std::uint64_t bytes = parts_->part(p).bytes();
  sim::Stream& stream = device.stream(entries_[p].slot % num_streams_);
  const std::string label = "partition " + std::to_string(p);

  // Transfer span: one per partition copy including all its retries;
  // fault/retry instants nest inside it by sequence order.
  std::uint64_t span = 0;
  if (trace_ != nullptr) {
    span = trace_->begin_span(
        "transfer", {{"partition", std::to_string(p)},
                     {"bytes", std::to_string(bytes)},
                     {"batch", std::to_string(trace_batch_)}});
  }

  double not_before = 0.0;
  for (std::uint32_t attempt = 0;; ++attempt) {
    const auto outcome = injector_ == nullptr
                             ? FaultInjector::Outcome::kOk
                             : injector_->next_attempt(p, attempt);
    if (outcome == FaultInjector::Outcome::kFail) {
      ++metrics_.transfer_faults;
      if (oom != nullptr) ++oom->transfer_faults;
      if (trace_ != nullptr) {
        trace_->instant("transfer_fault",
                        {{"partition", std::to_string(p)},
                         {"attempt", std::to_string(attempt)}});
      }
      // The failed copy occupies the link for its full modeled duration —
      // the fault is detected at what would have been completion.
      const double failed_at = device.transfer().host_to_device(
          stream, bytes, label + " [fault]", not_before);
      if (attempt + 1 >= policy_.attempts) {
        if (trace_ != nullptr) {
          trace_->end_span(span, "transfer",
                           {{"attempts", std::to_string(attempt + 1)},
                            {"outcome", "failed"}});
        }
        return std::nullopt;
      }
      ++metrics_.transfer_retries;
      if (oom != nullptr) ++oom->transfer_retries;
      if (trace_ != nullptr) {
        trace_->instant("transfer_retry",
                        {{"partition", std::to_string(p)},
                         {"attempt", std::to_string(attempt + 1)}});
      }
      // Exponential backoff: the retry may not start before the delay
      // elapses (the link is free for other streams' copies meanwhile).
      not_before = failed_at + policy_.backoff_before(attempt + 1);
      continue;
    }

    const double scale = outcome == FaultInjector::Outcome::kSlow
                             ? injector_->slow_factor()
                             : 1.0;
    const double ready =
        device.transfer().host_to_device(stream, bytes, label, not_before,
                                         scale);
    metrics_.bytes_loaded += bytes;
    if (oom != nullptr) {
      ++oom->partition_transfers;
      oom->bytes_transferred += bytes;
    }
    if (trace_ != nullptr) {
      trace_->end_span(span, "transfer",
                       {{"attempts", std::to_string(attempt + 1)},
                        {"ready_sim_s", std::to_string(ready)}});
    }
    return ready;
  }
}

std::uint32_t PartitionCache::pick_victim(
    std::span<const std::size_t> pending) const {
  constexpr std::uint32_t kNone = ~0u;
  std::uint32_t best = kNone;
  auto better = [&](std::uint32_t candidate) {
    if (best == kNone) return true;
    const Entry& c = entries_[candidate];
    const Entry& b = entries_[best];
    // kEvictable (already used, walkers gone) beats kResident (a prefetch
    // nothing consumed yet).
    if (c.state != b.state) return c.state == PartitionState::kEvictable;
    const std::size_t cp = candidate < pending.size() ? pending[candidate] : 0;
    const std::size_t bp = best < pending.size() ? pending[best] : 0;
    if (cp != bp) return cp < bp;  // fewest queued walkers first
    return candidate < best;
  };
  for (std::uint32_t p = 0; p < entries_.size(); ++p) {
    const PartitionState s = entries_[p].state;
    if (s != PartitionState::kEvictable && s != PartitionState::kResident) {
      continue;  // never evict pinned or in-flight partitions
    }
    if (better(p)) best = p;
  }
  return best;
}

void PartitionCache::evict(std::uint32_t victim) {
  Entry& e = entries_[victim];
  CSAW_CHECK(e.state == PartitionState::kEvictable ||
             e.state == PartitionState::kResident);
  slot_used_[e.slot] = false;
  e = Entry{};
  --resident_count_;
  ++metrics_.evictions;
}

bool PartitionCache::take_slot(std::span<const std::size_t> pending,
                               std::uint32_t& slot) {
  if (resident_count_ >= capacity_) {
    const std::uint32_t victim = pick_victim(pending);
    if (victim == ~0u) return false;
    evict(victim);
  }
  for (std::uint32_t s = 0; s < capacity_; ++s) {
    if (!slot_used_[s]) {
      slot_used_[s] = true;
      slot = s;
      return true;
    }
  }
  CSAW_CHECK_MSG(false, "slot accounting out of sync with resident count");
  return false;
}

double PartitionCache::acquire(std::uint32_t p, sim::Device& device,
                               std::span<const std::size_t> pending,
                               OomMetrics* oom) {
  CSAW_CHECK(p < entries_.size());
  Entry& e = entries_[p];
  switch (e.state) {
    case PartitionState::kLoading:
      load_in_flight_ = false;
      [[fallthrough]];
    case PartitionState::kResident:
    case PartitionState::kEvictable:
      ++metrics_.hits;
      e.state = PartitionState::kInUse;
      ++e.pins;
      return e.ready_time;
    case PartitionState::kInUse:
      ++metrics_.hits;
      ++e.pins;
      return e.ready_time;
    case PartitionState::kOnDisk:
      break;
  }

  std::uint32_t slot = 0;
  CSAW_CHECK_MSG(take_slot(pending, slot),
                 "cannot acquire partition "
                     << p << ": all " << capacity_
                     << " cache slots are pinned or loading");
  e.slot = slot;
  ++resident_count_;
  ++metrics_.demand_loads;
  const std::optional<double> ready = issue_transfer(p, device, oom);
  if (!ready.has_value()) {
    // Terminal copy failure: roll the slot back so the partition is
    // simply on disk again — nothing pinned, nothing kLoading — before
    // failing the batch that needed it.
    slot_used_[e.slot] = false;
    e = Entry{};
    --resident_count_;
    throw TransferError(
        p, policy_.attempts,
        "partition " + std::to_string(p) + " transfer failed after " +
            std::to_string(policy_.attempts) + " attempt(s)");
  }
  e.ready_time = *ready;
  e.state = PartitionState::kInUse;
  e.pins = 1;
  return e.ready_time;
}

void PartitionCache::release(std::uint32_t p) {
  Entry& e = entries_.at(p);
  CSAW_CHECK_MSG(e.state == PartitionState::kInUse && e.pins > 0,
                 "release of partition " << p << " in state "
                                         << to_string(e.state));
  if (--e.pins == 0) e.state = PartitionState::kEvictable;
}

bool PartitionCache::prefetch(std::uint32_t p, sim::Device& device,
                              std::span<const std::size_t> pending,
                              OomMetrics* oom) {
  CSAW_CHECK(p < entries_.size());
  Entry& e = entries_[p];
  if (e.state != PartitionState::kOnDisk) return false;  // already on device
  if (load_in_flight_) return false;  // one speculative copy at a time
  std::uint32_t slot = 0;
  if (!take_slot(pending, slot)) return false;
  e.slot = slot;
  ++resident_count_;
  ++metrics_.prefetch_loads;
  const std::optional<double> ready = issue_transfer(p, device, oom);
  if (!ready.has_value()) {
    // A failed speculative load is benign: roll back and decline — a
    // later acquire() will demand-load (and get a fresh fault site).
    slot_used_[e.slot] = false;
    e = Entry{};
    --resident_count_;
    return false;
  }
  e.ready_time = *ready;
  e.state = PartitionState::kLoading;
  load_in_flight_ = true;
  return true;
}

void PartitionCache::settle(double now) {
  for (Entry& e : entries_) {
    if (e.state == PartitionState::kLoading && e.ready_time <= now) {
      e.state = PartitionState::kResident;
      load_in_flight_ = false;
    }
  }
}

void PartitionCache::set_fault_policy(
    std::shared_ptr<FaultInjector> injector, RetryPolicy policy) {
  CSAW_CHECK_MSG(policy.attempts >= 1,
                 "transfer retry policy needs at least one attempt");
  injector_ = std::move(injector);
  policy_ = policy;
}

void PartitionCache::set_trace(telemetry::TraceRecorder* trace,
                               std::uint64_t batch) {
  trace_ = trace;
  trace_batch_ = batch;
}

void PartitionCache::abort_round() {
  for (Entry& e : entries_) {
    if (e.state == PartitionState::kInUse) {
      e.pins = 0;
      e.state = PartitionState::kEvictable;
    } else if (e.state == PartitionState::kLoading) {
      e.state = PartitionState::kResident;
    }
  }
  load_in_flight_ = false;
}

void PartitionCache::begin_run() {
  for (Entry& e : entries_) {
    CSAW_CHECK_MSG(e.pins == 0, "begin_run with a pinned partition");
    if (e.state == PartitionState::kLoading) {
      e.state = PartitionState::kResident;
    }
    e.ready_time = 0.0;  // fresh device, fresh clock
  }
  load_in_flight_ = false;
}

void PartitionCache::set_capacity(std::uint32_t new_capacity) {
  CSAW_CHECK_MSG(new_capacity >= 1,
                 "a partition cache needs at least one slot");
  if (new_capacity == capacity_) return;
  while (resident_count_ > new_capacity) {
    const std::uint32_t victim = pick_victim({});
    CSAW_CHECK_MSG(victim != ~0u,
                   "cannot shrink cache to " << new_capacity << " slots: "
                                             << resident_count_
                                             << " partitions pinned/loading");
    evict(victim);
  }
  // Repack surviving slots into [0, new_capacity) in partition-id order so
  // slot ids stay dense (stream mapping only needs stability within a
  // round, and nothing is pinned across set_capacity calls in practice).
  capacity_ = new_capacity;
  slot_used_.assign(capacity_, false);
  std::uint32_t next = 0;
  for (Entry& e : entries_) {
    if (e.state == PartitionState::kOnDisk) continue;
    e.slot = next++;
    slot_used_[e.slot] = true;
  }
}

}  // namespace csaw
