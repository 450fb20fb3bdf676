#include "oom/cache/partition_cache.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace csaw {

OomMetrics CacheMetrics::since(const CacheMetrics& before) const noexcept {
  OomMetrics m;
  m.partition_transfers = transfers - before.transfers;
  m.bytes_transferred = bytes_loaded - before.bytes_loaded;
  m.cache_hits = hits - before.hits;
  m.cache_evictions = evictions - before.evictions;
  m.prefetch_transfers = prefetch_loads - before.prefetch_loads;
  m.transfer_faults = transfer_faults - before.transfer_faults;
  m.transfer_retries = transfer_retries - before.transfer_retries;
  return m;
}

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
                               CacheLimits limits)
    : parts_(std::move(parts)), limits_(limits) {
  CSAW_CHECK(parts_ != nullptr);
  CSAW_CHECK_MSG(limits_.partitions >= 1,
                 "a partition cache must hold at least one partition");
  entries_.assign(parts_->num_parts(), Entry{});
  lane_used_.assign(parts_->num_parts(), false);
}

std::uint32_t PartitionCache::stream_index(std::uint32_t p) const {
  const Entry& e = entries_.at(p);
  CSAW_CHECK_MSG(e.state != PartitionState::kOnDisk,
                 "partition " << p << " is not on the device");
  return e.lane;
}

bool PartitionCache::admits(std::uint64_t held_bytes,
                            std::uint32_t held_count, std::uint32_t p) const {
  if (held_count == 0) return true;
  return held_count < limits_.partitions && held_bytes <= limits_.bytes &&
         parts_->bytes(p) <= limits_.bytes - held_bytes;
}

std::optional<double> PartitionCache::issue_transfer(std::uint32_t p,
                                                     sim::Device& device) {
  const std::uint64_t bytes = parts_->part(p).bytes();
  sim::Stream& stream = device.stream(entries_[p].lane);
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
    ++metrics_.transfers;
    metrics_.bytes_loaded += bytes;
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
    // Least recently acquired next: the lowest id would be the hub
    // partition 0 of a vertex-range partitioning, the largest and hottest.
    if (c.last_acquired != b.last_acquired) {
      return c.last_acquired < b.last_acquired;
    }
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
  roll_back(victim);
  ++metrics_.evictions;
}

void PartitionCache::roll_back(std::uint32_t p) {
  Entry& e = entries_[p];
  lane_used_[e.lane] = false;
  e = Entry{};
  --resident_count_;
  resident_bytes_ -= parts_->bytes(p);
}

bool PartitionCache::admit(std::uint32_t p,
                           std::span<const std::size_t> pending) {
  // Dry run first: only pinned and loading partitions stay whatever is
  // evicted, so p fits after evicting iff it fits beside them.
  std::uint64_t kept_bytes = 0;
  std::uint32_t kept_count = 0;
  for (std::uint32_t q = 0; q < entries_.size(); ++q) {
    const PartitionState s = entries_[q].state;
    if (s == PartitionState::kInUse || s == PartitionState::kLoading) {
      kept_bytes += parts_->bytes(q);
      ++kept_count;
    }
  }
  if (!admits(kept_bytes, kept_count, p)) return false;
  while (!admits(resident_bytes_, resident_count_, p)) {
    evict(pick_victim(pending));
  }
  Entry& e = entries_[p];
  e.lane = static_cast<std::uint32_t>(
      std::find(lane_used_.begin(), lane_used_.end(), false) -
      lane_used_.begin());
  lane_used_[e.lane] = true;
  ++resident_count_;
  resident_bytes_ += parts_->bytes(p);
  return true;
}

double PartitionCache::acquire(std::uint32_t p, sim::Device& device,
                               std::span<const std::size_t> pending) {
  CSAW_CHECK(p < entries_.size());
  Entry& e = entries_[p];
  switch (e.state) {
    case PartitionState::kLoading:
      in_flight_ = kNone;
      [[fallthrough]];
    case PartitionState::kResident:
    case PartitionState::kEvictable:
      e.state = PartitionState::kInUse;
      [[fallthrough]];
    case PartitionState::kInUse:
      ++metrics_.hits;
      break;
    case PartitionState::kOnDisk: {
      CSAW_CHECK_MSG(admit(p, pending),
                     "cannot acquire partition "
                         << p << ": the pinned and loading partitions "
                         << "leave no room for its " << parts_->bytes(p)
                         << " bytes");
      ++metrics_.demand_loads;
      const std::optional<double> ready = issue_transfer(p, device);
      if (!ready.has_value()) {
        // Terminal copy failure: roll the load back so the partition is
        // simply on disk again — nothing pinned, nothing kLoading —
        // before failing the batch that needed it.
        roll_back(p);
        throw TransferError(
            p, policy_.attempts,
            "partition " + std::to_string(p) + " transfer failed after " +
                std::to_string(policy_.attempts) + " attempt(s)");
      }
      e.ready_time = *ready;
      e.state = PartitionState::kInUse;
      break;
    }
  }
  ++e.pins;
  e.last_acquired = ++acquire_clock_;
  return e.ready_time;
}

void PartitionCache::release(std::uint32_t p) {
  Entry& e = entries_.at(p);
  CSAW_CHECK_MSG(e.state == PartitionState::kInUse && e.pins > 0,
                 "release of partition " << p << " in state "
                                         << to_string(e.state));
  if (--e.pins == 0) e.state = PartitionState::kEvictable;
}

double PartitionCache::pin(std::uint32_t p) {
  Entry& e = entries_.at(p);
  CSAW_CHECK_MSG(e.state == PartitionState::kResident ||
                     e.state == PartitionState::kEvictable,
                 "fill pin of partition " << p << " in state "
                                          << to_string(e.state));
  e.before_pin = e.state;
  e.state = PartitionState::kInUse;
  e.pins = 1;
  return e.ready_time;
}

void PartitionCache::unpin(std::uint32_t p, bool used) {
  Entry& e = entries_.at(p);
  CSAW_CHECK_MSG(e.state == PartitionState::kInUse && e.pins == 1,
                 "unpin of partition " << p << " in state "
                                       << to_string(e.state));
  e.pins = 0;
  if (used) {
    ++metrics_.hits;
    e.last_acquired = ++acquire_clock_;
    e.state = PartitionState::kEvictable;
  } else {
    e.state = e.before_pin;
  }
}

bool PartitionCache::prefetch(std::uint32_t p, sim::Device& device,
                              std::span<const std::size_t> pending) {
  CSAW_CHECK(p < entries_.size());
  Entry& e = entries_[p];
  if (e.state != PartitionState::kOnDisk) return false;  // already on device
  if (in_flight_ != kNone) return false;  // one speculative copy at a time
  if (!admit(p, pending)) return false;
  ++metrics_.prefetch_loads;
  const std::optional<double> ready = issue_transfer(p, device);
  if (!ready.has_value()) {
    // A failed speculative load is benign: roll back and decline — a
    // later acquire() will demand-load (and get a fresh fault site).
    roll_back(p);
    return false;
  }
  e.ready_time = *ready;
  e.state = PartitionState::kLoading;
  in_flight_ = p;
  return true;
}

void PartitionCache::settle(double now) {
  for (Entry& e : entries_) {
    if (e.state == PartitionState::kLoading && e.ready_time <= now) {
      e.state = PartitionState::kResident;
      in_flight_ = kNone;
    }
  }
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
  in_flight_ = kNone;
}

void PartitionCache::begin_run(std::shared_ptr<FaultInjector> injector,
                               RetryPolicy policy,
                               telemetry::TraceRecorder* trace,
                               std::uint64_t batch) {
  CSAW_CHECK_MSG(policy.attempts >= 1,
                 "transfer retry policy needs at least one attempt");
  for (Entry& e : entries_) {
    CSAW_CHECK_MSG(e.pins == 0, "begin_run with a pinned partition");
    if (e.state == PartitionState::kLoading) {
      e.state = PartitionState::kResident;
    }
    e.ready_time = 0.0;  // fresh device, fresh clock
  }
  in_flight_ = kNone;
  injector_ = std::move(injector);
  policy_ = policy;
  trace_ = trace;
  trace_batch_ = batch;
}

void PartitionCache::set_budget_bytes(std::uint64_t bytes) {
  limits_.bytes = bytes;
  // A lone partition may exceed the budget (an empty cache admits any
  // one), so the loop stops there.
  while (resident_count_ > 1 && resident_bytes_ > limits_.bytes) {
    const std::uint32_t victim = pick_victim({});
    CSAW_CHECK_MSG(victim != kNone,
                   "cannot shrink cache to " << bytes << " bytes: "
                                             << resident_bytes_
                                             << " bytes pinned/loading");
    evict(victim);
  }
}

}  // namespace csaw
