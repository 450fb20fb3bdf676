#include "core/run_result.hpp"

#include <algorithm>

namespace csaw {

std::string to_string(ExecutionMode mode) {
  switch (mode) {
    case ExecutionMode::kAuto:
      return "auto";
    case ExecutionMode::kInMemory:
      return "in-memory";
    case ExecutionMode::kOutOfMemory:
      return "out-of-memory";
    case ExecutionMode::kMultiDevice:
      return "multi-device";
  }
  return "unknown";
}

void OomMetrics::accumulate(const OomMetrics& other) noexcept {
  const double weight = static_cast<double>(scheduling_rounds) +
                        static_cast<double>(other.scheduling_rounds);
  if (weight > 0.0) {
    kernel_imbalance =
        (kernel_imbalance * static_cast<double>(scheduling_rounds) +
         other.kernel_imbalance *
             static_cast<double>(other.scheduling_rounds)) /
        weight;
  }
  partition_transfers += other.partition_transfers;
  bytes_transferred += other.bytes_transferred;
  scheduling_rounds += other.scheduling_rounds;
  kernel_launches += other.kernel_launches;
  cache_hits += other.cache_hits;
  cache_evictions += other.cache_evictions;
  prefetch_transfers += other.prefetch_transfers;
  transfer_overlap_seconds += other.transfer_overlap_seconds;
  transfer_faults += other.transfer_faults;
  transfer_retries += other.transfer_retries;
}

void ShardMetrics::accumulate(const ShardMetrics& other) {
  shards = std::max(shards, other.shards);
  rounds += other.rounds;
  forwarded_walkers += other.forwarded_walkers;
  envelopes += other.envelopes;
  bytes_forwarded += other.bytes_forwarded;
  transfer_seconds += other.transfer_seconds;
  envelope_faults += other.envelope_faults;
  envelope_retries += other.envelope_retries;
  if (steps_per_shard.size() < other.steps_per_shard.size()) {
    steps_per_shard.resize(other.steps_per_shard.size(), 0);
  }
  for (std::size_t s = 0; s < other.steps_per_shard.size(); ++s) {
    steps_per_shard[s] += other.steps_per_shard[s];
  }
  if (forwarded_per_shard.size() < other.forwarded_per_shard.size()) {
    forwarded_per_shard.resize(other.forwarded_per_shard.size(), 0);
  }
  for (std::size_t s = 0; s < other.forwarded_per_shard.size(); ++s) {
    forwarded_per_shard[s] += other.forwarded_per_shard[s];
  }
}

double sampled_edges_per_second(std::uint64_t edges, double seconds) {
  return seconds > 0.0 ? static_cast<double>(edges) / seconds : 0.0;
}

std::vector<std::vector<VertexId>> expand_single_seeds(
    std::span<const VertexId> seeds) {
  std::vector<std::vector<VertexId>> per_instance(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    per_instance[i] = {seeds[i]};
  }
  return per_instance;
}

bool single_seeded(std::span<const std::vector<VertexId>> seeds) noexcept {
  return std::all_of(seeds.begin(), seeds.end(),
                     [](const std::vector<VertexId>& list) {
                       return list.size() == 1;
                     });
}

}  // namespace csaw
