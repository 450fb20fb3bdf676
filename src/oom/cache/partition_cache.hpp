#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/run_result.hpp"
#include "gpusim/device.hpp"
#include "telemetry/trace.hpp"
#include "oom/partitioned_graph.hpp"
#include "util/fault_injector.hpp"

namespace csaw {

/// Terminal paged-I/O failure: every attempt of a partition copy
/// (1 + retries, bounded by RetryPolicy::attempts) failed. The
/// cache rolls the partition back to kOnDisk before throwing, so the
/// error fails only the batch that needed the partition — the cache
/// stays consistent and the next run on the same graph proceeds.
class TransferError : public std::runtime_error {
 public:
  TransferError(std::uint32_t partition, std::uint32_t attempts,
                const std::string& what)
      : std::runtime_error(what), partition_(partition), attempts_(attempts) {}

  std::uint32_t partition() const noexcept { return partition_; }
  std::uint32_t attempts() const noexcept { return attempts_; }
  /// What the failed run's cache counted for it, the failed copy
  /// included: OomEngine::run fills it as the error leaves the run, since
  /// the failed run returns no RunResult. All zero when thrown elsewhere.
  const OomMetrics& paged() const noexcept { return paged_; }
  void set_paged(const OomMetrics& paged) noexcept { paged_ = paged; }

 private:
  std::uint32_t partition_;
  std::uint32_t attempts_;
  OomMetrics paged_;
};

/// Residency state of one graph partition in the demand-driven cache.
/// Transitions (all driven by the single engine thread that owns a run):
///
///   kOnDisk ──acquire──▶ kInUse          (demand load, pinned)
///   kOnDisk ──prefetch─▶ kLoading        (speculative load, unpinned)
///   kLoading ─acquire──▶ kInUse          (pin while the copy is in flight;
///                                         the kernel waits for ready_time)
///   kLoading ─settle───▶ kResident       (copy landed, nobody asked yet)
///   kResident ─acquire─▶ kInUse          (cache hit)
///   kInUse ──release───▶ kEvictable      (last pin dropped)
///   kEvictable ─acquire▶ kInUse          (cache hit)
///   kResident/kEvictable ─pin─▶ kInUse   (warm fill; unpin() restores
///                                         the state if unused)
///   kEvictable ─evict──▶ kOnDisk         (victim of a later load)
///   kResident ─evict───▶ kOnDisk         (prefetched but never used)
///
/// kInUse and kLoading partitions are never eviction victims.
enum class PartitionState : std::uint8_t {
  kOnDisk,     ///< adjacency payload lives only in host memory
  kLoading,    ///< a transfer is in flight (prefetch, not yet pinned)
  kResident,   ///< on device, never pinned since it landed
  kInUse,      ///< on device and pinned by the engine (pins > 0)
  kEvictable,  ///< on device, previously used, unpinned
};

/// Human-readable state name ("on_disk", "loading", ...).
std::string to_string(PartitionState state);

/// Monotonic counters of one cache's lifetime (a csaw::Service keeps one
/// cache per paged graph across batches, so hits accumulate across runs).
/// Each event is counted here once; OomEngine::run reports a run's
/// OomMetrics cache fields as the difference of these over the run
/// (since()).
struct CacheMetrics {
  std::uint64_t demand_loads = 0;    ///< acquire() found the partition on disk
  std::uint64_t prefetch_loads = 0;  ///< speculative transfers issued
  /// acquire() found it on device / in flight, or a fill pin's window ran
  std::uint64_t hits = 0;
  std::uint64_t evictions = 0;
  std::uint64_t transfers = 0;     ///< demand + prefetch copies that landed
  std::uint64_t bytes_loaded = 0;  ///< bytes of the copies that landed
  std::uint64_t transfer_faults = 0;   ///< injected copy failures observed
  std::uint64_t transfer_retries = 0;  ///< copies re-issued after a fault

  /// The OomMetrics paging counters of the events counted since `before`,
  /// an earlier snapshot of the same cache; every other field is zero.
  OomMetrics since(const CacheMetrics& before) const noexcept;
};

/// What a PartitionCache may hold at once. The service tier gives each
/// paged graph's cache a byte slice of the device budget; a Sampler's
/// private cache holds SamplerOptions::resident_partitions partitions,
/// whatever their size. A limit left at its default does not bind.
struct CacheLimits {
  /// Ceiling on the summed PartitionedGraph::bytes of resident partitions.
  std::uint64_t bytes = std::numeric_limits<std::uint64_t>::max();
  /// Ceiling on how many partitions are resident at once (>= 1).
  std::uint32_t partitions = std::numeric_limits<std::uint32_t>::max();
};

/// Demand-driven partition cache: the residency layer of the pipelined OOM
/// path. Unlike the barrier waves — which re-transfer every chosen
/// partition every scheduling round — the cache keeps partitions on the
/// simulated device across rounds, loads them on demand, prefetches the
/// scheduler's next pick while the current one computes, and evicts only
/// when its limits force it. A partition is admitted while it fits the
/// limits beside the resident ones; an empty cache admits any one
/// partition, so a partition larger than the byte budget still pages in,
/// alone.
///
/// Not thread-safe: a cache belongs to one engine run at a time. The
/// service tier shares one cache per paged graph across batches, which is
/// sound because same-graph batches never execute concurrently (the
/// dispatcher's single-writer guarantee).
///
/// Determinism: for walk-shaped specs the cache decides *when* bytes
/// move, never *which* bytes are sampled — samples are byte-identical
/// across limits, schedules and thread counts; only transfer counts,
/// kernel timing and therefore seps() vary. Branching specs are not: which
/// frontier entries share a residency round decides the children's slots,
/// so their samples can differ with the limits (ROADMAP.md open item 6).
class PartitionCache {
 public:
  /// Each partition on the device holds its own lane, the lowest one no
  /// other holds: device stream `lane` carries its copies and kernel
  /// windows, so the windows of a round never wait on each other's
  /// streams, and a prefetch rides a stream no computing partition uses
  /// (the link serializes transfers with each other only).
  PartitionCache(std::shared_ptr<const PartitionedGraph> parts,
                 CacheLimits limits);

  const PartitionedGraph& parts() const noexcept { return *parts_; }
  std::shared_ptr<const PartitionedGraph> parts_ptr() const noexcept {
    return parts_;
  }
  const CacheLimits& limits() const noexcept { return limits_; }
  const CacheMetrics& metrics() const noexcept { return metrics_; }

  PartitionState state(std::uint32_t p) const { return entries_.at(p).state; }
  bool on_device(std::uint32_t p) const {
    return entries_.at(p).state != PartitionState::kOnDisk;
  }
  /// Partitions on the device (any state but kOnDisk) and their bytes.
  std::uint32_t resident_count() const noexcept { return resident_count_; }
  std::uint64_t resident_bytes() const noexcept { return resident_bytes_; }
  /// The partition whose prefetch is in flight (kLoading), or kNone.
  std::uint32_t in_flight() const noexcept { return in_flight_; }
  static constexpr std::uint32_t kNone = ~0u;
  /// Device stream index partition p's transfers and kernels use. Only
  /// valid while p is on the device.
  std::uint32_t stream_index(std::uint32_t p) const;

  /// Whether partition p fits the limits beside `held_count` partitions
  /// of `held_bytes`: always when nothing is held, else within both
  /// limits. The engine plans a round's compute set with it, so every
  /// acquire of the set succeeds.
  bool admits(std::uint64_t held_bytes, std::uint32_t held_count,
              std::uint32_t p) const;

  /// Pins partition p for compute, demand-loading it if it is on disk
  /// (evicting victims until it fits). Returns the simulated
  /// time at which p's bytes are on the device — the earliest moment a
  /// kernel over p may start. `pending` (per-partition frontier entry
  /// counts) steers victim selection away from partitions with queued
  /// walkers.
  double acquire(std::uint32_t p, sim::Device& device,
                 std::span<const std::size_t> pending);

  /// Drops one pin of p; the last release makes it kEvictable.
  void release(std::uint32_t p);

  /// Pins on-device partition p (kResident or kEvictable, checked) for a
  /// round's warm fill: no transfer, and, unlike acquire(), no hit and no
  /// recency refresh, since the fill may find no walker there. Returns
  /// when p's bytes were on the device.
  double pin(std::uint32_t p);

  /// Drops a pin() pin. `used` (p's window processed at least one entry)
  /// counts the hit and refreshes the recency that pin() deferred; an
  /// unused pin leaves p as it was before pin().
  void unpin(std::uint32_t p, bool used);

  /// Speculatively loads partition p (unpinned, state kLoading) so a later
  /// acquire() finds it on device. Declines — returning false, with
  /// nothing evicted — when p is already on device, another prefetch is
  /// still in flight, or making room would require evicting a pinned or
  /// loading partition.
  bool prefetch(std::uint32_t p, sim::Device& device,
                std::span<const std::size_t> pending);

  /// Marks in-flight loads whose transfer completed by simulated time
  /// `now` as kResident. Call after each residency round with the round's
  /// end time.
  void settle(double now);

  /// Starts a run: rebases the cache onto a fresh device clock (every
  /// in-flight load is treated as landed and all ready times rewind to 0)
  /// and takes the run's handles. `injector` (or nullptr) and `policy`
  /// govern faulted copies (policy.attempts >= 1, checked); `trace` (or
  /// nullptr) records every partition copy as a "transfer" span, stamped
  /// with `batch`, with fault/retry instants inside it (host time only;
  /// simulated timing is unchanged). The Sampler builds one sim::Device
  /// per run, so a cache surviving across runs (the service tier) must
  /// begin_run() before reuse, and follows each batch's options and
  /// recorder. Requires no pins.
  void begin_run(std::shared_ptr<FaultInjector> injector = nullptr,
                 RetryPolicy policy = {},
                 telemetry::TraceRecorder* trace = nullptr,
                 std::uint64_t batch = 0);

  /// Sets the byte limit, evicting down to it if needed. Shrinking below
  /// the bytes of the pinned or loading partitions is a caller error
  /// (checked). The service tier calls this as paged graphs register and
  /// the per-graph device budget changes.
  void set_budget_bytes(std::uint64_t bytes);

  /// Exception-path recovery: drops every pin (pinned partitions become
  /// kEvictable) and marks in-flight loads kResident (their simulated
  /// copies complete regardless), so no partition is left kLoading and
  /// the next begin_run() succeeds. Called by RoundGuard on unwind —
  /// never on the normal path, where release()/settle() already did the
  /// equivalent with real completion times.
  void abort_round();

  /// RAII guard for one engine residency round: on destruction without
  /// commit() — i.e. an exception unwinding mid-round, after some
  /// partitions were acquired but before release()/settle() ran — it
  /// calls abort_round() so the cache never retains pins or a partition
  /// stuck kLoading (which would fail every later begin_run()).
  class RoundGuard {
   public:
    explicit RoundGuard(PartitionCache& cache) : cache_(&cache) {}
    RoundGuard(const RoundGuard&) = delete;
    RoundGuard& operator=(const RoundGuard&) = delete;
    ~RoundGuard() {
      if (cache_ != nullptr) cache_->abort_round();
    }
    /// The round completed normally; the guard stands down.
    void commit() noexcept { cache_ = nullptr; }

   private:
    PartitionCache* cache_;
  };

 private:
  struct Entry {
    PartitionState state = PartitionState::kOnDisk;
    std::uint32_t pins = 0;
    std::uint32_t lane = 0;     ///< valid while not kOnDisk
    double ready_time = 0.0;    ///< transfer completion (simulated seconds)
    std::uint64_t last_acquired = 0;  ///< acquire_clock_ at its last acquire
    PartitionState before_pin = PartitionState::kOnDisk;  ///< pin() only
  };

  /// Issues the host-to-device copy of partition p on its lane's stream,
  /// consulting the fault injector per attempt and retrying with
  /// exponential backoff up to the policy's attempt bound. Returns the
  /// completion time of the successful copy, or nullopt when every
  /// attempt failed (callers roll the partition back to kOnDisk).
  std::optional<double> issue_transfer(std::uint32_t p, sim::Device& device);
  /// Picks the eviction victim: kEvictable before kResident, then fewest
  /// pending walkers, then least recently acquired, then lowest id.
  /// Returns kNone when nothing on device may be evicted.
  std::uint32_t pick_victim(std::span<const std::size_t> pending) const;
  void evict(std::uint32_t victim);
  /// Evicts victims until p fits, then puts p on the device in the lowest
  /// free lane. Returns false, evicting nothing, when p cannot fit beside
  /// the pinned and loading partitions.
  bool admit(std::uint32_t p, std::span<const std::size_t> pending);
  /// Takes p off the device again after a failed load.
  void roll_back(std::uint32_t p);

  std::shared_ptr<const PartitionedGraph> parts_;
  CacheLimits limits_;
  std::vector<Entry> entries_;      // indexed by partition id
  std::vector<bool> lane_used_;     // indexed by lane in [0, num_parts)
  std::uint32_t resident_count_ = 0;
  std::uint64_t resident_bytes_ = 0;
  std::uint32_t in_flight_ = kNone;  ///< at most one speculative load
  std::uint64_t acquire_clock_ = 0;  ///< counts acquire() calls
  CacheMetrics metrics_;
  std::shared_ptr<FaultInjector> injector_;
  RetryPolicy policy_;
  telemetry::TraceRecorder* trace_ = nullptr;
  std::uint64_t trace_batch_ = 0;
};

}  // namespace csaw
