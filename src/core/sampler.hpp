#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>

#include "algorithms/registry.hpp"
#include "core/engine.hpp"
#include "core/options.hpp"
#include "core/policy.hpp"
#include "core/run_result.hpp"
#include "gpusim/device.hpp"

namespace csaw {

class PartitionCache;
class PartitionedGraph;

/// The resolved execution plan, fixed at Sampler construction.
struct ModeDecision {
  ExecutionMode requested = ExecutionMode::kAuto;
  /// Never kAuto.
  ExecutionMode resolved = ExecutionMode::kInMemory;
  /// Per-device backend: true = out-of-memory paging. Meaningful for
  /// kOutOfMemory (always true) and kMultiDevice.
  bool out_of_memory = false;
  /// Human-readable selection rationale, including fallbacks.
  std::string reason;
};

/// Non-empty when `spec` can only run on the in-memory engine, naming the
/// flag that requires whole-graph frontier state; empty when the spec is
/// out-of-memory capable.
std::string in_memory_only_reason(const SamplingSpec& spec);

/// Whether kAuto should page `graph`: options.memory_assumption, or under
/// kMeasure whether its CSR footprint exceeds memory_budget_fraction of
/// the device's memory. When `why` is given, the footprint text of the
/// decision reason is written to it.
bool graph_exceeds_budget(const CsrGraph& graph, const SamplerOptions& options,
                          std::ostream* why = nullptr);

/// The C-SAW front door: one facade over the in-memory engine (paper
/// §IV), the out-of-memory engine (§V) and multi-device execution (§V-D).
/// Users pick an algorithm (three bias hooks, or a registry id), hand in
/// seeds, and get one RunResult back; which backend executed is an
/// auto-selected detail, recorded in decision().
///
/// The counter-based RNG makes the choice invisible in the output too:
/// every mode produces byte-identical per-instance samples (see
/// tests/core/sampler_test.cpp).
///
/// Under the (default) kPipelined schedule a single-device paged Sampler
/// keeps its partition cache warm across runs and run_batches chunks: a
/// later run starts with the partitions the previous one left resident,
/// which changes its transfers and seps(), never its samples.
class Sampler {
 public:
  Sampler(const CsrGraph& graph, Policy policy, SamplingSpec spec,
          SamplerOptions options = {});
  Sampler(const CsrGraph& graph, const AlgorithmSetup& setup,
          SamplerOptions options = {});
  /// Registry shortcut: the default-parameter setup of `id` (paper §VI;
  /// depth_or_length is the walk length for walk algorithms).
  Sampler(const CsrGraph& graph, AlgorithmId id,
          std::uint32_t depth_or_length, std::uint32_t neighbor_size = 2,
          SamplerOptions options = {});

  const CsrGraph& graph() const noexcept { return *graph_; }
  const Policy& policy() const noexcept { return policy_; }
  const SamplingSpec& spec() const noexcept { return spec_; }
  const SamplerOptions& options() const noexcept { return options_; }
  /// The execution plan resolved at construction.
  const ModeDecision& decision() const noexcept { return decision_; }

  /// Runs all instances to completion; seeds[i] holds the seed vertices
  /// of instance i, which draws as global id i (run_tagged with tags
  /// 0..n-1).
  RunResult run(std::span<const std::vector<VertexId>> seeds);

  /// Convenience: every instance starts from one seed vertex.
  RunResult run_single_seed(std::span<const VertexId> seeds);

  /// Serving-style batched execution: streams instances through the
  /// resolved backend in chunks of `batch_size`, bounding peak in-flight
  /// state while producing samples byte-identical to one big run (each
  /// chunk runs its slice of the ids 0..n-1, so the counter-based RNG
  /// draws the same numbers). sim_seconds is the sum over sequential
  /// batches.
  RunResult run_batches(std::span<const std::vector<VertexId>> seeds,
                        std::uint32_t batch_size);

  RunResult run_batches_single_seed(std::span<const VertexId> seeds,
                                    std::uint32_t batch_size);

  /// The coalesced (service-tier) entry point: one engine run over
  /// instances whose global RNG ids are given per instance by `tags`
  /// (strictly increasing, one per seeds entry) instead of run()'s ids
  /// 0..n-1. Because the counter-based RNG addresses every draw by the
  /// global id, instance i's samples here are byte-identical to those of
  /// any other tagged run that gives it tags[i] — which is how
  /// csaw::Service batches requests from different clients into one run
  /// and still returns each request the exact bytes a solo run would
  /// have produced. The batch executes through the resolved
  /// execution mode like any other run (multi-device splits the tag span
  /// with the seed span).
  ///
  /// `control` carries the run's handles (RunControl, core/engine.hpp):
  /// `control.cancel` skips the whole run once fired (only sound when the
  /// run's output is discarded); `control.instance_cancel[i]` (when
  /// non-empty: one token per seeds entry, checked) stops instance i at
  /// its next step boundary while every other instance's samples stay
  /// byte-identical to an uncancelled run. Tokens are polled, never
  /// blocked on — an already-finished run is unaffected by a late
  /// cancel. A completion callback streams rows as instances finish, and
  /// a trace recorder receives the run's chain and transfer spans; both
  /// last for this call only.
  ///
  /// Re-entrancy contract: one Sampler must run one call at a time, but
  /// any number of Samplers may share one executor pool (set_executor)
  /// and one partitioning (set_partitions) — and those Samplers may run
  /// *concurrently*, each driven by its own thread, up to the pool's
  /// external-slot capacity (sim::ThreadPool::max_workers()): every
  /// driving thread holds a unique worker identity, so the per-run
  /// engine scratch of simultaneous runs never aliases. csaw::Service
  /// uses exactly this — one batch-runner thread per in-flight batch, one
  /// shared pool sized to max_concurrent_batches — to overlap
  /// independent-graph batches.
  RunResult run_tagged(std::span<const std::vector<VertexId>> seeds,
                       std::span<const std::uint32_t> tags,
                       const RunControl& control = {});

  /// Attaches an externally owned host pool shared with other samplers
  /// (the service tier passes one pool through every batch). Replaces the
  /// lazily created per-sampler pool; the pool's width wins over
  /// SamplerOptions::num_threads. Concurrent runs of distinct Samplers on
  /// one pool are safe up to the pool's external-thread capacity (see
  /// run_tagged's re-entrancy contract).
  void set_executor(std::shared_ptr<sim::ThreadPool> pool);

  /// Shares a prebuilt partitioning for the out-of-memory backend instead
  /// of building one on first dispatch — the service's graph registry
  /// partitions a graph once and reuses it across every batch. `parts`
  /// must partition this sampler's graph into options().num_partitions
  /// ranges (checked when the out-of-memory engine consumes it). A
  /// partition cache built over a different partitioning is dropped, so
  /// the next pipelined run starts cold on the new one.
  void set_partitions(std::shared_ptr<const PartitionedGraph> parts);

  /// Shares a persistent partition cache for the pipelined OOM path: the
  /// service tier keeps one cache per paged graph so partitions stay warm
  /// across batches. Implies set_partitions with the cache's
  /// partitioning. Single-device paging only — multi-device groups build
  /// private caches (each simulated device has its own memory).
  void set_partition_cache(std::shared_ptr<PartitionCache> cache);

 private:
  /// Dispatches one run whose instance i has global id tags[i] (one tag
  /// per seeds entry) under `control`.
  RunResult dispatch(std::span<const std::vector<VertexId>> seeds,
                     std::span<const std::uint32_t> tags,
                     const RunControl& control = {});
  RunResult run_in_memory(std::span<const std::vector<VertexId>> seeds,
                          std::span<const std::uint32_t> tags,
                          std::uint32_t device_id, const RunControl& control);
  RunResult run_out_of_memory(std::span<const std::vector<VertexId>> seeds,
                              std::span<const std::uint32_t> tags,
                              std::uint32_t device_id,
                              const RunControl& control);
  /// Splits the run into per-device groups, each with its subspan of the
  /// tags and its own RunControl: the group's sub-range of instance
  /// tokens and a completion callback re-based to run-local instance
  /// indices.
  RunResult run_multi_device(std::span<const std::vector<VertexId>> seeds,
                             std::span<const std::uint32_t> tags,
                             const RunControl& control);

  /// Creates the run-wide host pool on first use (width from
  /// num_threads / CSAW_THREADS); null when the resolved width is serial.
  sim::ThreadPool* ensure_pool();
  /// Attaches the run-wide host executor to a device.
  void attach_executor(sim::Device& device);

  const CsrGraph* graph_;
  Policy policy_;
  SamplingSpec spec_;
  SamplerOptions options_;
  ModeDecision decision_;
  /// Built lazily on the first out-of-memory dispatch and shared by every
  /// subsequent engine (batched serving partitions once, not per batch).
  std::shared_ptr<const PartitionedGraph> parts_;
  /// Pipelined single-device paging only: the persistent residency cache
  /// shared by every OOM engine this sampler runs (set_partition_cache or
  /// lazily created holding resident_partitions partitions).
  std::shared_ptr<PartitionCache> cache_;
  /// The persistent host thread pool shared by every device of this
  /// sampler (and reused across runs/batches). Null while serial.
  std::shared_ptr<sim::ThreadPool> pool_;
};

}  // namespace csaw
