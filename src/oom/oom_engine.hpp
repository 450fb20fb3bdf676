#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/engine.hpp"
#include "core/frontier_queue.hpp"
#include "core/run_result.hpp"
#include "core/sampler.hpp"
#include "oom/cache/partition_cache.hpp"
#include "oom/partitioned_graph.hpp"
#include "util/stats.hpp"

namespace csaw {

/// Out-of-memory C-SAW (paper §V): contiguous vertex-range partitions are
/// paged into simulated device memory; per-partition frontier queues carry
/// (VertexID, InstanceID, CurrDepth) entries; sampling is asynchronous and
/// out of (BFS) order, which the counter-based RNG keeps equivalent to the
/// in-memory schedule.
///
/// One round loop runs both schedules with byte-identical samples (Fig.
/// 8: pick partitions by active vertices, transfer them, balance thread
/// blocks by workload); SamplerOptions::schedule sets each step's policy.
/// kStepBarrier runs the paper's barriered waves (Figs. 13-15): every
/// chosen partition is copied each round, and each (partition, pass)
/// wave is one kernel at a fixed SM share. kPipelined pages through a
/// demand-driven PartitionCache (src/oom/cache/) whose partitions stay
/// warm across rounds and runs, one window per partition on the SM
/// ledger.
///
/// Restrictions: specs using select_frontier, layer_mode or
/// sample_all_neighbors are in-memory-only (checked).
class OomEngine {
 public:
  /// `options` supplies what every backend reads (seed, SELECT config,
  /// host threads, schedule) and the out-of-memory knobs: partitions,
  /// resident partitions, streams, the BA/WS/BAL toggles of Fig. 13, the
  /// unbatched gang size and the paged-I/O retry policy and faults. Its
  /// other fields are unused. `parts` shares a prebuilt partitioning (an
  /// O(V+E) pass: batched serving through csaw::Sampler partitions once
  /// and streams every batch's engine over it); it must partition `graph`
  /// into options.num_partitions ranges (checked). Null builds one.
  OomEngine(const CsrGraph& graph, Policy policy, SamplingSpec spec,
            const SamplerOptions& options,
            std::shared_ptr<const PartitionedGraph> parts = nullptr);

  /// Runs all instances; seeds[i] are instance i's seed vertices. `tags`
  /// (empty, or one strictly increasing global id per seeds entry,
  /// checked) override the ids instance_id_offset + i, as in
  /// Sampler::run_tagged; `control` carries the run's handles. Fills the
  /// samples, sim_seconds (partition transfers included, the paper's
  /// out-of-memory SEPS definition), device_seconds, stats, mode and oom.
  RunResult run(sim::Device& device,
                std::span<const std::vector<VertexId>> seeds,
                std::span<const std::uint32_t> tags = {},
                const RunControl& control = {});

  RunResult run_single_seed(sim::Device& device,
                            std::span<const VertexId> seeds);

  /// Shares a partition cache built over the same PartitionedGraph
  /// (checked): the service tier keeps one cache per paged graph so
  /// residency survives across batches. Without this, the first pipelined
  /// run builds a private cache holding SamplerOptions::resident_partitions
  /// partitions.
  /// kStepBarrier runs never use the cache.
  void set_cache(std::shared_ptr<PartitionCache> cache);

 private:
  /// One round's plan: slot i computes partitions[i] and is kernel slot i
  /// of the round's chains. Pipelined slots [0, warm) are warm ranked
  /// partitions, [warm, ranked) cold ones and [ranked, end) the warm
  /// fill; `order` ranks every runnable partition for the prefetch, and
  /// `ready` is when each slot's bytes land. `shares` are the barrier
  /// slots' fixed SM shares.
  struct Round {
    std::vector<std::uint32_t> partitions;
    std::vector<std::uint32_t> order;
    std::size_t warm = 0;
    std::size_t ranked = 0;
    std::vector<double> ready;
    std::vector<double> shares;
  };

  /// The round loop over one gang's queues, until they are empty: plan,
  /// residency, compute, record. Every round runs one chain per instance
  /// with entries in the chosen partitions; it consumes them slot by slot
  /// and pass by pass in (depth, slot) order on both schedules. `widths`
  /// is pipelined_chain_width of the run (pipelined rounds only).
  void run_rounds(sim::Device& device, const RunControl& control,
                  OomMetrics& metrics, RunningStat& imbalance,
                  std::uint32_t& round_robin_cursor, sim::ChainWidth widths);

  // The schedules' plan, residency and record policies (oom_engine.cpp).
  Round plan_cached(std::span<const std::size_t> pending) const;
  Round plan_waves(std::span<const std::size_t> pending,
                   std::uint32_t& cursor) const;
  void pin_round(sim::Device& device, Round& round,
                 std::span<const std::size_t> pending);
  void copy_round(sim::Device& device, const Round& round,
                  OomMetrics& metrics);
  std::span<const sim::KernelRecord> record_windows(
      sim::Device& device, const Round& round,
      std::span<const sim::Device::PipelinedKernel> kernels);
  /// Returns each slot's summed kernel time.
  std::vector<double> record_waves(sim::Device& device, const Round& round,
                                   std::span<const sim::Device::Wave> waves,
                                   OomMetrics& metrics);

  /// Grows the per-worker scratch to the device's execution width.
  void ensure_workers(std::uint32_t width);

  const CsrGraph* graph_;
  Policy policy_;
  SamplingSpec spec_;
  /// static_ctps_rows over the whole graph, shared by every partition
  /// view (a partition keeps its vertices' adjacency in CSR order).
  const StaticCtpsRows* rows_ = nullptr;
  SamplerOptions options_;
  CounterStream rng_;
  SelectConfig select_config_;
  std::vector<WorkerScratch> workers_;
  std::shared_ptr<const PartitionedGraph> parts_;
  /// Engaged only on the pipelined path (set_cache or lazily at run()).
  std::shared_ptr<PartitionCache> cache_;

  // Per-run state.
  std::vector<FrontierQueue> queues_;
  std::vector<InstanceState> instances_;
  SampleStore* samples_ = nullptr;
  /// Local instance -> chain index of the current round (~0u when the
  /// instance has no resident entries). Sized once per run; run_rounds
  /// resets only the slots it assigned.
  std::vector<std::uint32_t> chain_of_;
  /// Streaming runs only: outstanding frontier entries per local
  /// instance across ALL partition queues. A chain finishing its round
  /// with entries left in non-resident queues is not done — the count
  /// is, so run_rounds fires per-instance completion at the first round
  /// boundary where an instance's count hits zero (maintained on the
  /// driver thread: decremented at queue drain, incremented at
  /// merge-back).
  std::vector<std::uint32_t> queued_;
  /// Whether this run has a completion subscriber (fixed at run entry).
  bool streaming_ = false;
};

}  // namespace csaw
