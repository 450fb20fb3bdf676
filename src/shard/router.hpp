#pragma once

// Sharded walk execution over a simulated transport (ROADMAP item 3).
//
// A ShardRouter partitions a graph's vertices across N shard workers
// (ShardPartitionMap, edge-balanced contiguous ranges) and runs
// walk-shaped sampling instances KnightKing-style (see
// src/baselines/knightking.cpp run_walkers): supersteps of shard-local
// compute followed by an all-to-all walker exchange. A walker is a
// FrontierEntry, and a step is step_entry (core/engine.hpp), the same
// step the out-of-memory engine's chains take. Within a superstep each
// shard steps its resident walkers until they finish, die, or step onto
// a vertex another shard owns; boundary-crossing walkers are packed into
// WalkerEnvelopes and delivered in *simulated* time, so forwarding cost
// lands in the same CostModel (and therefore SEPS accounting) as kernels
// and partition copies. The exchange runs on one thread: each shard's
// ingress is a plain list of at most ShardOptions::queue_capacity
// envelopes, filled in source-shard order, and a full list holds the
// sender's next envelope back a round (head-of-line backpressure).
//
// Simulated charge: the supersteps are the host's schedule, not the
// device's. Each shard runs one persistent kernel per run, with a chain
// per walker that stepped on it (shaped like the in-memory engine's
// pipelined launch, sim::PersistentKernelShape), so
//   sim_seconds = max(slowest shard kernel,
//                     longest walker's total path + one launch)
//               + sum over supersteps of the slowest link's transfer.
// One shard therefore costs exactly the unsharded pipelined run.
//
// Determinism contract — the headline claim of the sharded tier: a
// run's samples are byte-identical at any shard count and any host
// thread count, because every random draw is addressed by the global
// instance tag (the `tags` of Sampler::run_tagged), never by which
// shard or thread executed the step. Walk-shaped specs keep the RNG
// slot at 0 along the whole chain (single seed -> slot 0; one
// neighbor per step -> child_slot = 0*cap+0), so a walker's draw
// coordinates are (tag, depth, slot_base, ...) wherever it is
// resident — shard placement is invisible in the bytes. Shards only
// change the simulated timeline (envelope transfers, per-shard kernels)
// and the failure domains.
//
// Fault semantics: a FaultInjector keyed by destination shard
// drops/delays envelope deliveries (bounded retry with doubling backoff
// in simulated time), and a failed-forever shard fails exactly the
// instances whose walkers are resident on or bound for it — every other
// instance's bytes are untouched. The service maps those to
// RequestOutcome::kShardFailed.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "algorithms/registry.hpp"
#include "core/engine.hpp"
#include "core/run_result.hpp"
#include "core/sampler.hpp"
#include "gpusim/thread_pool.hpp"
#include "shard/partition_map.hpp"
#include "util/fault_injector.hpp"

namespace csaw {

/// The transport of one ShardRouter. Everything a single-device run
/// also has (seed, SELECT, host threads, retry policy, device) comes
/// from the SamplerOptions the router is built with.
struct ShardOptions {
  /// Shard count (>= 1; 1 degenerates to a single worker, no
  /// forwarding).
  std::uint32_t shards = 2;
  /// Max walkers packed into one WalkerEnvelope.
  std::uint32_t envelope_capacity = 64;
  /// Max envelopes queued at one shard's ingress; a full queue
  /// backpressures the sender (head-of-line, retried next round).
  std::uint32_t queue_capacity = 32;
  /// Optional deterministic fault injector consulted per delivery
  /// attempt, keyed by destination shard. nullptr (the default) means a
  /// fault-free transport. An envelope failing every attempt of
  /// SamplerOptions::transfer_retry fails its walkers' instances.
  std::shared_ptr<FaultInjector> faults;
};

/// Routes walk-shaped sampling runs across shard workers over the
/// simulated transport. One router serves one (graph, algorithm)
/// pair; like Sampler, it runs one call at a time but any number of
/// routers may share one executor pool.
class ShardRouter {
 public:
  /// `options` supplies the seed, SELECT config, host threads
  /// (num_threads), the envelope retry policy (transfer_retry) and the
  /// simulated device (device_params); its other fields are unused.
  /// `map` shares a prebuilt partition map (the service builds one per
  /// registered graph); null builds a private one.
  ShardRouter(const CsrGraph& graph, AlgorithmSetup setup,
              const SamplerOptions& options, ShardOptions shard,
              std::shared_ptr<const ShardPartitionMap> map = nullptr);

  /// Attaches an externally owned host pool (the service passes its
  /// batch pool). Replaces the lazily created per-router pool; the
  /// pool's width wins over SamplerOptions::num_threads.
  void set_executor(std::shared_ptr<sim::ThreadPool> pool);

  /// Runs one walker per seeds entry (each entry must hold exactly one
  /// seed vertex) under global instance tags `tags` (strictly
  /// increasing, one per entry — the service's coalesced-batch ids).
  /// Samples are byte-identical to an unsharded Sampler::run_tagged of
  /// the same (graph, setup, seed, tags) at any shard/thread count.
  /// Instances failed by terminal shard faults are listed in
  /// RunResult::shard->failed with their rows cleared; cancelled
  /// instances keep the steps they completed (RunControl semantics).
  RunResult run_tagged(std::span<const std::vector<VertexId>> seeds,
                       std::span<const std::uint32_t> tags,
                       const RunControl& control = {});

 private:
  sim::ThreadPool* ensure_pool();

  const CsrGraph* graph_;
  AlgorithmSetup setup_;
  SamplerOptions options_;
  ShardOptions shard_;
  std::shared_ptr<const ShardPartitionMap> map_;
  std::shared_ptr<sim::ThreadPool> pool_;
  bool pool_resolved_ = false;
};

}  // namespace csaw
