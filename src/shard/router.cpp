#include "shard/router.hpp"

#include <algorithm>
#include <deque>
#include <string>
#include <utility>

#include "core/engine.hpp"
#include "core/instance.hpp"
#include "core/policy.hpp"
#include "gpusim/device.hpp"
#include "gpusim/warp.hpp"
#include "shard/envelope.hpp"
#include "util/check.hpp"

namespace csaw {
namespace {

/// Per-shard worker state. The whole-graph view is shared — the "CSR
/// slice" a real shard would own is cost-model fiction here (simulated
/// transfers and per-shard kernel accounting model the distribution;
/// host memory is one address space, and node2vec's has_edge needs the
/// previous vertex's adjacency even when another shard owns it).
/// Everything *mutable* is private to the shard, so the compute phase
/// parallelizes over shards with no aliasing.
struct ShardWorker {
  ShardWorker(const SelectConfig& select, std::uint32_t shards,
              std::uint32_t walkers)
      : scratch(select), egress(shards), walker_rounds(walkers, 0) {}

  WorkerScratch scratch;
  /// The instance state step_entry reads. Walk-shaped specs track no
  /// visitation, so one state serves every walker resident here: its
  /// seed is set when a walker's residency starts, and step_entry sets
  /// the previous vertex from each entry.
  InstanceState instance;
  /// step_entry's output: a walk-shaped step yields at most one child.
  std::vector<FrontierEntry> children;
  std::vector<FrontierEntry> residents;
  /// Fresh boundary crossings of this round, bucketed by destination.
  std::vector<std::vector<FrontierEntry>> egress;
  /// Per-step stats of every step this shard ran, summed over the run.
  sim::KernelStats stats;
  /// Critical rounds each walker (by run-local index) ran here on its
  /// cooperative width: its chain in this shard's persistent kernel.
  /// Every step charges at least its GATHERNEIGHBORS round, so a walker
  /// stepped here iff its entry is nonzero.
  std::vector<std::uint64_t> walker_rounds;
  std::uint64_t steps = 0;
  std::uint64_t forwarded = 0;
};

}  // namespace

ShardRouter::ShardRouter(const CsrGraph& graph, AlgorithmSetup setup,
                         const SamplerOptions& options, ShardOptions shard,
                         std::shared_ptr<const ShardPartitionMap> map)
    : graph_(&graph),
      setup_(std::move(setup)),
      options_(options),
      shard_(std::move(shard)),
      map_(std::move(map)) {
  CSAW_CHECK(shard_.shards >= 1);
  CSAW_CHECK(shard_.envelope_capacity >= 1);
  CSAW_CHECK(shard_.queue_capacity >= 1);
  CSAW_CHECK(options_.transfer_retry.attempts >= 1);
  CSAW_CHECK_MSG(setup_.spec.walk_shaped(),
                 "ShardRouter requires a walk-shaped spec");
  if (!map_) {
    map_ = std::make_shared<const ShardPartitionMap>(graph, shard_.shards);
  }
  CSAW_CHECK_MSG(map_->shards() == shard_.shards,
                 "partition map shard count mismatch");
  CSAW_CHECK_MSG(map_->num_vertices() == graph.num_vertices(),
                 "partition map built for a different graph");
  // Walks sample with replacement; mirror the engines' neighbor-config
  // derivation so SELECT draws the identical coordinates.
  options_.select.with_replacement = true;
}

void ShardRouter::set_executor(std::shared_ptr<sim::ThreadPool> pool) {
  pool_ = std::move(pool);
  pool_resolved_ = true;
}

sim::ThreadPool* ShardRouter::ensure_pool() {
  if (!pool_resolved_) {
    const std::uint32_t width =
        sim::resolve_num_threads(options_.num_threads);
    if (width > 1) pool_ = std::make_shared<sim::ThreadPool>(width);
    pool_resolved_ = true;
  }
  return pool_.get();
}

RunResult ShardRouter::run_tagged(
    std::span<const std::vector<VertexId>> seeds,
    std::span<const std::uint32_t> tags, const RunControl& control) {
  const std::uint32_t n = static_cast<std::uint32_t>(seeds.size());
  validate_tagged_run(seeds, tags, control);
  const std::uint32_t num_shards = shard_.shards;
  const SamplingSpec& spec = setup_.spec;
  const Policy& policy = setup_.policy;
  const CsrGraphView view(*graph_);
  const StaticCtpsRows* rows = static_ctps_rows(view, policy, spec);
  const CounterStream rng(options_.seed);
  const sim::CostModel cost(options_.device_params);
  const RetryPolicy& retry = options_.transfer_retry;
  telemetry::TraceRecorder* trace = control.trace;
  // Each walker's warps, as the in-memory pipelined launch of the same
  // walkers gives its chains.
  const std::vector<std::uint32_t> widths = cost.cooperative_widths(n);

  RunResult result;
  result.mode = ExecutionMode::kInMemory;
  result.mode_reason = "sharded: " + std::to_string(num_shards) +
                       " walk shards over simulated transport";
  result.samples.reset(n);
  result.device_seconds.assign(num_shards, 0.0);
  if (control.on_instance_complete) {
    result.samples.set_completion_callback(control.on_instance_complete);
  }

  ShardMetrics shard;
  shard.shards = num_shards;
  shard.steps_per_shard.assign(num_shards, 0);
  shard.forwarded_per_shard.assign(num_shards, 0);

  std::vector<ShardWorker> workers;
  workers.reserve(num_shards);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    workers.emplace_back(options_.select, num_shards, n);
  }
  // Each shard's ingress link, at most queue_capacity envelopes, and each
  // shard's envelopes still waiting to be sent.
  std::vector<std::vector<WalkerEnvelope>> inbox(num_shards);
  std::vector<std::deque<WalkerEnvelope>> outbox(num_shards);

  std::vector<char> failed(n, 0);
  const bool may_cancel = control.may_cancel();
  const auto fail_instance = [&](std::uint32_t local) {
    if (failed[local]) return;
    failed[local] = 1;
    result.samples.put(local, {});  // discard the partial row
  };
  const auto fail_envelope = [&](const WalkerEnvelope& env) {
    for (const FrontierEntry& walker : env.walkers) fail_instance(walker.local);
  };

  // Seed scatter: walker i starts on the shard owning its seed. No
  // transfer is charged — the unsharded engines do not charge seed
  // upload either, and seeds are request payload, not forwarding.
  for (std::uint32_t i = 0; i < n; ++i) {
    CSAW_CHECK_MSG(seeds[i].size() == 1,
                   "sharded runs require single-seed instances");
    const VertexId seed = seeds[i][0];
    CSAW_CHECK_MSG(seed < graph_->num_vertices(),
                   "seed vertex " << seed << " out of range");
    if (spec.depth == 0) {
      result.samples.complete(i);  // zero-length walk: empty, final
      continue;
    }
    workers[map_->owner(seed)].residents.push_back(
        FrontierEntry{seed, tags[i], i, 0, 0, kInvalidVertex});
  }

  sim::ThreadPool* pool = ensure_pool();
  std::uint64_t round = 0;

  // Compute superstep body for one shard: step every resident walker
  // until it finishes, dies, is cancelled, or crosses a shard boundary
  // (KnightKing run_walkers semantics — a walker is forwarded the
  // moment its next vertex has a different owner, everything else
  // stays shard-local). Draw coordinates are (tag, depth, slot 0), so
  // the bytes are identical to the unsharded engines'. Only the step
  // stats are kept here; the simulated charge comes after the loop.
  const auto compute_shard = [&](std::size_t item, std::uint32_t) {
    ShardWorker& w = workers[item];
    if (w.residents.empty()) return;
    std::uint64_t span_id = 0;
    if (trace) {
      span_id = trace->begin_span(
          "shard", {{"batch", std::to_string(control.trace_batch)},
                    {"round", std::to_string(round)},
                    {"shard", std::to_string(item)},
                    {"walkers", std::to_string(w.residents.size())}});
    }
    std::uint64_t round_steps = 0;
    for (FrontierEntry entry : w.residents) {
      w.instance.seed_vertex = seeds[entry.local][0];
      while (true) {
        if (may_cancel && control.instance_cancelled(entry.local)) {
          // Keeps the steps it completed; no completion fires
          // (RunControl contract: only non-cancelled instances do).
          break;
        }
        w.children.clear();
        w.walker_rounds[entry.local] += sim::run_warp_task(
            w.stats, widths[entry.local], [&](sim::WarpContext& warp) {
              step_entry(view, policy, spec, rows, rng, w.scratch, w.instance,
                         entry, warp, result.samples, w.children);
            });
        ++round_steps;
        CSAW_CHECK(w.children.size() <= 1);  // walk-shaped: one child max
        if (w.children.empty()) {
          result.samples.complete(entry.local);
          break;
        }
        entry = w.children[0];
        const std::uint32_t dst = map_->owner(entry.vertex);
        if (dst != static_cast<std::uint32_t>(item)) {
          w.egress[dst].push_back(entry);
          ++w.forwarded;
          break;
        }
      }
    }
    w.residents.clear();
    w.steps += round_steps;
    if (trace) {
      trace->end_span(span_id, "shard",
                      {{"steps", std::to_string(round_steps)}});
    }
  };

  while (true) {
    // Terminal shard failures: fail exactly the instances whose
    // walkers are resident on or bound for a dead shard; everyone
    // else's bytes are untouched.
    if (shard_.faults) {
      for (std::uint32_t s = 0; s < num_shards; ++s) {
        if (!shard_.faults->failed_forever(s)) continue;
        for (const FrontierEntry& walker : workers[s].residents) {
          fail_instance(walker.local);
        }
        workers[s].residents.clear();
        for (const WalkerEnvelope& env : inbox[s]) fail_envelope(env);
        inbox[s].clear();
        for (std::uint32_t src = 0; src < num_shards; ++src) {
          auto& pending = outbox[src];
          for (auto it = pending.begin(); it != pending.end();) {
            if (it->to == s) {
              fail_envelope(*it);
              it = pending.erase(it);
            } else {
              ++it;
            }
          }
        }
      }
    }

    // Ingress: hand walkers over in delivery order, which the
    // single-threaded exchange makes deterministic.
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      for (const WalkerEnvelope& env : inbox[s]) {
        workers[s].residents.insert(workers[s].residents.end(),
                                    env.walkers.begin(), env.walkers.end());
      }
      inbox[s].clear();
    }

    if (control.cancel.cancelled()) {
      break;  // whole-run cancel: the run's output is discarded
    }
    bool any_residents = false;
    bool any_outbox = false;
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      any_residents = any_residents || !workers[s].residents.empty();
      any_outbox = any_outbox || !outbox[s].empty();
    }
    if (!any_residents && !any_outbox) break;

    // --- Compute superstep: shards step in parallel (disjoint state,
    // disjoint result rows). Host-side only: the simulated compute is
    // charged once per run below, not per superstep.
    if (any_residents) {
      if (pool) {
        pool->parallel_for(num_shards, compute_shard);
      } else {
        for (std::uint32_t s = 0; s < num_shards; ++s) compute_shard(s, 0);
      }
    }

    // --- Exchange superstep, single-threaded: the delivery order (and
    // therefore the fault injector's site order) is deterministic.
    // Each source serializes on its own egress link; the superstep's
    // transfer costs the slowest link, and supersteps' transfers add. A
    // full destination queue leaves the envelope at the head of its
    // outbox for next round (deterministic backpressure: the walkers step
    // later at unchanged bytes).
    double round_transfer = 0.0;
    for (std::uint32_t src = 0; src < num_shards; ++src) {
      ShardWorker& w = workers[src];
      for (std::uint32_t dst = 0; dst < num_shards; ++dst) {
        auto& hops = w.egress[dst];
        for (std::size_t at = 0; at < hops.size();
             at += shard_.envelope_capacity) {
          WalkerEnvelope env;
          env.to = dst;
          const std::size_t end =
              std::min(hops.size(),
                       at + static_cast<std::size_t>(
                                shard_.envelope_capacity));
          env.walkers.assign(hops.begin() + static_cast<std::ptrdiff_t>(at),
                             hops.begin() + static_cast<std::ptrdiff_t>(end));
          outbox[src].push_back(std::move(env));
        }
        hops.clear();
      }

      double src_seconds = 0.0;
      while (!outbox[src].empty()) {
        WalkerEnvelope& env = outbox[src].front();
        if (shard_.faults && shard_.faults->failed_forever(env.to)) {
          fail_envelope(env);
          outbox[src].pop_front();
          continue;
        }
        if (inbox[env.to].size() >= shard_.queue_capacity) {
          break;  // head-of-line backpressure
        }
        const double wire = cost.transfer_seconds(env.bytes());
        bool delivered = false;
        for (std::uint32_t attempt = 0; attempt < retry.attempts; ++attempt) {
          if (attempt > 0) {
            src_seconds += retry.backoff_before(attempt);
            ++shard.envelope_retries;
          }
          const auto outcome =
              shard_.faults
                  ? shard_.faults->next_attempt(env.to, attempt)
                  : FaultInjector::Outcome::kOk;
          if (outcome == FaultInjector::Outcome::kFail) {
            ++shard.envelope_faults;
            src_seconds += wire;  // the dropped copy still held the link
            continue;
          }
          src_seconds += outcome == FaultInjector::Outcome::kSlow
                             ? wire * shard_.faults->slow_factor()
                             : wire;
          delivered = true;
          break;
        }
        if (!delivered) {
          fail_envelope(env);  // retry budget exhausted
          outbox[src].pop_front();
          continue;
        }
        ++shard.envelopes;
        shard.bytes_forwarded += env.bytes();
        if (trace) {
          const std::uint64_t fid = trace->begin_span(
              "forward",
              {{"batch", std::to_string(control.trace_batch)},
               {"round", std::to_string(round)},
               {"from", std::to_string(src)},
               {"to", std::to_string(env.to)},
               {"walkers", std::to_string(env.walkers.size())},
               {"bytes", std::to_string(env.bytes())}});
          trace->end_span(fid, "forward");
        }
        inbox[env.to].push_back(std::move(env));
        outbox[src].pop_front();
      }
      round_transfer = std::max(round_transfer, src_seconds);
    }

    shard.transfer_seconds += round_transfer;
    ++round;
  }

  // Simulated compute: each shard runs one persistent kernel for the
  // whole run, a chain per walker that stepped on it, shaped like the
  // in-memory pipelined launch (so one shard costs exactly what the
  // unsharded engine does). A walker's steps also serialize across
  // shards, so no schedule beats its longest total path.
  std::vector<sim::PersistentKernelShape> shapes(num_shards);
  std::uint64_t longest_path = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint64_t path = 0;
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      const std::uint64_t rounds = workers[s].walker_rounds[i];
      if (rounds == 0) continue;
      shapes[s].add_chain(rounds, widths[i], widths[i]);
      path += rounds;
    }
    longest_path = std::max(longest_path, path);
  }
  double compute = longest_path == 0
                       ? 0.0
                       : cost.critical_path_seconds(longest_path);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    sim::KernelStats kernel = workers[s].stats;
    shapes[s].apply(kernel);
    result.device_seconds[s] = cost.kernel_seconds(kernel);
    compute = std::max(compute, result.device_seconds[s]);
    result.stats.merge(workers[s].stats);
    shard.steps_per_shard[s] = workers[s].steps;
    shard.forwarded_per_shard[s] = workers[s].forwarded;
    shard.forwarded_walkers += workers[s].forwarded;
  }
  shard.rounds = round;
  result.sim_seconds = compute + shard.transfer_seconds;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (failed[i]) shard.failed.push_back(i);
  }
  result.shard = std::move(shard);
  // Engine idiom: never hand back a store whose callback outlives what
  // it captured.
  result.samples.set_completion_callback({});
  return result;
}

}  // namespace csaw
