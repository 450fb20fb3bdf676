#include "oom/oom_engine.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include "oom/cache/partition_scheduler.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace csaw {
namespace {

constexpr std::uint32_t kNoChain = ~0u;
constexpr std::uint32_t kNotResident = ~0u;
/// Streams of the kStepBarrier waves: chosen partition i copies and runs
/// on stream i % kBarrierStreams (the paper's Fig. 13 setup). The demand
/// cache gives each partition on the device a stream of its own instead.
constexpr std::uint32_t kBarrierStreams = 2;

/// SM share per chosen partition of a barrier wave (thread-block
/// balancing, 3 in Fig. 8): proportional to its queued entries under
/// block balancing, floored at 0.05; even otherwise.
std::vector<double> sm_fractions(std::span<const std::uint32_t> partitions,
                                 std::span<const std::size_t> pending,
                                 bool block_balancing) {
  const std::size_t chosen = partitions.size();
  std::vector<double> fractions(chosen, 1.0 / static_cast<double>(chosen));
  if (block_balancing && chosen > 1) {
    double total = 0.0;
    for (std::uint32_t p : partitions) {
      total += static_cast<double>(pending[p]);
    }
    for (std::size_t i = 0; i < chosen; ++i) {
      fractions[i] = std::max(
          0.05, static_cast<double>(pending[partitions[i]]) / total);
    }
    const double sum =
        std::accumulate(fractions.begin(), fractions.end(), 0.0);
    for (double& f : fractions) f /= sum;
  }
  return fractions;
}

}  // namespace

OomEngine::OomEngine(const CsrGraph& graph, Policy policy, SamplingSpec spec,
                     const SamplerOptions& options,
                     std::shared_ptr<const PartitionedGraph> parts)
    : graph_(&graph),
      policy_(std::move(policy)),
      spec_(std::move(spec)),
      options_(options),
      rng_(options.seed),
      select_config_([&] {
        SelectConfig c = options.select;
        c.with_replacement = spec_.with_replacement;
        return c;
      }()),
      parts_(parts != nullptr ? std::move(parts)
                              : std::make_shared<const PartitionedGraph>(
                                    graph, options.num_partitions)) {
  CSAW_CHECK_MSG(&parts_->whole() == graph_,
                 "shared PartitionedGraph belongs to a different graph");
  CSAW_CHECK_MSG(parts_->num_parts() == options.num_partitions,
                 "shared PartitionedGraph has "
                     << parts_->num_parts() << " partitions, options want "
                     << options.num_partitions);
  CSAW_CHECK_MSG(!spec_.select_frontier && !spec_.layer_mode &&
                     !spec_.sample_all_neighbors,
                 "spec requires whole-graph frontier state; "
                 "use the in-memory engine");
  CSAW_CHECK_MSG(spec_.effective_branching_cap() > 0,
                 "out-of-order sampling needs order-independent RNG slots; "
                 "set SamplingSpec::branching_cap");
  CSAW_CHECK(options.resident_partitions >= 1);
  CSAW_CHECK(options.resident_partitions <= options.num_partitions);
  rows_ = static_ctps_rows(GraphView(*graph_), policy_, spec_);
}

void OomEngine::set_cache(std::shared_ptr<PartitionCache> cache) {
  CSAW_CHECK(cache != nullptr);
  CSAW_CHECK_MSG(cache->parts_ptr().get() == parts_.get(),
                 "shared PartitionCache built over a different partitioning");
  cache_ = std::move(cache);
}

void OomEngine::ensure_workers(std::uint32_t width) {
  workers_.reserve(width);
  while (workers_.size() < width) {
    // No frontier-selection kernel here: the frontier selector slot of
    // the shared WorkerScratch shape stays disengaged.
    workers_.emplace_back(select_config_);
  }
}

RunResult OomEngine::run(sim::Device& device,
                         std::span<const std::vector<VertexId>> seeds,
                         std::span<const std::uint32_t> tags,
                         const RunControl& control) {
  const auto num_instances = static_cast<std::uint32_t>(seeds.size());
  validate_run_tags(tags, control, num_instances);
  validate_seeds(seeds, graph_->num_vertices());
  instances_.assign(num_instances, InstanceState());
  for (std::uint32_t i = 0; i < num_instances; ++i) {
    instances_[i].init(tags.empty() ? i : tags[i], seeds[i],
                       graph_->num_vertices(), spec_.filter_visited);
  }

  RunResult result;
  result.mode = ExecutionMode::kOutOfMemory;
  result.samples.reset(num_instances);
  samples_ = &result.samples;
  OomMetrics metrics;

  queues_.assign(options_.num_partitions, FrontierQueue{});
  chain_of_.assign(num_instances, kNoChain);
  streaming_ = static_cast<bool>(control.on_instance_complete);
  if (streaming_) {
    result.samples.set_completion_callback(control.on_instance_complete);
    queued_.assign(num_instances, 0);
  }

  device.set_num_threads(options_.num_threads);
  ensure_workers(device.max_workers());

  // The pipelined schedule pages through the demand cache; kStepBarrier
  // runs the paper's barriered waves and never touches it.
  const bool cached = options_.schedule == Schedule::kPipelined;
  CacheMetrics cache_before;
  if (cached) {
    if (cache_ == nullptr) {
      cache_ = std::make_shared<PartitionCache>(
          parts_, CacheLimits{.partitions = options_.resident_partitions});
    }
    // A fresh device and simulated clock, and this run's fault, retry
    // and trace handles: a service-owned cache shared across batches
    // follows the current batch.
    cache_->begin_run(options_.transfer_faults, options_.transfer_retry,
                      control.trace, control.trace_batch);
    cache_before = cache_->metrics();
  }

  const std::size_t log_begin = device.kernel_log().size();
  const std::size_t transfer_begin = device.transfer().log().size();
  const double t0 = device.synchronize();
  std::uint32_t round_robin_cursor = 0;
  RunningStat imbalance;
  const sim::ChainWidth widths = pipelined_chain_width(spec_, seeds);

  // Batched multi-instance sampling keeps every instance in one merged
  // queue set; the non-batched baseline can only keep a gang of
  // per-instance queues resident and pays transfers per gang (§V-C).
  const std::uint32_t gang =
      options_.oom_batched ? std::max(num_instances, 1u)
                           : std::max(options_.oom_unbatched_gang_size, 1u);

  for (std::uint32_t gang_begin = 0;
       gang_begin < std::max(num_instances, 1u); gang_begin += gang) {
    const std::uint32_t gang_end =
        std::min(num_instances, gang_begin + gang);
    for (std::uint32_t i = gang_begin; i < gang_end; ++i) {
      // Instances cancelled before the gang starts are never seeded —
      // the cheapest (and fully deterministic) form of the cancel poll.
      if (control.may_cancel() && control.instance_cancelled(i)) continue;
      for (std::size_t s = 0; s < seeds[i].size(); ++s) {
        const VertexId seed = seeds[i][s];
        queues_[parts_->part_of(seed)].push(FrontierEntry{
            seed, instances_[i].id, /*local=*/i,
            /*depth=*/0, static_cast<std::uint32_t>(s), kInvalidVertex});
        if (streaming_) ++queued_[i];
      }
    }
    try {
      run_rounds(device, control, metrics, imbalance, round_robin_cursor,
                 widths);
    } catch (TransferError& e) {
      // The failed run returns no result: its caller books what the
      // cache counted for it from the error.
      if (cached) e.set_paged(cache_->metrics().since(cache_before));
      throw;
    }
  }

  // The rounds complete every instance they drained; zero-seed instances
  // never enter a queue and complete here.
  complete_remaining(result.samples, control);
  streaming_ = false;

  result.sim_seconds = device.synchronize() - t0;
  result.device_seconds = {result.sim_seconds};
  if (cached) {
    // The cache counted every paged event once; the run's share is the
    // difference over the run.
    metrics.accumulate(cache_->metrics().since(cache_before));
    metrics.transfer_overlap_seconds =
        device.transfer_kernel_overlap(transfer_begin, log_begin);
  }
  metrics.kernel_imbalance = imbalance.mean();
  result.oom = metrics;
  for (std::size_t i = log_begin; i < device.kernel_log().size(); ++i) {
    result.stats.merge(device.kernel_log()[i].stats);
  }
  samples_ = nullptr;
  return result;
}

RunResult OomEngine::run_single_seed(sim::Device& device,
                                  std::span<const VertexId> seeds) {
  return run(device, expand_single_seeds(seeds));
}

void OomEngine::run_rounds(sim::Device& device, const RunControl& control,
                           OomMetrics& metrics, RunningStat& imbalance,
                           std::uint32_t& round_robin_cursor,
                           sim::ChainWidth widths) {
  const bool cached = options_.schedule == Schedule::kPipelined;
  std::vector<std::size_t> pending(options_.num_partitions, 0);
  std::vector<std::uint32_t> slot_of(options_.num_partitions, kNotResident);
  const bool may_cancel = control.may_cancel();

  for (;;) {
    for (std::uint32_t p = 0; p < options_.num_partitions; ++p) {
      pending[p] = queues_[p].size();
    }
    // --- Plan: the partitions that compute this round, one kernel slot
    // each (1 in Fig. 8).
    Round round = cached ? plan_cached(pending)
                         : plan_waves(pending, round_robin_cursor);
    const std::vector<std::uint32_t>& chosen = round.partitions;
    if (chosen.empty()) break;
    const std::size_t chosen_count = chosen.size();

    // --- Residency (2 in Fig. 8). If anything below throws — a
    // TransferError from an exhausted acquire, a CheckError — the guard
    // releases this round's pins and settles in-flight loads, so the
    // cache is reusable by the next batch (no pin survives, no partition
    // stays kLoading).
    std::optional<PartitionCache::RoundGuard> round_guard;
    if (cached) {
      round_guard.emplace(*cache_);
      pin_round(device, round, pending);
    } else {
      copy_round(device, round, metrics);
    }

    // Split the chosen queues by instance into chains: each chain
    // consumes its own entries in (depth, slot) order — the per-instance
    // order no residency schedule changes — and entries routed between
    // co-resident partitions are consumed within the same round.
    struct Chain {
      std::uint32_t instance;
      std::vector<std::vector<FrontierEntry>> pending;  // per slot
      std::vector<FrontierEntry> routed_out;  // to partitions not resident
    };
    std::vector<Chain> chains;
    for (std::size_t i = 0; i < chosen_count; ++i) {
      slot_of[chosen[i]] = static_cast<std::uint32_t>(i);
      for (const FrontierEntry& e : queues_[chosen[i]].drain()) {
        // Streaming bookkeeping first: the entry leaves the queues either
        // way (processed or dropped by the cancel skip).
        if (streaming_) --queued_[e.local];
        // Cancelled instances' pending entries are dropped at the round
        // boundary; surviving instances' processing order is untouched.
        if (may_cancel && control.instance_cancelled(e.local)) continue;
        if (chain_of_[e.local] == kNoChain) {
          chain_of_[e.local] = static_cast<std::uint32_t>(chains.size());
          chains.push_back({e.local, {}, {}});
          chains.back().pending.resize(chosen_count);
        }
        chains[chain_of_[e.local]].pending[i].push_back(e);
      }
    }
    if (!cached) {
      // A wave packs its tasks into blocks in instance order, the order
      // the barrier launches them in (tags increase with the index).
      std::sort(chains.begin(), chains.end(),
                [](const Chain& a, const Chain& b) {
                  return a.instance < b.instance;
                });
    }

    // --- Compute: a chain runs its entries slot by slot, pass by pass.
    // Its (slot i, pass k) tasks are its share of the barrier's wave of
    // partition i in pass k: the wave drains what earlier waves of the
    // pass routed to it. Without workload-aware scheduling a round is
    // one pass, and what it routes waits in the queues.
    const sim::Device::ChainBody body = [&](std::uint64_t c,
                                            sim::ChainContext& ctx,
                                            std::uint32_t worker) {
      Chain& chain = chains[c];
      auto& mine = chain.pending;
      auto& out = chain.routed_out;
      WorkerScratch& ws = workers_[worker];
      // One chain span per (round, instance) — OOM chains re-enter each
      // residency round, unlike the in-memory engine's
      // one-span-per-instance shape. Host-time only.
      std::uint64_t chain_span = 0;
      if (control.should_trace()) {
        chain_span = control.trace->begin_span(
            "chain",
            {{"instance", std::to_string(instances_[chain.instance].id)},
             {"batch", std::to_string(control.trace_batch)}});
      }
      std::vector<FrontierEntry> batch;
      std::vector<FrontierEntry> children;

      const auto process_one = [&](std::uint32_t p, const FrontierEntry& e,
                                   sim::WarpContext& warp) {
        children.clear();
        step_entry(parts_->view(p), policy_, spec_, rows_, rng_, ws,
                   instances_[e.local], e, warp, *samples_, children);
        for (const FrontierEntry& child : children) {
          const std::uint32_t slot = slot_of[parts_->part_of(child.vertex)];
          if (slot == kNotResident) {
            out.push_back(child);
          } else {
            mine[slot].push_back(child);
          }
        }
      };

      bool progressed = true;
      for (std::uint64_t pass = 0; progressed; ++pass) {
        // Cooperative cancellation poll at the pass boundary: the chain
        // abandons its remaining entries (and anything already routed
        // out) without touching other chains' work.
        if (may_cancel && control.instance_cancelled(chain.instance)) {
          for (auto& m : mine) m.clear();
          out.clear();
          break;
        }
        progressed = false;
        for (std::size_t i = 0; i < chosen_count; ++i) {
          if (mine[i].empty()) continue;
          batch.clear();
          batch.swap(mine[i]);
          std::sort(batch.begin(), batch.end(),
                    [](const FrontierEntry& a, const FrontierEntry& b) {
                      if (a.depth != b.depth) return a.depth < b.depth;
                      return a.slot < b.slot;
                    });
          const std::uint32_t p = chosen[i];
          const auto slot = static_cast<std::uint32_t>(i);
          if (options_.oom_batched) {
            // BA: a warp per entry (vertex-grained, §V-C).
            for (const FrontierEntry& e : batch) {
              ctx.run_task(slot, pass, [&](sim::WarpContext& warp) {
                process_one(p, e, warp);
              });
            }
          } else {
            // Instance-grained baseline: one warp takes all of the
            // instance's entries, so skewed instances straggle (§V-C).
            ctx.run_task(slot, pass, [&](sim::WarpContext& warp) {
              for (const FrontierEntry& e : batch) process_one(p, e, warp);
            });
          }
          progressed = options_.oom_workload_aware;
        }
      }
      if (control.should_trace()) {
        control.trace->end_span(chain_span, "chain",
                                {{"routed_out", std::to_string(out.size())}});
      }
    };

    // --- Compute, and record with each slot's SMs (3 in Fig. 8); each
    // slot's kernel time feeds the imbalance of Fig. 14.
    std::vector<double> slot_seconds;
    if (cached) {
      const auto kernels = device.execute_pipelined(
          static_cast<std::uint32_t>(chosen_count), chains.size(), body,
          control.cancel, widths);
      double round_end = 0.0;
      for (const sim::KernelRecord& record :
           record_windows(device, round, kernels)) {
        slot_seconds.push_back(record.duration());
        round_end = std::max(round_end, record.end);
        ++metrics.kernel_launches;
      }
      for (std::size_t i = 0; i < chosen_count; ++i) {
        if (i < round.ranked) {
          cache_->release(chosen[i]);
        } else {
          cache_->unpin(chosen[i], kernels[i].num_tasks > 0);
        }
      }
      cache_->settle(round_end);
      round_guard->commit();
    } else {
      slot_seconds = record_waves(
          device, round,
          device.execute_waves(static_cast<std::uint32_t>(chosen_count),
                               chains.size(), body, control.cancel),
          metrics);
    }
    ++metrics.scheduling_rounds;
    RunningStat per_round;
    for (const double seconds : slot_seconds) per_round.add(seconds);
    if (slot_seconds.size() >= 2 && per_round.mean() > 0.0) {
      imbalance.add(per_round.stddev() / per_round.mean());
    }

    // Merge leftovers and outbound entries back in chain order (every
    // consumer sorts, so only the multiset matters).
    for (const Chain& chain : chains) {
      std::size_t returned = 0;
      for (std::size_t i = 0; i < chosen_count; ++i) {
        for (const FrontierEntry& e : chain.pending[i]) {
          queues_[chosen[i]].push(e);
        }
        returned += chain.pending[i].size();
      }
      for (const FrontierEntry& e : chain.routed_out) {
        queues_[parts_->part_of(e.vertex)].push(e);
      }
      returned += chain.routed_out.size();
      if (streaming_) {
        queued_[chain.instance] += static_cast<std::uint32_t>(returned);
      }
      chain_of_[chain.instance] = kNoChain;
    }
    for (const std::uint32_t p : chosen) slot_of[p] = kNotResident;

    // Streaming flush point, after the round's pins are released: fire
    // completion for every instance of this round whose outstanding-entry
    // count reached zero — no entries left in any partition queue means
    // its sample is final. A blocked subscriber parks the driver in host
    // time only; the round's simulated timeline is already settled.
    for (const Chain& chain : chains) {
      const std::uint32_t local = chain.instance;
      if (!streaming_ || queued_[local] != 0 || samples_->completed(local)) {
        continue;
      }
      if (may_cancel && control.instance_cancelled(local)) continue;
      samples_->complete(local);
    }
  }
}

// Pipelined plan: the scheduler's top-ranked partitions, warm before
// cold, as many as fit the cache's limits, then the warm fill.
OomEngine::Round OomEngine::plan_cached(
    std::span<const std::size_t> pending) const {
  const PartitionCache& cache = *cache_;
  Round round;
  round.order = PartitionScheduler::rank(pending, &cache);
  if (round.order.empty()) return round;

  // Compute set: warm partitions first (their bytes are already on the
  // device — a transfer saved beats any queue-length ordering), then cold
  // ones; within each class the scheduler's pending-walker rank decides.
  // A partition that would overflow the cache's limits beside the set so
  // far and the in-flight prefetch (which no acquire may evict) is
  // skipped, as a later, smaller one may still fit; so every acquire of
  // the set succeeds. Under a partition-count limit of four or more,
  // while more partitions are runnable than it allows, one stays free as
  // the prefetch pipeline that streams the next-ranked cold partition in
  // behind the computing set; at three or fewer a reserved place costs
  // more compute width than prefetching saves. The places the ranked set
  // leaves free take every other partition on the device (the warm
  // fill), so a walker stepping into one is consumed this round instead
  // of waiting for the next (§V-B).
  const std::size_t places = std::min<std::size_t>(cache.limits().partitions,
                                                   options_.num_partitions);
  const std::size_t max_compute =
      round.order.size() <= places || places < 4 ? places : places - 1;
  const std::uint32_t in_flight = cache.in_flight();
  std::uint64_t held_bytes =
      in_flight == PartitionCache::kNone ? 0 : parts_->bytes(in_flight);
  std::uint32_t held_count = in_flight == PartitionCache::kNone ? 0 : 1;
  std::vector<std::uint32_t>& chosen = round.partitions;
  chosen.reserve(max_compute);
  const auto choose = [&](std::uint32_t p) {
    if (chosen.size() == max_compute) return;
    if (p != in_flight) {  // the prefetch's bytes are already held
      if (!cache.admits(held_bytes, held_count, p)) return;
      held_bytes += parts_->bytes(p);
      ++held_count;
    }
    chosen.push_back(p);
  };
  for (const std::uint32_t p : round.order) {
    if (cache.on_device(p)) choose(p);
  }
  round.warm = chosen.size();
  for (const std::uint32_t p : round.order) {
    if (!cache.on_device(p)) choose(p);
  }
  round.ranked = chosen.size();
  CSAW_CHECK_MSG(round.ranked > 0, "no runnable partition fits the cache");
  for (std::uint32_t p = 0; p < options_.num_partitions; ++p) {
    if (cache.on_device(p) && p != in_flight &&
        std::find(chosen.begin(), chosen.end(), p) == chosen.end()) {
      choose(p);
    }
  }
  return round;
}

// Barrier plan: up to resident_partitions partitions, ranked by queue
// size (WS) or round-robin from `cursor`, each with its SM share.
OomEngine::Round OomEngine::plan_waves(std::span<const std::size_t> pending,
                                       std::uint32_t& cursor) const {
  Round round;
  std::vector<std::uint32_t>& chosen = round.partitions;
  if (options_.oom_workload_aware) {
    // Most active vertices first. Nothing stays on the device between
    // barrier rounds, so ties go to the lower id.
    chosen = PartitionScheduler::rank(pending, nullptr);
    chosen.resize(std::min<std::size_t>(chosen.size(),
                                        options_.resident_partitions));
  } else {
    // Baseline: the next active partitions in id order from a cursor.
    for (std::uint32_t step = 0; step < options_.num_partitions &&
                                 chosen.size() < options_.resident_partitions;
         ++step) {
      const std::uint32_t p = (cursor + step) % options_.num_partitions;
      if (pending[p] > 0) chosen.push_back(p);
    }
    if (!chosen.empty()) cursor = (chosen.back() + 1) % options_.num_partitions;
  }
  if (!chosen.empty()) {
    round.shares = sm_fractions(chosen, pending, options_.oom_block_balancing);
  }
  return round;
}

// Pipelined residency: pins the plan through the cache, filling
// round.ready, and starts the prefetch.
void OomEngine::pin_round(sim::Device& device, Round& round,
                          std::span<const std::size_t> pending) {
  PartitionCache& cache = *cache_;
  const std::vector<std::uint32_t>& chosen = round.partitions;
  // Pin the warm partitions (ranked, then fill) before any cold acquire,
  // so no cold load evicts a planned one; then demand-load the cold ones
  // and start the best not-yet-resident partition moving.
  round.ready.assign(chosen.size(), 0.0);
  const auto pin_slot = [&](std::size_t i) {
    round.ready[i] = i < round.ranked
                         ? cache.acquire(chosen[i], device, pending)
                         : cache.pin(chosen[i]);
  };
  for (std::size_t i = 0; i < round.warm; ++i) pin_slot(i);
  for (std::size_t i = round.ranked; i < chosen.size(); ++i) pin_slot(i);
  for (std::size_t i = round.warm; i < round.ranked; ++i) pin_slot(i);
  for (const std::uint32_t p : round.order) {
    if (cache.on_device(p)) continue;  // also skips every chosen one
    cache.prefetch(p, device, pending);
    break;
  }
}

// Barrier residency: every chosen partition is copied onto its slot's
// stream each round; the copies share the host link.
void OomEngine::copy_round(sim::Device& device, const Round& round,
                           OomMetrics& metrics) {
  for (std::size_t i = 0; i < round.partitions.size(); ++i) {
    const std::uint32_t p = round.partitions[i];
    device.transfer().host_to_device(device.stream(i % kBarrierStreams),
                                     parts_->part(p).bytes(),
                                     "partition " + std::to_string(p));
    ++metrics.partition_transfers;
    metrics.bytes_transferred += parts_->part(p).bytes();
  }
}

std::span<const sim::KernelRecord> OomEngine::record_windows(
    sim::Device& device, const Round& round,
    std::span<const sim::Device::PipelinedKernel> kernels) {
  // Pipelined record: one fused kernel window per partition that ran, on
  // its lane's stream, placed on the device's SM ledger. A window opens at max(bytes-ready,
  // stream-ready), and a warm partition's bytes are ready immediately —
  // so warm partitions compute while the round's cold transfers (and the
  // prefetch behind them) are still on the link; no residency-boundary
  // barrier appears anywhere. The SMs earlier rounds leave free are
  // shared by the work each window did (its processed entries; evenly
  // without block balancing, §V-B), and a window that ends hands its SMs
  // to the ones still running. A fill window that processed no entry
  // records nothing.
  std::vector<sim::Device::RoundWindow> windows;
  windows.reserve(round.partitions.size());
  for (std::size_t i = 0; i < round.partitions.size(); ++i) {
    const std::uint64_t tasks = kernels[i].num_tasks;
    if (i >= round.ranked && tasks == 0) continue;
    const std::uint32_t p = round.partitions[i];
    windows.push_back(sim::Device::RoundWindow{
        "oom_cached_p" + std::to_string(p), cache_->stream_index(p),
        round.ready[i],
        static_cast<double>(options_.oom_block_balancing
                                ? tasks
                                : std::min<std::uint64_t>(tasks, 1)),
        kernels[i]});
  }
  // No later window opens before a stream of a partition on the device
  // is ready, nor before the link frees for a cold one's copy.
  double horizon = device.transfer().link_free();
  for (std::uint32_t p = 0; p < options_.num_partitions; ++p) {
    if (cache_->on_device(p)) {
      horizon = std::min(horizon,
                         device.stream(cache_->stream_index(p)).ready_time());
    }
  }
  device.prune_ledger(horizon);
  return device.record_round(windows);
}

// Barrier record: one oom_sample_p<id> kernel per wave, in the barrier's
// launch order (pass-major), on its slot's stream at the slot's fixed SM
// share, outside the ledger.
std::vector<double> OomEngine::record_waves(
    sim::Device& device, const Round& round,
    std::span<const sim::Device::Wave> waves, OomMetrics& metrics) {
  std::vector<double> seconds(round.partitions.size(), 0.0);
  for (const sim::Device::Wave& wave : waves) {
    const std::uint32_t slot = wave.kernel;
    const std::string name =
        "oom_sample_p" + std::to_string(round.partitions[slot]);
    seconds[slot] += device.record_pipelined(
        name, device.stream(slot % kBarrierStreams), round.shares[slot],
        wave.tasks).duration();
    ++metrics.kernel_launches;
  }
  return seconds;
}

}  // namespace csaw
