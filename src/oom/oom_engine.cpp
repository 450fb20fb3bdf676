#include "oom/oom_engine.hpp"

#include <algorithm>
#include <numeric>

#include "oom/cache/partition_scheduler.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace csaw {
namespace {

/// Deterministic batch order: entries sorted by (instance, depth, slot).
/// The random draws do not depend on this order (counter-based RNG), but
/// visited-filter races within an instance resolve deterministically.
void sort_batch(std::vector<FrontierEntry>& batch) {
  std::sort(batch.begin(), batch.end(),
            [](const FrontierEntry& a, const FrontierEntry& b) {
              if (a.instance != b.instance) return a.instance < b.instance;
              if (a.depth != b.depth) return a.depth < b.depth;
              return a.slot < b.slot;
            });
}

}  // namespace

OomEngine::OomEngine(const CsrGraph& graph, Policy policy, SamplingSpec spec,
                     OomConfig config)
    : OomEngine(graph, std::move(policy), std::move(spec), config,
                std::make_shared<const PartitionedGraph>(
                    graph, config.num_partitions)) {}

OomEngine::OomEngine(const CsrGraph& graph, Policy policy, SamplingSpec spec,
                     OomConfig config,
                     std::shared_ptr<const PartitionedGraph> parts)
    : graph_(&graph),
      policy_(std::move(policy)),
      spec_(std::move(spec)),
      config_(config),
      rng_(config.engine.seed),
      select_config_([&] {
        SelectConfig c = config.engine.select;
        c.with_replacement = spec_.with_replacement;
        return c;
      }()),
      parts_(std::move(parts)) {
  CSAW_CHECK(parts_ != nullptr);
  CSAW_CHECK_MSG(&parts_->whole() == graph_,
                 "shared PartitionedGraph belongs to a different graph");
  CSAW_CHECK_MSG(parts_->num_parts() == config.num_partitions,
                 "shared PartitionedGraph has "
                     << parts_->num_parts() << " partitions, config wants "
                     << config.num_partitions);
  CSAW_CHECK_MSG(!spec_.select_frontier && !spec_.layer_mode &&
                     !spec_.sample_all_neighbors,
                 "spec requires whole-graph frontier state; "
                 "use the in-memory engine");
  CSAW_CHECK_MSG(spec_.effective_branching_cap() > 0,
                 "out-of-order sampling needs order-independent RNG slots; "
                 "set SamplingSpec::branching_cap");
  CSAW_CHECK(config.resident_partitions >= 1);
  CSAW_CHECK(config.resident_partitions <= config.num_partitions);
  CSAW_CHECK(config.num_streams >= 1);
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

OomRun OomEngine::run(sim::Device& device,
                      std::span<const std::vector<VertexId>> seeds) {
  const auto num_instances = static_cast<std::uint32_t>(seeds.size());
  validate_instance_tags(config_.engine, num_instances);
  validate_seeds(seeds, graph_->num_vertices());
  instances_.assign(num_instances, InstanceState());
  for (std::uint32_t i = 0; i < num_instances; ++i) {
    instances_[i].init(config_.engine.global_instance_id(i), seeds[i],
                       graph_->num_vertices(), spec_.filter_visited);
  }

  OomRun result;
  result.samples.reset(num_instances);
  samples_ = &result.samples;

  queues_.assign(config_.num_partitions, FrontierQueue{});
  chain_of_.assign(num_instances, ~0u);
  const RunControl& control = config_.engine.control;
  streaming_ = static_cast<bool>(control.on_instance_complete);
  if (streaming_) {
    result.samples.set_completion_callback(control.on_instance_complete);
    queued_.assign(num_instances, 0);
  }

  device.set_num_threads(config_.engine.num_threads);
  ensure_workers(device.max_workers());

  // The pipelined schedule pages through the demand cache; kStepBarrier
  // runs the paper's barriered waves and never touches it.
  const bool cached = config_.engine.schedule == Schedule::kPipelined;
  CacheMetrics cache_before;
  if (cached) {
    if (cache_ == nullptr) {
      cache_ = std::make_shared<PartitionCache>(
          parts_, CacheLimits{.partitions = config_.resident_partitions});
    }
    // A fresh device and simulated clock, and this run's fault, retry
    // and trace handles: a service-owned cache shared across batches
    // follows the current batch.
    cache_->begin_run(config_.fault_injector, config_.transfer_retry,
                      control.trace, control.trace_batch);
    cache_before = cache_->metrics();
  }

  const std::size_t log_begin = device.kernel_log().size();
  const std::size_t transfer_begin = device.transfer().log().size();
  const double t0 = device.synchronize();
  std::uint32_t round_robin_cursor = 0;
  RunningStat imbalance;

  // Batched multi-instance sampling keeps every instance in one merged
  // queue set; the non-batched baseline can only keep a gang of
  // per-instance queues resident and pays transfers per gang (§V-C).
  const std::uint32_t gang =
      config_.batched ? std::max(num_instances, 1u)
                      : std::max(config_.unbatched_gang_size, 1u);

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
            seed, config_.engine.global_instance_id(i), /*local=*/i,
            /*depth=*/0, static_cast<std::uint32_t>(s), kInvalidVertex});
        if (streaming_) ++queued_[i];
      }
    }

    if (cached) {
      run_cached_pipelined(device, result, imbalance,
                           pipelined_chain_width(spec_, seeds));
    } else {
      schedule_until_drained(device, result, round_robin_cursor, imbalance);
    }
  }

  // The barrier (wave) schedule tracks no per-instance counts, and
  // zero-seed instances never enter a queue — both complete here.
  complete_remaining(result.samples, control);
  streaming_ = false;

  result.sim_seconds = device.synchronize() - t0;
  result.metrics.kernel_imbalance = imbalance.mean();
  if (cached) {
    // The cache counted every paged event once; the run's share is the
    // difference over the run.
    const CacheMetrics& cm = cache_->metrics();
    result.metrics.partition_transfers = cm.transfers - cache_before.transfers;
    result.metrics.bytes_transferred =
        cm.bytes_loaded - cache_before.bytes_loaded;
    result.metrics.cache_hits = cm.hits - cache_before.hits;
    result.metrics.cache_evictions = cm.evictions - cache_before.evictions;
    result.metrics.prefetch_transfers =
        cm.prefetch_loads - cache_before.prefetch_loads;
    result.metrics.transfer_faults =
        cm.transfer_faults - cache_before.transfer_faults;
    result.metrics.transfer_retries =
        cm.transfer_retries - cache_before.transfer_retries;
    result.metrics.transfer_overlap_seconds =
        device.transfer_kernel_overlap(transfer_begin, log_begin);
  }
  for (std::size_t i = log_begin; i < device.kernel_log().size(); ++i) {
    result.stats.merge(device.kernel_log()[i].stats);
  }
  samples_ = nullptr;
  return result;
}

void OomEngine::schedule_until_drained(sim::Device& device, OomRun& result,
                                       std::uint32_t& round_robin_cursor,
                                       RunningStat& imbalance) {
  for (;;) {
    // --- Plan: which partitions get the device this round (1 in Fig. 8).
    std::vector<std::uint32_t> candidates;
    for (std::uint32_t p = 0; p < config_.num_partitions; ++p) {
      if (!queues_[p].empty()) candidates.push_back(p);
    }
    if (candidates.empty()) break;

    RoundPlan plan;
    if (config_.workload_aware) {
      // Most active vertices first (stable for determinism).
      std::stable_sort(candidates.begin(), candidates.end(),
                       [this](std::uint32_t a, std::uint32_t b) {
                         return queues_[a].size() > queues_[b].size();
                       });
      candidates.resize(std::min<std::size_t>(candidates.size(),
                                              config_.resident_partitions));
      plan.partitions = candidates;
    } else {
      // Baseline: next active partitions in id order from a cursor.
      for (std::uint32_t step = 0;
           step < config_.num_partitions &&
           plan.partitions.size() < config_.resident_partitions;
           ++step) {
        const std::uint32_t p =
            (round_robin_cursor + step) % config_.num_partitions;
        if (!queues_[p].empty()) plan.partitions.push_back(p);
      }
      round_robin_cursor =
          (plan.partitions.back() + 1) % config_.num_partitions;
    }

    // --- Thread-block based workload balancing (3 in Fig. 8).
    const std::size_t chosen = plan.partitions.size();
    plan.fractions = sm_fractions(plan.partitions);

    // --- Transfer each chosen partition onto its stream (2 in Fig. 8);
    // transfers share the host link, kernels share SMs by fraction.
    for (std::size_t i = 0; i < chosen; ++i) {
      const std::uint32_t p = plan.partitions[i];
      sim::Stream& stream = device.stream(i % config_.num_streams);
      device.transfer().host_to_device(stream, parts_->part(p).bytes(),
                                       "partition " + std::to_string(p));
      ++result.metrics.partition_transfers;
      result.metrics.bytes_transferred += parts_->part(p).bytes();
    }

    // --- Sample the resident partitions. All chosen partitions are
    // resident *simultaneously*: with workload-aware scheduling each is
    // released only when its frontier queue drains, and entries one
    // resident partition inserts into another resident partition's queue
    // are consumed within the same residency (paper §V-B). The baseline
    // processes a single wave per transfer.
    std::vector<double> kernel_time(chosen, 0.0);
    const std::size_t log_mark = device.kernel_log().size();
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t i = 0; i < chosen; ++i) {
        const std::uint32_t p = plan.partitions[i];
        if (queues_[p].empty()) continue;
        sim::Stream& stream = device.stream(i % config_.num_streams);
        run_wave(device, stream, p, plan.fractions[i], result.metrics);
        progress = config_.workload_aware;
      }
    }
    for (std::size_t k = log_mark; k < device.kernel_log().size(); ++k) {
      const auto& record = device.kernel_log()[k];
      for (std::size_t i = 0; i < chosen; ++i) {
        if (record.name ==
            "oom_sample_p" + std::to_string(plan.partitions[i])) {
          kernel_time[i] += record.duration();
        }
      }
    }
    ++result.metrics.scheduling_rounds;

    if (chosen >= 2) {
      RunningStat per_round;
      for (double t : kernel_time) per_round.add(t);
      if (per_round.mean() > 0.0) {
        imbalance.add(per_round.stddev() / per_round.mean());
      }
    }
  }
}

std::vector<double> OomEngine::sm_fractions(
    std::span<const std::uint32_t> partitions) const {
  const std::size_t chosen = partitions.size();
  std::vector<double> fractions(chosen, 1.0 / static_cast<double>(chosen));
  if (config_.block_balancing && chosen > 1) {
    double total = 0.0;
    for (std::uint32_t p : partitions) {
      total += static_cast<double>(queues_[p].size());
    }
    for (std::size_t i = 0; i < chosen; ++i) {
      fractions[i] = std::max(
          0.05, static_cast<double>(queues_[partitions[i]].size()) / total);
    }
    const double sum =
        std::accumulate(fractions.begin(), fractions.end(), 0.0);
    for (double& f : fractions) f /= sum;
  }
  return fractions;
}

OomRun OomEngine::run_single_seed(sim::Device& device,
                                  std::span<const VertexId> seeds) {
  return run(device, expand_single_seeds(seeds));
}

void OomEngine::run_cached_pipelined(sim::Device& device, OomRun& result,
                                     RunningStat& imbalance,
                                     sim::ChainWidth widths) {
  PartitionCache& cache = *cache_;
  std::vector<std::size_t> pending(config_.num_partitions, 0);
  constexpr std::uint32_t kNoChain = ~0u;
  constexpr std::uint32_t kNotResident = ~0u;
  std::vector<std::uint32_t> slot_of(config_.num_partitions, kNotResident);
  const RunControl& control = config_.engine.control;
  const bool may_cancel = control.may_cancel();

  for (;;) {
    for (std::uint32_t p = 0; p < config_.num_partitions; ++p) {
      pending[p] = queues_[p].size();
    }
    const auto order = PartitionScheduler::rank(pending, cache);
    if (order.empty()) break;

    // If anything below throws — a TransferError from an exhausted
    // acquire, a CheckError — the guard releases this round's pins and
    // settles in-flight loads, so the cache is reusable by the next
    // batch (no pin survives, no partition stays kLoading).
    PartitionCache::RoundGuard round_guard(cache);

    // Compute set: warm partitions first (their bytes are already on the
    // device — a transfer saved beats any queue-length ordering), then
    // cold ones; within each class the scheduler's pending-walker rank
    // decides. A partition that would overflow the cache's limits beside
    // the set so far and the in-flight prefetch (which no acquire may
    // evict) is skipped, as a later, smaller one may still fit; so every
    // acquire of the set succeeds. Under a partition-count limit of four
    // or more, while more partitions are runnable than it allows, one
    // stays free as the prefetch pipeline that streams the next-ranked
    // cold partition in behind the computing set; at three or fewer a
    // reserved place costs more compute width than prefetching saves.
    // The places the ranked set leaves free take every other partition
    // on the device (the warm fill), so a walker stepping into one is
    // consumed this round instead of waiting for the next (§V-B).
    const std::size_t places = std::min<std::size_t>(
        cache.limits().partitions, config_.num_partitions);
    const std::size_t max_compute =
        order.size() <= places || places < 4 ? places : places - 1;
    const std::uint32_t in_flight = cache.in_flight();
    std::uint64_t held_bytes =
        in_flight == PartitionCache::kNone ? 0 : parts_->bytes(in_flight);
    std::uint32_t held_count = in_flight == PartitionCache::kNone ? 0 : 1;
    std::vector<std::uint32_t> chosen;
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
    for (const std::uint32_t p : order) {
      if (cache.on_device(p)) choose(p);
    }
    const std::size_t warm_count = chosen.size();
    for (const std::uint32_t p : order) {
      if (!cache.on_device(p)) choose(p);
    }
    const std::size_t ranked_count = chosen.size();
    CSAW_CHECK_MSG(ranked_count > 0, "no runnable partition fits the cache");
    for (std::uint32_t p = 0; p < config_.num_partitions; ++p) {
      if (cache.on_device(p) && p != in_flight &&
          std::find(chosen.begin(), chosen.end(), p) == chosen.end()) {
        choose(p);
      }
    }
    const std::size_t chosen_count = chosen.size();

    // Pin the warm partitions (ranked, then fill) before any cold acquire,
    // so no cold load evicts a planned one; then demand-load the cold
    // ones and start the best not-yet-resident partition moving.
    std::vector<double> ready(chosen_count, 0.0);
    const auto pin_slot = [&](std::size_t i) {
      ready[i] = i < ranked_count
                     ? cache.acquire(chosen[i], device, pending)
                     : cache.pin(chosen[i]);
      slot_of[chosen[i]] = static_cast<std::uint32_t>(i);
    };
    for (std::size_t i = 0; i < warm_count; ++i) pin_slot(i);
    for (std::size_t i = ranked_count; i < chosen_count; ++i) pin_slot(i);
    for (std::size_t i = warm_count; i < ranked_count; ++i) pin_slot(i);
    for (const std::uint32_t p : order) {
      if (cache.on_device(p)) continue;  // also skips every chosen one
      cache.prefetch(p, device, pending);
      break;
    }

    // Split the chosen queues by instance into chains: each chain
    // consumes its own entries in (depth, slot) order — the per-instance
    // order of the barrier waves, which no residency schedule changes —
    // and entries routed between co-resident partitions are consumed
    // within the same round.
    std::vector<std::uint32_t> chain_instances;
    std::vector<std::vector<std::vector<FrontierEntry>>> chain_pending;
    for (std::size_t i = 0; i < chosen_count; ++i) {
      for (const FrontierEntry& e : queues_[chosen[i]].drain()) {
        // Streaming bookkeeping first: the entry leaves the queues either
        // way (processed or dropped by the cancel skip).
        if (streaming_) --queued_[e.local];
        // Cancelled instances' pending entries are dropped at the round
        // boundary; surviving instances' processing order is untouched.
        if (may_cancel && control.instance_cancelled(e.local)) continue;
        if (chain_of_[e.local] == kNoChain) {
          chain_of_[e.local] =
              static_cast<std::uint32_t>(chain_instances.size());
          chain_instances.push_back(e.local);
          chain_pending.emplace_back(chosen_count);
        }
        chain_pending[chain_of_[e.local]][i].push_back(e);
      }
    }
    const std::size_t num_chains = chain_instances.size();
    std::vector<std::vector<FrontierEntry>> routed_out(num_chains);

    const auto kernels = device.execute_pipelined(
        static_cast<std::uint32_t>(chosen_count), num_chains,
        [&](std::uint64_t chain, sim::ChainContext& ctx,
            std::uint32_t worker) {
          auto& mine = chain_pending[chain];
          auto& out = routed_out[chain];
          WorkerScratch& ws = workers_[worker];
          // One chain span per (round, instance) — OOM chains re-enter
          // each residency round, unlike the in-memory engine's
          // one-span-per-instance shape. Host-time only.
          std::uint64_t chain_span = 0;
          if (control.should_trace()) {
            chain_span = control.trace->begin_span(
                "chain",
                {{"instance",
                  std::to_string(config_.engine.global_instance_id(
                      chain_instances[chain]))},
                 {"batch", std::to_string(control.trace_batch)}});
          }
          std::vector<FrontierEntry> batch;
          std::vector<FrontierEntry> children;

          const auto process_one = [&](std::uint32_t p,
                                       const FrontierEntry& e,
                                       sim::WarpContext& warp) {
            children.clear();
            process_entry(p, e, warp, ws, children);
            for (const FrontierEntry& child : children) {
              const std::uint32_t slot =
                  slot_of[parts_->part_of(child.vertex)];
              if (slot == kNotResident) {
                out.push_back(child);
              } else {
                mine[slot].push_back(child);
              }
            }
          };

          bool progressed = true;
          for (std::uint64_t pass = 0; progressed; ++pass) {
            // Cooperative cancellation poll at the pass boundary: the
            // chain abandons its remaining entries (and anything already
            // routed out) without touching other chains' work.
            if (may_cancel &&
                control.instance_cancelled(chain_instances[chain])) {
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
              if (config_.batched) {
                for (const FrontierEntry& e : batch) {
                  ctx.run_task(slot, pass, [&](sim::WarpContext& warp) {
                    process_one(p, e, warp);
                  });
                }
              } else {
                ctx.run_task(slot, pass, [&](sim::WarpContext& warp) {
                  for (const FrontierEntry& e : batch) {
                    process_one(p, e, warp);
                  }
                });
              }
              progressed = config_.workload_aware;
            }
          }
          if (control.should_trace()) {
            control.trace->end_span(
                chain_span, "chain",
                {{"routed_out", std::to_string(out.size())}});
          }
        },
        control.cancel, widths);

    // --- Cross-residency timing: one fused kernel window per partition
    // that ran, on its lane's stream, placed on the device's SM ledger.
    // A window opens at max(bytes-ready, stream-ready), and a warm
    // partition's bytes are ready immediately — so warm partitions compute
    // while the round's cold transfers (and the prefetch behind them) are
    // still on the link; no residency-boundary barrier appears anywhere.
    // The SMs earlier rounds leave free are shared by the work each window
    // did (its processed entries; evenly without block balancing, §V-B),
    // and a window that ends hands its SMs to the ones still running. A
    // fill window that processed no entry records nothing.
    std::vector<sim::Device::RoundWindow> windows;
    windows.reserve(chosen_count);
    for (std::size_t i = 0; i < chosen_count; ++i) {
      const std::uint64_t tasks = kernels[i].num_tasks;
      if (i >= ranked_count && tasks == 0) continue;
      windows.push_back(sim::Device::RoundWindow{
          "oom_cached_p" + std::to_string(chosen[i]),
          cache.stream_index(chosen[i]), ready[i],
          static_cast<double>(config_.block_balancing
                                  ? tasks
                                  : std::min<std::uint64_t>(tasks, 1)),
          kernels[i]});
    }
    // No later window opens before a stream of a partition on the device
    // is ready, nor before the link frees for a cold one's copy.
    double horizon = device.transfer().link_free();
    for (std::uint32_t p = 0; p < config_.num_partitions; ++p) {
      if (cache.on_device(p)) {
        horizon = std::min(
            horizon, device.stream(cache.stream_index(p)).ready_time());
      }
    }
    device.prune_ledger(horizon);
    RunningStat per_round;
    double round_end = 0.0;
    for (const sim::KernelRecord& record : device.record_round(windows)) {
      per_round.add(record.duration());
      round_end = std::max(round_end, record.end);
      ++result.metrics.kernel_launches;
    }
    ++result.metrics.scheduling_rounds;
    if (windows.size() >= 2 && per_round.mean() > 0.0) {
      imbalance.add(per_round.stddev() / per_round.mean());
    }

    // Merge leftovers and outbound entries back in chain order (byte-
    // identical queue contents to the barrier waves — every consumer
    // sorts, so only the multiset matters).
    for (std::size_t c = 0; c < num_chains; ++c) {
      std::size_t returned = 0;
      for (std::size_t i = 0; i < chosen_count; ++i) {
        for (const FrontierEntry& e : chain_pending[c][i]) {
          queues_[chosen[i]].push(e);
        }
        returned += chain_pending[c][i].size();
      }
      for (const FrontierEntry& e : routed_out[c]) {
        queues_[parts_->part_of(e.vertex)].push(e);
      }
      returned += routed_out[c].size();
      if (streaming_) {
        queued_[chain_instances[c]] += static_cast<std::uint32_t>(returned);
      }
      chain_of_[chain_instances[c]] = kNoChain;
    }

    for (std::size_t i = 0; i < chosen_count; ++i) {
      slot_of[chosen[i]] = kNotResident;
      if (i < ranked_count) {
        cache.release(chosen[i]);
      } else {
        cache.unpin(chosen[i], kernels[i].num_tasks > 0);
      }
    }
    cache.settle(round_end);
    round_guard.commit();

    // Streaming flush point, after the round's pins are released: fire
    // completion for every instance of this round whose outstanding-entry
    // count reached zero — no entries left in any partition queue means
    // its sample is final. A blocked subscriber parks the driver in host
    // time only; the round's simulated timeline is already settled.
    if (streaming_) {
      for (const std::uint32_t local : chain_instances) {
        if (queued_[local] != 0 || samples_->completed(local)) continue;
        if (may_cancel && control.instance_cancelled(local)) continue;
        samples_->complete(local);
      }
    }
  }
}

void OomEngine::run_wave(sim::Device& device, sim::Stream& stream,
                         std::uint32_t p, double fraction,
                         OomMetrics& metrics) {
  std::vector<FrontierEntry> batch = queues_[p].drain();
  const RunControl& control = config_.engine.control;
  if (control.may_cancel()) {
    // Wave boundary is the barrier path's cancellation point: a cancelled
    // instance's entries are dropped before the kernel forms, so the
    // surviving entries' task order (and bytes) match an uncancelled run.
    std::erase_if(batch, [&](const FrontierEntry& e) {
      return control.instance_cancelled(e.local);
    });
  }
  if (batch.empty()) return;
  sort_batch(batch);

  if (config_.batched) {
    // BA: one kernel over the interleaved entries of all instances — any
    // warp takes any entry (vertex-grained work distribution, §V-C).
    // Next-depth entries land in per-task slots and are merged in task
    // order below, so queue contents match the serial schedule exactly.
    std::vector<std::vector<FrontierEntry>> routed(batch.size());
    device.launch(
        "oom_sample_p" + std::to_string(p), stream, fraction, batch.size(),
        [&](std::uint64_t t, sim::WarpContext& warp, std::uint32_t worker) {
          process_entry(p, batch[t], warp, workers_[worker], routed[t]);
        },
        // Entries of one instance share its visited set, prev_vertex and
        // sample vector; sort_batch made them contiguous.
        [&batch](std::uint64_t t) {
          return static_cast<std::uint64_t>(batch[t].instance);
        });
    for (const auto& slot : routed) {
      for (const FrontierEntry& e : slot) {
        queues_[parts_->part_of(e.vertex)].push(e);
      }
    }
  } else {
    // Instance-grained baseline: one warp owns all of an instance's
    // entries and processes them serially, so skewed instances straggle
    // (the imbalance BA removes, §V-C).
    std::vector<std::pair<std::size_t, std::size_t>> groups;
    std::size_t begin = 0;
    while (begin < batch.size()) {
      std::size_t end = begin + 1;
      while (end < batch.size() &&
             batch[end].instance == batch[begin].instance) {
        ++end;
      }
      groups.emplace_back(begin, end);
      begin = end;
    }
    std::vector<std::vector<FrontierEntry>> routed(groups.size());
    device.launch(
        "oom_sample_p" + std::to_string(p), stream, fraction, groups.size(),
        [&](std::uint64_t t, sim::WarpContext& warp, std::uint32_t worker) {
          for (std::size_t i = groups[t].first; i < groups[t].second; ++i) {
            process_entry(p, batch[i], warp, workers_[worker], routed[t]);
          }
        });
    for (const auto& slot : routed) {
      for (const FrontierEntry& e : slot) {
        queues_[parts_->part_of(e.vertex)].push(e);
      }
    }
  }
  ++metrics.kernel_launches;
}

void OomEngine::process_entry(std::uint32_t p, const FrontierEntry& entry,
                              sim::WarpContext& warp, WorkerScratch& scratch,
                              std::vector<FrontierEntry>& routed) {
  const PartitionView& view = parts_->view(p);
  // The entry carries its local instance index, so tagged runs skip the
  // O(log n) global→local search on every entry.
  const std::uint32_t local = entry.local;
  InstanceState& inst = instances_[local];
  inst.prev_vertex = entry.prev;

  const FrontierWorkItem item{entry.vertex, entry.instance, entry.depth,
                              entry.slot};
  FrontierResult result = process_frontier_vertex(
      view, policy_, spec_, rows_, rng_, scratch.neighbor_selector, inst,
      item, warp, scratch.bias_scratch);
  for (const Edge& e : result.sampled) samples_->add(local, e);

  if (entry.depth + 1 >= spec_.depth) return;  // walk/tree complete
  for (const auto& [vertex, slot] : result.next) {
    routed.push_back(FrontierEntry{vertex, entry.instance, entry.local,
                                   entry.depth + 1, slot, entry.vertex});
  }
}


}  // namespace csaw
