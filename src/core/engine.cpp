#include "core/engine.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace csaw {

std::string to_string(Schedule schedule) {
  switch (schedule) {
    case Schedule::kPipelined:
      return "pipelined";
    case Schedule::kStepBarrier:
      return "step_barrier";
  }
  return "unknown";
}

void validate_run_tags(std::span<const std::uint32_t> tags,
                       const RunControl& control,
                       std::size_t num_instances) {
  CSAW_CHECK_MSG(tags.empty() || tags.size() == num_instances,
                 "instance tags have " << tags.size() << " entries for "
                                       << num_instances << " instances");
  for (std::size_t i = 1; i < tags.size(); ++i) {
    CSAW_CHECK_MSG(tags[i - 1] < tags[i],
                   "instance tags must be strictly increasing (tag "
                       << tags[i] << " at index " << i << " follows "
                       << tags[i - 1] << ")");
  }
  const std::vector<CancelToken>& tokens = control.instance_cancel;
  CSAW_CHECK_MSG(tokens.empty() || tokens.size() == num_instances,
                 "RunControl::instance_cancel has "
                     << tokens.size() << " tokens for " << num_instances
                     << " instances");
}

void validate_tagged_run(std::span<const std::vector<VertexId>> seeds,
                         std::span<const std::uint32_t> tags,
                         const RunControl& control) {
  CSAW_CHECK_MSG(tags.size() == seeds.size(),
                 "run_tagged needs one tag per instance: " << tags.size()
                     << " tags for " << seeds.size() << " seed lists");
  validate_run_tags(tags, control, seeds.size());
}

void complete_remaining(SampleStore& samples, const RunControl& control) {
  if (!samples.streaming()) return;
  const bool may_cancel = control.may_cancel();
  for (std::uint32_t i = 0; i < samples.num_instances(); ++i) {
    if (samples.completed(i)) continue;
    if (may_cancel && control.instance_cancelled(i)) continue;
    samples.complete(i);
  }
  samples.set_completion_callback({});
}

void validate_seeds(std::span<const std::vector<VertexId>> seeds,
                    VertexId num_vertices) {
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (const VertexId seed : seeds[i]) {
      CSAW_CHECK_MSG(seed < num_vertices,
                     "seed " << seed << " of instance " << i
                             << " is not a vertex (the graph has "
                             << num_vertices << ")");
    }
  }
}

namespace {

// A vertex's weights are read once per SELECT as a span. This one check
// bounds every weights[e] index below, since e always indexes adj.
void check_weights_aligned(std::span<const VertexId> adj,
                           std::span<const float> weights) {
  CSAW_CHECK_MSG(weights.empty() || weights.size() == adj.size(),
                 "edge weights (" << weights.size()
                                  << ") do not align with adjacency ("
                                  << adj.size() << ")");
}

/// Weight of the e-th out-edge given its vertex's weight span (an empty
/// span means unweighted: every weight reads 1.0).
float weight_at(std::span<const float> weights, std::size_t e) {
  return weights.empty() ? 1.0f : weights[e];
}

}  // namespace

namespace rng_slots {
std::uint32_t frontier_slot_base(std::uint32_t slot) {
  CSAW_CHECK_MSG(slot <= kMaxFrontierSlot,
                 "frontier slot " << slot << " exceeds the RNG slot space; "
                 "set SamplingSpec::branching_cap or reduce depth");
  return (slot + 1) << kPerFrontierShift;
}
}  // namespace rng_slots

FrontierResult process_frontier_vertex(
    const GraphView& view, const Policy& policy, const SamplingSpec& spec,
    const StaticCtpsRows* rows, const CounterStream& rng,
    ItsSelector& selector, InstanceState& instance,
    const FrontierWorkItem& item, sim::WarpContext& warp,
    std::vector<float>& bias_scratch) {
  FrontierResult result;

  // GATHERNEIGHBORS (Fig. 2(b) line 5): one row_ptr pair plus the
  // adjacency list stream in from global memory.
  const EdgeIndex degree = view.degree(item.vertex);
  warp.charge_global(2 * sizeof(EdgeIndex) +
                     degree * sizeof(VertexId));
  if (degree == 0) return result;

  const std::uint32_t slot_base = rng_slots::frontier_slot_base(item.slot);

  // NeighborSize: constant, or drawn per vertex (forest fire).
  std::uint32_t k = spec.neighbor_size;
  if (spec.variable_neighbor_size) {
    const double r =
        rng.uniform(item.instance, item.depth,
                    slot_base + rng_slots::kVariableSizeOffset, 0);
    k = spec.variable_neighbor_size(degree, r);
    if (spec.branching_cap > 0) k = std::min(k, spec.branching_cap);
    warp.charge_rounds(2);
    if (k == 0) return result;
  }

  const InstanceContext ctx{
      item.instance, item.depth, instance.prev_vertex, instance.seed_vertex,
      instance.visited.size() > 0 ? &instance.visited : nullptr};

  const auto adj = view.neighbors(item.vertex);
  const auto weights = view.edge_weights(item.vertex);
  check_weights_aligned(adj, weights);
  const std::span<const float> row =
      rows != nullptr ? rows->row(view.graph(), item.vertex)
                      : std::span<const float>();
  std::vector<std::uint32_t> selected;
  if (!row.empty()) {
    // Static EDGEBIAS, with replacement: the CTPS was built once for the
    // graph. Charge the lane-parallel EDGEBIAS round below; SELECT charges
    // the rebuild and then only locates in the row.
    CSAW_CHECK(row.size() == adj.size());
    warp.charge_tiles(adj.size(), 1);
    selected = selector.select_prebuilt(
        row, k, rng, SelectCoords{item.instance, item.depth, slot_base},
        warp);
  } else if (spec.sample_all_neighbors) {
    // Snowball: the whole neighbor list is the sample; no SELECT.
    selected.resize(adj.size());
    std::iota(selected.begin(), selected.end(), 0u);
    warp.charge_rounds((adj.size() + sim::WarpContext::kLanes - 1) /
                       sim::WarpContext::kLanes);
  } else {
    // EDGEBIAS over the NeighborPool, evaluated lane-parallel (one
    // lock-step round per 32 edges).
    bias_scratch.resize(adj.size());
    double total_bias = 0.0;
    for (std::size_t e = 0; e < adj.size(); ++e) {
      const EdgeRef edge{item.vertex, adj[e], weight_at(weights, e),
                         static_cast<EdgeIndex>(e)};
      bias_scratch[e] = policy.eval_edge_bias(view, edge, ctx);
      total_bias += bias_scratch[e];
    }
    warp.charge_tiles(adj.size(), 1);
    if (total_bias <= 0.0) return result;  // nothing selectable

    // Sampling without replacement collides against the instance's whole
    // sample so far: the persistent per-warp bitmap already holds bits for
    // visited candidates (paper §II-A, Fig. 7).
    std::vector<std::uint32_t> pre_selected;
    if (spec.filter_visited && instance.visited.size() > 0) {
      for (std::size_t e = 0; e < adj.size(); ++e) {
        if (instance.visited.test(adj[e])) {
          pre_selected.push_back(static_cast<std::uint32_t>(e));
        }
      }
    }

    selected = selector.select(
        bias_scratch, k, rng,
        SelectCoords{item.instance, item.depth, slot_base}, warp,
        pre_selected);
  }

  // UPDATE (line 7) + Samples.INSERT (line 8).
  const std::uint32_t cap = spec.effective_branching_cap();
  for (std::size_t s = 0; s < selected.size(); ++s) {
    const std::uint32_t e = selected[s];
    const EdgeRef edge{item.vertex, adj[e], weight_at(weights, e),
                       static_cast<EdgeIndex>(e)};
    result.sampled.push_back(Edge{edge.v, edge.u, edge.weight});

    const double r_update =
        rng.uniform(item.instance, item.depth,
                    slot_base + rng_slots::kUpdateOffset +
                        static_cast<std::uint32_t>(s),
                    0);
    warp.charge_rounds(1);
    const VertexId next = policy.eval_update(view, edge, ctx, r_update);
    if (next == kInvalidVertex) continue;
    CSAW_CHECK_MSG(next < view.num_vertices(),
                   "UPDATE returned out-of-range vertex " << next);
    if (spec.filter_visited && !instance.mark_visited(next)) continue;

    const std::uint32_t child_slot =
        cap > 0 ? item.slot * cap + static_cast<std::uint32_t>(s)
                : 0;  // ordinal slots are assigned by advance_instance
    result.next.emplace_back(next, child_slot);
  }
  warp.charge_global(result.sampled.size() * sizeof(Edge));
  return result;
}

void step_entry(const GraphView& view, const Policy& policy,
                const SamplingSpec& spec, const StaticCtpsRows* rows,
                const CounterStream& rng, WorkerScratch& scratch,
                InstanceState& instance, const FrontierEntry& entry,
                sim::WarpContext& warp, SampleStore& samples,
                std::vector<FrontierEntry>& children) {
  instance.prev_vertex = entry.prev;
  const FrontierResult result = process_frontier_vertex(
      view, policy, spec, rows, rng, scratch.neighbor_selector, instance,
      FrontierWorkItem{entry.vertex, entry.instance, entry.depth, entry.slot},
      warp, scratch.bias_scratch);
  for (const Edge& e : result.sampled) samples.add(entry.local, e);

  if (entry.depth + 1 >= spec.depth) return;  // walk/tree complete
  for (const auto& [vertex, slot] : result.next) {
    children.push_back(FrontierEntry{vertex, entry.instance, entry.local,
                                     entry.depth + 1, slot, entry.vertex});
  }
}

SamplingEngine::SamplingEngine(const GraphView& view, Policy policy,
                               SamplingSpec spec,
                               const SamplerOptions& options)
    : view_(&view),
      policy_(std::move(policy)),
      spec_(std::move(spec)),
      options_(options),
      rng_(options.seed),
      neighbor_config_([&] {
        SelectConfig c = options.select;
        c.with_replacement = spec_.with_replacement;
        return c;
      }()),
      frontier_config_([&] {
        SelectConfig c = options.select;
        c.with_replacement = false;  // pool positions are picked distinct
        return c;
      }()) {
  CSAW_CHECK(spec_.depth >= 1);
  CSAW_CHECK(spec_.neighbor_size >= 1);
  CSAW_CHECK(spec_.frontier_size >= 1);
  CSAW_CHECK_MSG(!(spec_.layer_mode && spec_.select_frontier),
                 "layer sampling selects its frontier implicitly");
  rows_ = static_ctps_rows(view, policy_, spec_);
}

void SamplingEngine::ensure_workers(std::uint32_t width) {
  workers_.reserve(width);
  while (workers_.size() < width) {
    workers_.emplace_back(neighbor_config_, frontier_config_);
  }
}

sim::ChainWidth pipelined_chain_width(
    const SamplingSpec& spec, std::span<const std::vector<VertexId>> seeds) {
  return spec.walk_shaped() && single_seeded(seeds)
             ? sim::ChainWidth::kCooperative
             : sim::ChainWidth::kOneWarp;
}

RunResult SamplingEngine::run(sim::Device& device,
                              std::span<const std::vector<VertexId>> seeds,
                              std::span<const std::uint32_t> tags,
                              const RunControl& control) {
  const auto num_instances = static_cast<std::uint32_t>(seeds.size());
  validate_run_tags(tags, control, num_instances);
  validate_seeds(seeds, view_->num_vertices());
  std::vector<InstanceState> instances(num_instances);
  for (std::uint32_t i = 0; i < num_instances; ++i) {
    instances[i].init(tags.empty() ? i : tags[i], seeds[i],
                      view_->num_vertices(), spec_.filter_visited);
  }

  RunResult result;
  result.mode = ExecutionMode::kInMemory;
  result.samples.reset(num_instances);
  if (control.on_instance_complete) {
    result.samples.set_completion_callback(control.on_instance_complete);
  }

  device.set_num_threads(options_.num_threads);
  ensure_workers(device.max_workers());

  const std::size_t log_begin = device.kernel_log().size();
  const double t0 = device.synchronize();

  run_chains(device, instances, result.samples, control,
             pipelined_chain_width(spec_, seeds));

  complete_remaining(result.samples, control);

  result.sim_seconds = device.synchronize() - t0;
  result.device_seconds = {result.sim_seconds};
  for (std::size_t i = log_begin; i < device.kernel_log().size(); ++i) {
    result.stats.merge(device.kernel_log()[i].stats);
  }
  return result;
}

RunResult SamplingEngine::run_single_seed(sim::Device& device,
                                          std::span<const VertexId> seeds) {
  return run(device, expand_single_seeds(seeds));
}

void SamplingEngine::run_chains(sim::Device& device,
                                std::vector<InstanceState>& instances,
                                SampleStore& samples,
                                const RunControl& control,
                                sim::ChainWidth widths) {
  // One chain per instance, running that instance's whole step loop.
  // Every mutable object a chain touches is its own (InstanceState, its
  // SampleStore row, chain-local positions/results) or per-worker
  // scratch, so chains interleave freely; the counter-based RNG addresses
  // draws by (instance, depth, slot), so the interleaving never changes
  // them. Both schedules run this body, so their samples are
  // byte-identical; only the recording differs.
  const sim::Device::ChainBody body =
      [&](std::uint64_t chain, sim::ChainContext& ctx, std::uint32_t worker) {
        const auto i = static_cast<std::uint32_t>(chain);
        InstanceState& inst = instances[i];
        WorkerScratch& ws = workers_[worker];
        // Chain span: one per instance, covering its whole step loop.
        // Host-time only — the simulated schedule never sees the recorder.
        std::uint64_t chain_span = 0;
        if (control.should_trace()) {
          chain_span = control.trace->begin_span(
              "chain",
              {{"instance", std::to_string(inst.id)},
               {"batch", std::to_string(control.trace_batch)}});
        }
        std::vector<std::uint32_t> positions;
        std::vector<TaskResult> results;
        for (std::uint32_t step = 0; step < spec_.depth && inst.active;
             ++step) {
          // Per-step cancellation poll: stop this chain at the boundary;
          // other chains' samples are untouched.
          if (control.may_cancel() && control.instance_cancelled(i)) break;
          positions.clear();
          results.clear();
          if (spec_.layer_mode) {
            if (!inst.pool.empty()) {
              TaskResult& r = results.emplace_back();
              ctx.run_task(0, step, [&](sim::WarpContext& warp) {
                r.next = sample_layer_body(inst, i, step, warp, ws, samples);
              });
            }
          } else {
            if (spec_.select_frontier) {
              if (!inst.pool.empty()) {
                ctx.run_task(0, 2ull * step, [&](sim::WarpContext& warp) {
                  positions = select_frontier_body(inst, step, warp, ws);
                });
              }
            } else {
              positions.resize(inst.pool.size());
              std::iota(positions.begin(), positions.end(), 0u);
            }
            for (const std::uint32_t position : positions) {
              TaskResult& r = results.emplace_back();
              r.pool_position = position;
              ctx.run_task(0, 2ull * step + 1, [&](sim::WarpContext& warp) {
                r.next = sample_position_body(inst, i, position, step, warp,
                                              ws, samples);
              });
            }
          }
          advance_instance(inst, positions, results);
        }
        // This chain ran the instance's whole step loop, so its sample
        // is final here — fire completion from the chain itself (the
        // streaming flush point). A blocked subscriber parks this chain
        // in host time; simulated time is already fully accounted.
        if (samples.streaming() &&
            !(control.may_cancel() && control.instance_cancelled(i))) {
          samples.complete(i);
        }
        if (control.should_trace()) {
          control.trace->end_span(
              chain_span, "chain",
              {{"edges", std::to_string(samples.edges(i).size())}});
        }
      };
  if (options_.schedule == Schedule::kPipelined) {
    device.run_pipeline("sample_pipeline", instances.size(), body,
                        control.cancel, widths);
    return;
  }
  // Step barrier: the tasks every chain ran in one group (a step's
  // frontier selection, its neighbor selection or its layer selection)
  // form one kernel, recorded in group order on the default stream.
  for (const sim::Device::Wave& wave :
       device.execute_waves(1, instances.size(), body, control.cancel)) {
    const char* name = spec_.layer_mode      ? "layer_select"
                       : wave.group % 2 == 0 ? "vertex_select"
                                             : "neighbor_select";
    device.record_pipelined(name, device.stream(0), 1.0, wave.tasks);
  }
}

std::vector<std::uint32_t> SamplingEngine::select_frontier_body(
    InstanceState& inst, std::uint32_t step, sim::WarpContext& warp,
    WorkerScratch& ws) {
  const InstanceContext ctx{
      inst.id, step, inst.prev_vertex, inst.seed_vertex,
      inst.visited.size() > 0 ? &inst.visited : nullptr};

  // VERTEXBIAS over the FrontierPool (Fig. 2(b) line 4).
  warp.charge_global(inst.pool.size() * sizeof(VertexId));
  ws.bias_scratch.resize(inst.pool.size());
  double total = 0.0;
  for (std::size_t p = 0; p < inst.pool.size(); ++p) {
    ws.bias_scratch[p] = policy_.eval_vertex_bias(*view_, inst.pool[p], ctx);
    total += ws.bias_scratch[p];
  }
  warp.charge_rounds((inst.pool.size() + sim::WarpContext::kLanes - 1) /
                     sim::WarpContext::kLanes);
  if (total <= 0.0) return {};

  return ws.frontier_selector->select(
      ws.bias_scratch, spec_.frontier_size, rng_,
      SelectCoords{inst.id, step, /*slot_base=*/0}, warp);
}

std::vector<std::pair<VertexId, std::uint32_t>>
SamplingEngine::sample_position_body(InstanceState& inst,
                                     std::uint32_t local_instance,
                                     std::uint32_t position,
                                     std::uint32_t step,
                                     sim::WarpContext& warp, WorkerScratch& ws,
                                     SampleStore& samples) {
  const FrontierWorkItem item{inst.pool[position], inst.id, step,
                              inst.pool_slots[position]};
  FrontierResult result =
      process_frontier_vertex(*view_, policy_, spec_, rows_, rng_,
                              ws.neighbor_selector, inst, item, warp,
                              ws.bias_scratch);
  for (const Edge& e : result.sampled) {
    samples.add(local_instance, e);
  }
  return std::move(result.next);
}

std::vector<std::pair<VertexId, std::uint32_t>>
SamplingEngine::sample_layer_body(InstanceState& inst,
                                  std::uint32_t local_instance,
                                  std::uint32_t step, sim::WarpContext& warp,
                                  WorkerScratch& ws, SampleStore& samples) {
  const InstanceContext ctx{
      inst.id, step, inst.prev_vertex, inst.seed_vertex,
      inst.visited.size() > 0 ? &inst.visited : nullptr};

  // Combined NeighborPool over every frontier vertex (paper §II-A:
  // layer sampling selects per layer, not per vertex).
  struct PoolEdge {
    VertexId v;
    VertexId u;
    float w;
    EdgeIndex k;
  };
  std::vector<PoolEdge> pool_edges;
  for (VertexId v : inst.pool) {
    const auto adj = view_->neighbors(v);
    const auto weights = view_->edge_weights(v);
    check_weights_aligned(adj, weights);
    warp.charge_global(2 * sizeof(EdgeIndex) + adj.size() * sizeof(VertexId));
    for (std::size_t e = 0; e < adj.size(); ++e) {
      pool_edges.push_back(PoolEdge{v, adj[e], weight_at(weights, e),
                                    static_cast<EdgeIndex>(e)});
    }
  }
  if (pool_edges.empty()) return {};

  ws.bias_scratch.resize(pool_edges.size());
  double total = 0.0;
  for (std::size_t e = 0; e < pool_edges.size(); ++e) {
    const EdgeRef edge{pool_edges[e].v, pool_edges[e].u, pool_edges[e].w,
                       pool_edges[e].k};
    ws.bias_scratch[e] = policy_.eval_edge_bias(*view_, edge, ctx);
    total += ws.bias_scratch[e];
  }
  warp.charge_rounds((pool_edges.size() + sim::WarpContext::kLanes - 1) /
                     sim::WarpContext::kLanes);
  if (total <= 0.0) return {};

  // Pool entries whose endpoint is already sampled collide (the
  // persistent bitmap is vertex-indexed). Note: two pool entries can
  // share an endpoint via different frontier vertices; selecting one
  // does not block the other within this call.
  std::vector<std::uint32_t> pre_selected;
  if (spec_.filter_visited && inst.visited.size() > 0) {
    for (std::size_t e = 0; e < pool_edges.size(); ++e) {
      if (inst.visited.test(pool_edges[e].u)) {
        pre_selected.push_back(static_cast<std::uint32_t>(e));
      }
    }
  }

  const std::uint32_t slot_base = rng_slots::frontier_slot_base(0);
  const auto selected = ws.neighbor_selector.select(
      ws.bias_scratch, spec_.neighbor_size, rng_,
      SelectCoords{inst.id, step, slot_base}, warp, pre_selected);

  std::vector<std::pair<VertexId, std::uint32_t>> next;
  for (std::size_t s = 0; s < selected.size(); ++s) {
    const PoolEdge& pe = pool_edges[selected[s]];
    const EdgeRef edge{pe.v, pe.u, pe.w, pe.k};
    samples.add(local_instance, Edge{pe.v, pe.u, pe.w});
    const double r_update = rng_.uniform(
        inst.id, step,
        slot_base + rng_slots::kUpdateOffset + static_cast<std::uint32_t>(s),
        0);
    const VertexId nxt = policy_.eval_update(*view_, edge, ctx, r_update);
    if (nxt == kInvalidVertex) continue;
    if (spec_.filter_visited && !inst.mark_visited(nxt)) continue;
    next.emplace_back(nxt, static_cast<std::uint32_t>(s));
  }
  return next;
}

void SamplingEngine::advance_instance(
    InstanceState& inst, const std::vector<std::uint32_t>& frontier_positions,
    std::span<const TaskResult> results) const {
  const std::uint32_t cap = spec_.effective_branching_cap();

  // node2vec context: the vertex explored at this step. Meaningful for
  // walk-shaped specs (single frontier vertex per step).
  if (!frontier_positions.empty()) {
    inst.prev_vertex = inst.pool[frontier_positions.back()];
  }

  if (spec_.select_frontier) {
    // Replace each consumed pool position in place with its UPDATE
    // results (multi-dimensional random walk semantics, Fig. 4), via a
    // position-indexed lookup (pool positions are distinct within a
    // step, so the last write per position is the only one).
    std::vector<const std::vector<std::pair<VertexId, std::uint32_t>>*>
        next_at(inst.pool.size(), nullptr);
    for (const TaskResult& result : results) {
      next_at[result.pool_position] = &result.next;
    }
    std::vector<char> consumed(inst.pool.size(), 0);
    for (std::uint32_t p : frontier_positions) consumed[p] = 1;

    std::vector<VertexId> new_pool;
    std::vector<std::uint32_t> new_slots;
    new_pool.reserve(inst.pool.size());
    new_slots.reserve(inst.pool.size());
    for (std::uint32_t p = 0; p < inst.pool.size(); ++p) {
      if (!consumed[p]) {
        new_pool.push_back(inst.pool[p]);
        new_slots.push_back(inst.pool_slots[p]);
        continue;
      }
      if (const auto* next = next_at[p]) {
        for (const auto& [vertex, slot] : *next) {
          new_pool.push_back(vertex);
          // ns=1 select-frontier keeps the replaced entry's slot, which
          // both keeps slots unique within the pool and bounds growth.
          new_slots.push_back(cap == 1 ? inst.pool_slots[p] : slot);
        }
      }
    }
    inst.pool = std::move(new_pool);
    inst.pool_slots = std::move(new_slots);
  } else {
    // BFS-style: next pool is the concatenation of UPDATE results in
    // task order.
    std::vector<VertexId> new_pool;
    std::vector<std::uint32_t> new_slots;
    for (const TaskResult& result : results) {
      for (const auto& [vertex, slot] : result.next) {
        new_pool.push_back(vertex);
        new_slots.push_back(slot);
      }
    }
    if (cap == 0) {
      // Unbounded branching: ordinal slots.
      for (std::size_t s = 0; s < new_slots.size(); ++s) {
        new_slots[s] = static_cast<std::uint32_t>(s);
      }
    }
    inst.pool = std::move(new_pool);
    inst.pool_slots = std::move(new_slots);
  }

  if (inst.pool.empty()) inst.active = false;
}

}  // namespace csaw
