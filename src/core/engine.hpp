#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/frontier_queue.hpp"
#include "core/instance.hpp"
#include "core/policy.hpp"
#include "core/run_result.hpp"
#include "core/sample_store.hpp"
#include "core/static_ctps.hpp"
#include "gpusim/device.hpp"
#include "select/its.hpp"
#include "telemetry/trace.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace csaw {

/// Draws the per-vertex neighbor count for algorithms with a variable
/// NeighborSize (forest fire): given the vertex degree and one uniform
/// draw, return how many neighbors to sample.
using VariableNeighborSize =
    std::function<std::uint32_t(EdgeIndex degree, double r)>;

/// The parameter-based options of the framework (paper Fig. 2(b)):
/// everything an algorithm configures without writing API code.
struct SamplingSpec {
  /// Vertices selected from the FrontierPool per iteration (line 4).
  std::uint32_t frontier_size = 1;
  /// Neighbors selected per frontier vertex (line 6).
  std::uint32_t neighbor_size = 1;
  /// Iterations of the main loop (line 3). For random walks this is the
  /// walk length.
  std::uint32_t depth = 2;
  /// Random walks may revisit vertices; traversal-based sampling must not
  /// (paper §II-A).
  bool with_replacement = false;
  /// When true, VERTEXBIAS + SELECT choose `frontier_size` vertices from
  /// the pool each iteration and the chosen ones are *replaced in place*
  /// by their UPDATE results (multi-dimensional random walk). When false
  /// the whole pool is the frontier and the next pool is the concatenated
  /// UPDATE results (BFS-style advance).
  bool select_frontier = false;
  /// Drop UPDATE results that this instance already sampled.
  bool filter_visited = true;
  /// Layer sampling: pool the neighbors of *all* frontier vertices into
  /// one NeighborPool per instance and select `neighbor_size` from it,
  /// instead of per-vertex selection.
  bool layer_mode = false;
  /// Snowball sampling: skip SELECT entirely and take every neighbor of
  /// every frontier vertex (paper §II-A: "adds all neighbors of every
  /// sampled vertex"). Implies unbounded branching.
  bool sample_all_neighbors = false;
  /// Upper bound on UPDATE results per frontier vertex, used to assign
  /// order-independent RNG slots to children (child_slot =
  /// parent_slot * cap + s). 0 means "neighbor_size" — set explicitly for
  /// variable NeighborSize, or to 0 with unbounded branching (snowball),
  /// in which case children get ordinal slots (still deterministic, but
  /// only the in-memory engine supports it).
  std::uint32_t branching_cap = 0;
  /// Non-null for variable NeighborSize (forest fire). The result is
  /// clamped to branching_cap when a cap is set.
  VariableNeighborSize variable_neighbor_size;

  /// Effective cap (0 = unbounded / ordinal slot assignment).
  std::uint32_t effective_branching_cap() const noexcept {
    if (sample_all_neighbors) return 0;
    if (branching_cap > 0) return branching_cap;
    return variable_neighbor_size ? 0 : neighbor_size;
  }

  /// True for a random walk: one neighbor per step, sampling with
  /// replacement, no visited filtering and no pool-level kernels
  /// (frontier selection / layer / snowball / variable NeighborSize).
  /// Such a spec keeps the RNG slot at 0 along the chain, which makes a
  /// forwarded walker's draws shard-invariant (ShardRouter). An instance
  /// still runs one warp-task per seed each step, so only single-seeded
  /// walks run one task per step (pipelined_chain_width).
  bool walk_shaped() const noexcept {
    return neighbor_size == 1 && frontier_size == 1 && with_replacement &&
           !filter_visited && !select_frontier && !layer_mode &&
           !sample_all_neighbors && !variable_neighbor_size;
  }
};

/// How a pipelined launch of `spec` from `seeds` gives warps to its
/// chains (one chain per instance). A walk_shaped() spec whose instances
/// each start from one seed runs one warp-task per chain at a time, so
/// its chains widen cooperatively (sim::ChainWidth::kCooperative). Any
/// other launch keeps one warp per task: k seeds put k concurrent tasks
/// in a chain, and an unbatched out-of-memory task would walk several
/// neighbor lists.
sim::ChainWidth pipelined_chain_width(
    const SamplingSpec& spec, std::span<const std::vector<VertexId>> seeds);

/// How one run's sampling work is scheduled onto the simulated device.
enum class Schedule {
  /// Per-instance pipelining (paper §V, ThunderRW-style interleaving):
  /// instance i's step s+1 launches the moment *its own* step s
  /// completes — instances never wait on each other. Recorded as one
  /// persistent fused kernel per run (per resident partition for the
  /// out-of-memory engine); samples are byte-identical to kStepBarrier
  /// (both schedules run the same per-instance chains), only the
  /// simulated schedule — and therefore sim_seconds / seps() — improves.
  kPipelined,
  /// One global barrier per step: every instance's step s finishes before
  /// any instance's step s+1 starts. The same chains run, and the tasks
  /// they ran in one step group are recorded as one kernel
  /// (Device::execute_waves): one launch per step group and
  /// kernel-granular cost accounting.
  kStepBarrier,
};

/// Human-readable schedule name ("pipelined" / "step_barrier").
std::string to_string(Schedule schedule);

/// The per-run handles of one run: Sampler::run_tagged hands them to the
/// in-memory engine as EngineConfig::control and to OomEngine::run as an
/// argument, ShardRouter::run_tagged polls them itself. Every field is
/// optional; a default-constructed RunControl means "never cancelled,
/// buffered, untraced" and costs the hot path one branch per site.
struct RunControl {
  /// Run-level cooperative cancellation: when this token fires, chains
  /// stop at their next step boundary and not-yet-started chains are
  /// skipped entirely. Which chains had already started is
  /// thread-schedule-dependent, so a run-level token is only sound when
  /// the *whole run's* output will be discarded (e.g. a single-request
  /// batch). For per-request cancellation inside a coalesced batch use
  /// instance_cancel, whose effect is byte-deterministic.
  CancelToken cancel;
  /// Per-instance cancellation tokens: empty (no per-instance
  /// cancellation) or exactly one token per instance of the run. A fired
  /// token stops that instance at its next step boundary and drops its
  /// queued frontier work; the instance keeps the samples it completed,
  /// and every other instance's samples are unchanged (counter-based
  /// RNG, per-instance state). This is the form csaw::Service uses to
  /// cancel one request of a coalesced batch.
  std::vector<CancelToken> instance_cancel;
  /// Per-instance completion subscription (instance index of the run):
  /// fired exactly once per non-cancelled instance, as soon as that
  /// instance's sample is final — from the executing chain in the
  /// in-memory engine (either schedule), at a residency-round boundary in
  /// the out-of-memory engine, from an end-of-run sweep otherwise. The
  /// subscriber may move the row out of the store (streaming) or leave
  /// it. May be invoked concurrently from host worker threads and may
  /// block (backpressure); blocking parks the producing chain in host
  /// time only, so samples and sim_seconds are unchanged. Null =
  /// buffered run.
  SampleStore::CompletionCallback on_instance_complete;
  /// Per-request trace recorder (telemetry/trace.hpp), null by default.
  /// When set, engines emit chain spans (and the partition cache emits
  /// transfer spans) attributed to `trace_batch`. Recording only touches
  /// host time — simulated time and samples are byte-identical with or
  /// without a recorder.
  telemetry::TraceRecorder* trace = nullptr;
  /// Batch id stamped on every span this run emits (the service uses its
  /// dispatcher batch sequence number; standalone runs leave 0).
  std::uint64_t trace_batch = 0;

  /// True when a recorder is attached — the may_cancel() idiom: hot
  /// sites test this single pointer before building any event.
  bool should_trace() const noexcept { return trace != nullptr; }
  /// True when any cancellation token is armed — engines use this to
  /// skip per-entry polling entirely on the common path.
  bool may_cancel() const noexcept {
    return cancel.valid() || !instance_cancel.empty();
  }
  /// Whether instance `i` should stop (run-level or per-instance).
  bool instance_cancelled(std::uint32_t i) const noexcept {
    if (cancel.cancelled()) return true;
    return !instance_cancel.empty() && instance_cancel[i].cancelled();
  }
};

/// End-of-run completion sweep of a streaming store: fires completion for
/// every instance not yet completed and not cancelled, then detaches the
/// subscriber. Engines call it after their schedule returns, so whatever
/// the schedule did not fire itself (an out-of-memory instance that never
/// queued work, such as one with no seed) completes here. A no-op for a
/// buffered store.
void complete_remaining(SampleStore& samples, const RunControl& control);

/// Engine-level configuration.
struct EngineConfig {
  SelectConfig select;
  std::uint64_t seed = 0xC5A30001ull;
  /// Added to local instance indices to form the global instance id used
  /// in RNG coordinates. Multi-device runs give each device a disjoint
  /// range so the union of samples is independent of the device count.
  std::uint32_t instance_id_offset = 0;
  /// Per-instance global RNG ids, overriding the contiguous
  /// `instance_id_offset + i` assignment when non-empty: local instance i
  /// draws as global instance `instance_tags[i]`. This is how the service
  /// tier coalesces several requests into one engine run while keeping
  /// every request on its own Philox stream — a request's instances keep
  /// the ids they would have alone, so its samples are byte-identical in
  /// any batch. Must be strictly increasing and sized to the seed count
  /// (checked at run()).
  std::vector<std::uint32_t> instance_tags;

  /// Global RNG id of local instance `i` under this config.
  std::uint32_t global_instance_id(std::uint32_t i) const {
    return instance_tags.empty() ? instance_id_offset + i : instance_tags[i];
  }
  /// Host threads executing the simulated warp-tasks: 0 = auto (the
  /// CSAW_THREADS environment variable, else hardware_concurrency), 1 =
  /// the legacy serial path. Samples, seps() and kernel logs are
  /// byte-identical at any width — the counter-based RNG makes sampling
  /// order-independent (see README "Threading model").
  std::uint32_t num_threads = 0;
  /// Kernel schedule. Directly constructed engines default to the
  /// step-barrier executor (what the per-step figure benches measure);
  /// the csaw::Sampler facade defaults to kPipelined and plumbs its
  /// SamplerOptions::schedule through here.
  Schedule schedule = Schedule::kStepBarrier;
  /// The per-run handles (cancellation, completion, tracing).
  RunControl control;
};

/// Checks a run's per-instance inputs at engine entry: `tags` is empty
/// or holds one strictly increasing global id per instance, and
/// control.instance_cancel holds no token or one per instance.
/// validate_tagged_run checks the *whole* tag list this way before a
/// multi-device dispatch splits it into per-group subspans (each of
/// which would pass the per-engine check on its own).
void validate_instance_tags(std::span<const std::uint32_t> tags,
                            const RunControl& control,
                            std::size_t num_instances);

/// Checks a tagged run's inputs at entry (Sampler::run_tagged and
/// ShardRouter::run_tagged): exactly one tag per seed list, strictly
/// increasing, and no instance_cancel tokens or one per seed list.
void validate_tagged_run(std::span<const std::vector<VertexId>> seeds,
                         std::span<const std::uint32_t> tags,
                         const RunControl& control);

/// Checks at run entry that every seed names a vertex of a graph with
/// `num_vertices` vertices, naming the first that does not; instance
/// setup indexes per-vertex state by seed.
void validate_seeds(std::span<const std::vector<VertexId>> seeds,
                    VertexId num_vertices);

/// Result of one in-memory engine run. Prefer csaw::Sampler (sampler.hpp),
/// which returns the unified RunResult regardless of execution mode.
struct SampleRun {
  SampleStore samples;
  /// Simulated device seconds spent in sampling kernels.
  double sim_seconds = 0.0;
  /// Aggregated kernel stats over the run.
  sim::KernelStats stats;

  std::uint64_t sampled_edges() const { return samples.total_edges(); }
  /// The paper's SEPS metric (§VI).
  double seps() const {
    return sampled_edges_per_second(samples.total_edges(), sim_seconds);
  }
};

/// RNG-coordinate layout shared by the in-memory and out-of-memory
/// engines. Every SELECT/UPDATE draw is addressed by
/// (global instance id, depth, slot, attempt); these helpers carve the
/// 32-bit slot space so no two draws collide:
///   - the frontier entry with slot s owns slots [(s+1)<<11, (s+2)<<11)
///   - within that range: selection slots first, the variable-size draw
///     at +1023, then UPDATE draws at +1024+i.
/// Frontier selection (VERTEXBIAS) uses slot_base 0 of the same depth.
namespace rng_slots {
constexpr std::uint32_t kPerFrontierShift = 11;
constexpr std::uint32_t kVariableSizeOffset = 1023;
constexpr std::uint32_t kUpdateOffset = 1024;
constexpr std::uint32_t kMaxFrontierSlot = (1u << 20) - 1;

std::uint32_t frontier_slot_base(std::uint32_t slot);
}  // namespace rng_slots

/// One frontier vertex awaiting neighbor sampling — the unit of work both
/// engines share. `slot` is the RNG slot of this frontier entry within
/// (instance, depth); it is assigned at entry creation so processing order
/// never changes the random draws.
struct FrontierWorkItem {
  VertexId vertex = 0;
  std::uint32_t instance = 0;  ///< global instance id
  std::uint32_t depth = 0;
  std::uint32_t slot = 0;
};

/// Output of processing one frontier vertex.
struct FrontierResult {
  std::vector<Edge> sampled;
  /// UPDATE results with their pre-assigned child slots.
  std::vector<std::pair<VertexId, std::uint32_t>> next;
};

/// Per-worker mutable scratch for parallel chain execution: one slot per
/// host worker, indexed by the worker identity Device::run_chains passes
/// to the chain body. Selectors own CTPS/lane/detector buffers, and
/// bias_scratch is the EDGEBIAS/VERTEXBIAS staging array — state that one
/// warp-task must never observe from another.
struct WorkerScratch {
  ItsSelector neighbor_selector;
  /// Engaged only for engines with a frontier-selection kernel (the
  /// in-memory engine); the OOM engine has none and skips the state.
  std::optional<ItsSelector> frontier_selector;
  std::vector<float> bias_scratch;

  explicit WorkerScratch(const SelectConfig& neighbor)
      : neighbor_selector(neighbor) {}
  WorkerScratch(const SelectConfig& neighbor, const SelectConfig& frontier)
      : neighbor_selector(neighbor), frontier_selector(frontier) {}
};

/// Executes GATHERNEIGHBORS + EDGEBIAS + SELECT + UPDATE for one frontier
/// vertex against any GraphView. The in-memory engine calls it directly,
/// and the OOM engine and the shard router through step_entry, which is
/// what makes their equivalence tests meaningful. Visited filtering
/// mutates `instance` when the spec requires it.
///
/// `rows` is static_ctps_rows(view, policy, spec), resolved once by the
/// caller.
/// When the vertex has a row, SELECT locates in it instead of evaluating
/// EDGEBIAS and rebuilding the CTPS, while `warp` is charged the same
/// EDGEBIAS, scan, normalization and binary-search events either way.
FrontierResult process_frontier_vertex(
    const GraphView& view, const Policy& policy, const SamplingSpec& spec,
    const StaticCtpsRows* rows, const CounterStream& rng,
    ItsSelector& selector, InstanceState& instance,
    const FrontierWorkItem& item, sim::WarpContext& warp,
    std::vector<float>& bias_scratch);

/// One step of a frontier entry (Fig. 2(b) lines 5-8): samples
/// `entry.vertex` through process_frontier_vertex with `instance`'s
/// previous vertex set to `entry.prev`, adds the sampled edges to row
/// `entry.local` of `samples`, and appends the next-depth entries to
/// `children` (none at the spec's last depth). The OOM engine's chains
/// and the shard router's workers step every entry through it; the
/// caller owns `children`, so concurrent chains never share it.
void step_entry(const GraphView& view, const Policy& policy,
                const SamplingSpec& spec, const StaticCtpsRows* rows,
                const CounterStream& rng, WorkerScratch& scratch,
                InstanceState& instance, const FrontierEntry& entry,
                sim::WarpContext& warp, SampleStore& samples,
                std::vector<FrontierEntry>& children);

/// The in-memory C-SAW engine: executes the Fig. 2(b) MAIN loop as one
/// chain per instance on the simulated GPU (one warp-task per instance
/// for frontier selection, one per frontier vertex for neighbor
/// selection); the Schedule decides how the chains' tasks are recorded.
class SamplingEngine {
 public:
  SamplingEngine(const GraphView& view, Policy policy, SamplingSpec spec,
                 EngineConfig config = {});

  const SamplingSpec& spec() const noexcept { return spec_; }
  const EngineConfig& config() const noexcept { return config_; }

  /// Runs all instances to completion on `device`. `seeds[i]` holds the
  /// seed vertices of instance i.
  SampleRun run(sim::Device& device,
                std::span<const std::vector<VertexId>> seeds);

  /// Convenience: every instance starts from one seed vertex.
  SampleRun run_single_seed(sim::Device& device,
                            std::span<const VertexId> seeds);

 private:
  /// One warp-task's output: the pool entry it served and the UPDATE
  /// results it produced. Chain-local, so no task writes shared state.
  struct TaskResult {
    std::uint32_t pool_position = 0;
    std::vector<std::pair<VertexId, std::uint32_t>> next;
  };

  /// Grows the per-worker scratch to the device's execution width.
  void ensure_workers(std::uint32_t width);

  /// Runs one chain per instance, each running its instance's whole step
  /// loop, and records the chains' tasks as the run's Schedule says: one
  /// fused kernel, or one kernel per step group. `widths` is
  /// pipelined_chain_width of the run's spec and seeds (the pipelined
  /// schedule's only).
  void run_chains(sim::Device& device, std::vector<InstanceState>& instances,
                  SampleStore& samples, sim::ChainWidth widths);

  // --- Per-instance task bodies.
  /// VERTEXBIAS + SELECT over the FrontierPool; returns the selected pool
  /// positions (empty when nothing is selectable).
  std::vector<std::uint32_t> select_frontier_body(InstanceState& inst,
                                                  std::uint32_t step,
                                                  sim::WarpContext& warp,
                                                  WorkerScratch& ws);
  /// GATHERNEIGHBORS + EDGEBIAS + SELECT + UPDATE for one pool position;
  /// appends sampled edges to `samples` and returns the UPDATE results.
  std::vector<std::pair<VertexId, std::uint32_t>> sample_position_body(
      InstanceState& inst, std::uint32_t local_instance,
      std::uint32_t position, std::uint32_t step, sim::WarpContext& warp,
      WorkerScratch& ws, SampleStore& samples);
  /// Layer sampling: one combined NeighborPool over the whole frontier.
  std::vector<std::pair<VertexId, std::uint32_t>> sample_layer_body(
      InstanceState& inst, std::uint32_t local_instance, std::uint32_t step,
      sim::WarpContext& warp, WorkerScratch& ws, SampleStore& samples);
  /// Advances one instance's pool from this step's frontier positions and
  /// task results.
  void advance_instance(InstanceState& inst,
                        const std::vector<std::uint32_t>& frontier_positions,
                        std::span<const TaskResult> results) const;

  const GraphView* view_;
  Policy policy_;
  SamplingSpec spec_;
  /// static_ctps_rows(*view_, policy_, spec_); null = per-step CTPS.
  const StaticCtpsRows* rows_ = nullptr;
  EngineConfig config_;
  CounterStream rng_;
  SelectConfig neighbor_config_;
  SelectConfig frontier_config_;
  std::vector<WorkerScratch> workers_;
};

}  // namespace csaw
