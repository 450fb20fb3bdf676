#include "core/sampler.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "oom/oom_engine.hpp"
#include "util/check.hpp"

namespace csaw {
namespace {

double to_mib(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// The per-device backend auto selection: in-memory unless the graph
/// exceeds the budget and the spec tolerates paged residency.
void resolve_backend(const CsrGraph& graph, const SamplingSpec& spec,
                     const SamplerOptions& options, ModeDecision& decision,
                     std::ostringstream& why) {
  const std::string restriction = in_memory_only_reason(spec);
  std::ostringstream footprint;
  const bool exceeds = graph_exceeds_budget(graph, options, &footprint);
  if (!restriction.empty()) {
    decision.out_of_memory = false;
    why << "in-memory engine: " << restriction;
    if (exceeds) {
      why << " — falling back despite " << footprint.str()
          << "; expect host-fallback traffic on a real device";
    }
    return;
  }
  decision.out_of_memory = exceeds;
  if (exceeds) {
    why << "out-of-memory engine (" << options.num_partitions
        << " partitions, " << options.resident_partitions
        << " resident): " << footprint.str();
  } else {
    why << "in-memory engine: " << footprint.str();
  }
}

ModeDecision resolve_mode(const CsrGraph& graph, const SamplingSpec& spec,
                          const SamplerOptions& options) {
  CSAW_CHECK(options.num_devices >= 1);
  CSAW_CHECK(options.memory_budget_fraction > 0.0);

  ModeDecision decision;
  decision.requested = options.mode;
  std::ostringstream why;

  switch (options.mode) {
    case ExecutionMode::kInMemory:
      CSAW_CHECK_MSG(options.num_devices == 1,
                     "ExecutionMode::kInMemory is single-device; request "
                     "kMultiDevice (or kAuto) for num_devices = "
                         << options.num_devices);
      decision.resolved = ExecutionMode::kInMemory;
      decision.out_of_memory = false;
      why << "in-memory engine requested explicitly";
      break;

    case ExecutionMode::kOutOfMemory: {
      CSAW_CHECK_MSG(options.num_devices == 1,
                     "ExecutionMode::kOutOfMemory is single-device; request "
                     "kMultiDevice (or kAuto) for num_devices = "
                         << options.num_devices);
      const std::string restriction = in_memory_only_reason(spec);
      CSAW_CHECK_MSG(restriction.empty(),
                     "ExecutionMode::kOutOfMemory rejected: " << restriction);
      decision.resolved = ExecutionMode::kOutOfMemory;
      decision.out_of_memory = true;
      why << "out-of-memory engine requested explicitly ("
          << options.num_partitions << " partitions, "
          << options.resident_partitions << " resident)";
      break;
    }

    case ExecutionMode::kMultiDevice:
      decision.resolved = ExecutionMode::kMultiDevice;
      why << options.num_devices << " devices requested explicitly; "
          << "per-device ";
      resolve_backend(graph, spec, options, decision, why);
      break;

    case ExecutionMode::kAuto:
      if (options.num_devices > 1) {
        decision.resolved = ExecutionMode::kMultiDevice;
        why << "auto: " << options.num_devices
            << " devices configured; per-device ";
        resolve_backend(graph, spec, options, decision, why);
      } else {
        why << "auto: ";
        resolve_backend(graph, spec, options, decision, why);
        decision.resolved = decision.out_of_memory
                                ? ExecutionMode::kOutOfMemory
                                : ExecutionMode::kInMemory;
      }
      break;
  }

  decision.reason = why.str();
  return decision;
}

/// Folds one group's (device's or batch's) result into the whole-run
/// result at global instance offset `begin`; device_seconds stay with the
/// caller (makespan vs. sequential-sum semantics differ).
void merge_group(RunResult& into, const RunResult& part, std::uint32_t begin,
                 std::uint32_t end, OomMetrics& oom_total, bool& any_oom) {
  for (std::uint32_t i = begin; i < end; ++i) {
    for (const Edge& e : part.samples.edges(i - begin)) {
      into.samples.add(i, e);
    }
  }
  into.stats.merge(part.stats);
  if (part.oom.has_value()) {
    oom_total.accumulate(*part.oom);
    any_oom = true;
  }
}

}  // namespace

bool graph_exceeds_budget(const CsrGraph& graph, const SamplerOptions& options,
                          std::ostream* why) {
  std::ostringstream discard;
  std::ostream& out = why != nullptr ? *why : discard;
  switch (options.memory_assumption) {
    case MemoryAssumption::kExceeds:
      out << "graph assumed to exceed device memory";
      return true;
    case MemoryAssumption::kFits:
      out << "graph assumed to fit device memory";
      return false;
    case MemoryAssumption::kMeasure:
      break;
  }
  const double budget = options.memory_budget_fraction *
                        static_cast<double>(options.device_params.memory_bytes);
  const bool exceeds = static_cast<double>(graph.bytes()) > budget;
  out << "CSR footprint " << to_mib(graph.bytes()) << " MiB "
      << (exceeds ? "exceeds" : "fits") << " "
      << options.memory_budget_fraction * 100.0 << "% of "
      << to_mib(options.device_params.memory_bytes) << " MiB device memory";
  return exceeds;
}

std::string in_memory_only_reason(const SamplingSpec& spec) {
  if (spec.select_frontier) {
    return "spec selects frontiers from whole-pool state "
           "(SamplingSpec::select_frontier)";
  }
  if (spec.layer_mode) {
    return "layer sampling pools the neighbors of all frontier vertices "
           "(SamplingSpec::layer_mode)";
  }
  if (spec.sample_all_neighbors) {
    return "snowball-style specs take every neighbor "
           "(SamplingSpec::sample_all_neighbors)";
  }
  if (spec.effective_branching_cap() == 0) {
    return "unbounded branching assigns ordinal RNG slots, which "
           "out-of-order sampling cannot reproduce (set "
           "SamplingSpec::branching_cap)";
  }
  return {};
}

EngineConfig SamplerOptions::engine_config() const {
  EngineConfig config;
  config.select = select;
  config.seed = seed;
  config.instance_id_offset = instance_id_offset;
  config.num_threads = num_threads;
  config.schedule = schedule;
  return config;
}

Sampler::Sampler(const CsrGraph& graph, Policy policy, SamplingSpec spec,
                 SamplerOptions options)
    : graph_(&graph),
      policy_(std::move(policy)),
      spec_(std::move(spec)),
      options_(std::move(options)),
      decision_(resolve_mode(graph, spec_, options_)) {}

Sampler::Sampler(const CsrGraph& graph, const AlgorithmSetup& setup,
                 SamplerOptions options)
    : Sampler(graph, setup.policy, setup.spec, std::move(options)) {}

Sampler::Sampler(const CsrGraph& graph, AlgorithmId id,
                 std::uint32_t depth_or_length, std::uint32_t neighbor_size,
                 SamplerOptions options)
    : Sampler(graph, make_algorithm(id, depth_or_length, neighbor_size),
              std::move(options)) {}

RunResult Sampler::run(std::span<const std::vector<VertexId>> seeds) {
  return dispatch(seeds, options_.instance_id_offset);
}

RunResult Sampler::run_single_seed(std::span<const VertexId> seeds) {
  return run(expand_single_seeds(seeds));
}

RunResult Sampler::run_tagged(std::span<const std::vector<VertexId>> seeds,
                              std::span<const std::uint32_t> tags,
                              const RunControl& control) {
  // Validate the whole span here: a multi-device dispatch hands each
  // group a subspan, and per-group checks alone would accept duplicates
  // that straddle a group boundary.
  validate_tagged_run(seeds, tags, control);
  return dispatch(seeds, options_.instance_id_offset, tags, control);
}

void Sampler::set_executor(std::shared_ptr<sim::ThreadPool> pool) {
  pool_ = std::move(pool);
}

void Sampler::set_partitions(std::shared_ptr<const PartitionedGraph> parts) {
  if (cache_ != nullptr && cache_->parts_ptr() != parts) cache_.reset();
  parts_ = std::move(parts);
}

void Sampler::set_partition_cache(std::shared_ptr<PartitionCache> cache) {
  cache_ = std::move(cache);
  if (cache_ != nullptr) parts_ = cache_->parts_ptr();
}

RunResult Sampler::dispatch(std::span<const std::vector<VertexId>> seeds,
                            std::uint32_t instance_id_offset,
                            std::span<const std::uint32_t> tags,
                            const RunControl& control) {
  RunResult result;
  switch (decision_.resolved) {
    case ExecutionMode::kInMemory:
      result = run_in_memory(seeds, instance_id_offset, tags, /*device_id=*/0,
                             control);
      break;
    case ExecutionMode::kOutOfMemory:
      result = run_out_of_memory(seeds, instance_id_offset, tags,
                                 /*device_id=*/0, control);
      break;
    case ExecutionMode::kMultiDevice:
      result = run_multi_device(seeds, instance_id_offset, tags, control);
      break;
    case ExecutionMode::kAuto:
      CSAW_CHECK_MSG(false, "resolved mode can never be kAuto");
  }
  result.mode = decision_.resolved;
  result.mode_reason = decision_.reason;
  return result;
}

sim::ThreadPool* Sampler::ensure_pool() {
  if (pool_ != nullptr) return pool_.get();  // set_executor's pool wins
  const std::uint32_t width = sim::resolve_num_threads(options_.num_threads);
  if (width <= 1) return nullptr;
  pool_ = std::make_shared<sim::ThreadPool>(width);
  return pool_.get();
}

void Sampler::attach_executor(sim::Device& device) {
  if (ensure_pool() != nullptr) device.set_executor(pool_);
}

RunResult Sampler::run_in_memory(std::span<const std::vector<VertexId>> seeds,
                                 std::uint32_t instance_id_offset,
                                 std::span<const std::uint32_t> tags,
                                 std::uint32_t device_id,
                                 const RunControl& control) {
  sim::Device device(device_id, options_.device_params);
  attach_executor(device);
  CsrGraphView view(*graph_);
  EngineConfig config = options_.engine_config();
  config.instance_id_offset = instance_id_offset;
  config.instance_tags.assign(tags.begin(), tags.end());
  config.control = control;
  SamplingEngine engine(view, policy_, spec_, config);
  SampleRun run = engine.run(device, seeds);

  RunResult result;
  result.samples = std::move(run.samples);
  result.sim_seconds = run.sim_seconds;
  result.device_seconds = {run.sim_seconds};
  result.stats = run.stats;
  return result;
}

RunResult Sampler::run_out_of_memory(
    std::span<const std::vector<VertexId>> seeds,
    std::uint32_t instance_id_offset, std::span<const std::uint32_t> tags,
    std::uint32_t device_id, const RunControl& control) {
  sim::Device device(device_id, options_.device_params);
  attach_executor(device);
  SamplerOptions options = options_;
  options.instance_id_offset = instance_id_offset;
  if (parts_ == nullptr) {
    // Single-device dispatch only; the multi-device path pre-builds the
    // partitioning before its groups run concurrently.
    parts_ = std::make_shared<const PartitionedGraph>(
        *graph_, options_.num_partitions);
  }
  OomEngine engine(*graph_, policy_, spec_, options, parts_);
  if (options_.schedule == Schedule::kPipelined &&
      decision_.resolved == ExecutionMode::kOutOfMemory) {
    // Single-device paging shares one persistent cache across runs and
    // batches (warm partitions). Multi-device groups skip this: each
    // simulated device owns its memory, so every group's engine builds a
    // private cache instead.
    if (cache_ == nullptr) {
      cache_ = std::make_shared<PartitionCache>(
          parts_, CacheLimits{.partitions = options_.resident_partitions});
    }
    engine.set_cache(cache_);
  }
  return engine.run(device, seeds, tags, control);
}

RunResult Sampler::run_multi_device(
    std::span<const std::vector<VertexId>> seeds,
    std::uint32_t instance_id_offset, std::span<const std::uint32_t> tags,
    const RunControl& control) {
  const auto num_instances = static_cast<std::uint32_t>(seeds.size());

  RunResult result;
  result.samples.reset(num_instances);
  result.device_seconds.assign(options_.num_devices, 0.0);

  // Equal contiguous instance groups (paper §V-D): group d gets
  // [d*per, min((d+1)*per, n)). The global-id offset handoff happens here
  // and nowhere else: device d's engines see base offset + group begin,
  // so the union of samples is independent of the device count.
  const std::uint32_t per_device =
      (num_instances + options_.num_devices - 1) / options_.num_devices;

  // Per-device runs are independent (disjoint instance groups, own
  // simulated Device) and execute concurrently on the shared host pool;
  // group results land in per-device slots and merge in device order, so
  // the output is identical to the sequential loop. The pool and the
  // partitioning must exist before the groups race to lazily create them.
  ensure_pool();
  if (decision_.out_of_memory && parts_ == nullptr) {
    parts_ = std::make_shared<const PartitionedGraph>(
        *graph_, options_.num_partitions);
  }

  std::vector<RunResult> parts(options_.num_devices);
  const auto run_group = [&](std::uint32_t d) {
    const std::uint32_t begin = std::min(d * per_device, num_instances);
    const std::uint32_t end = std::min(begin + per_device, num_instances);
    if (begin == end) return;
    const auto group = seeds.subspan(begin, end - begin);
    // Tagged runs split the tag span alongside the seed span: groups are
    // contiguous, so each device sees its requests' exact global ids.
    // Cancellation tokens split the same way; the run-level token and the
    // trace recorder are shared (TraceRecorder is thread-safe).
    const auto group_tags =
        tags.empty() ? tags : tags.subspan(begin, end - begin);
    RunControl group_control;
    group_control.cancel = control.cancel;
    group_control.trace = control.trace;
    group_control.trace_batch = control.trace_batch;
    if (!control.instance_cancel.empty()) {
      group_control.instance_cancel.assign(
          control.instance_cancel.begin() + begin,
          control.instance_cancel.begin() + end);
    }
    // Completion callbacks fire with engine-local indices; re-base them
    // to run-local seed indices. Groups complete instances concurrently,
    // so the subscriber must be thread-safe (the service's streaming
    // bridge locks its chunk queue). Rows a subscriber moves out are
    // empty at merge time, matching the single-device contract.
    if (control.on_instance_complete) {
      group_control.on_instance_complete =
          [&on_complete = control.on_instance_complete, begin](
              std::uint32_t i, std::vector<Edge>& row) {
            on_complete(begin + i, row);
          };
    }
    parts[d] = decision_.out_of_memory
                   ? run_out_of_memory(group, instance_id_offset + begin,
                                       group_tags, d, group_control)
                   : run_in_memory(group, instance_id_offset + begin,
                                   group_tags, d, group_control);
  };
  if (pool_ != nullptr && options_.num_devices > 1) {
    pool_->parallel_for(options_.num_devices,
                        [&](std::size_t d, std::uint32_t) {
                          run_group(static_cast<std::uint32_t>(d));
                        });
  } else {
    for (std::uint32_t d = 0; d < options_.num_devices; ++d) run_group(d);
  }

  OomMetrics oom_total;
  bool any_oom = false;
  for (std::uint32_t d = 0; d < options_.num_devices; ++d) {
    const std::uint32_t begin = std::min(d * per_device, num_instances);
    const std::uint32_t end = std::min(begin + per_device, num_instances);
    if (begin == end) continue;
    merge_group(result, parts[d], begin, end, oom_total, any_oom);
    result.device_seconds[d] = parts[d].sim_seconds;
  }

  result.sim_seconds = *std::max_element(result.device_seconds.begin(),
                                         result.device_seconds.end());
  if (any_oom) result.oom = oom_total;
  return result;
}

RunResult Sampler::run_batches(std::span<const std::vector<VertexId>> seeds,
                               std::uint32_t batch_size) {
  CSAW_CHECK_MSG(batch_size >= 1, "batch_size must be at least 1");
  const auto num_instances = static_cast<std::uint32_t>(seeds.size());

  RunResult result;
  result.samples.reset(num_instances);
  result.mode = decision_.resolved;
  result.mode_reason = decision_.reason;

  OomMetrics oom_total;
  bool any_oom = false;
  for (std::uint32_t begin = 0; begin < num_instances; begin += batch_size) {
    const std::uint32_t end = std::min(num_instances, begin + batch_size);
    // Shifting the offset keeps each instance's global id — and therefore
    // its counter-based RNG draws — identical to a single monolithic run.
    const RunResult batch = dispatch(seeds.subspan(begin, end - begin),
                                     options_.instance_id_offset + begin);

    merge_group(result, batch, begin, end, oom_total, any_oom);
    // Batches stream sequentially through the device(s): makespans add.
    result.sim_seconds += batch.sim_seconds;
    if (result.device_seconds.size() < batch.device_seconds.size()) {
      result.device_seconds.resize(batch.device_seconds.size(), 0.0);
    }
    for (std::size_t d = 0; d < batch.device_seconds.size(); ++d) {
      result.device_seconds[d] += batch.device_seconds[d];
    }
  }
  if (result.device_seconds.empty()) result.device_seconds = {0.0};
  if (any_oom) result.oom = oom_total;
  return result;
}

RunResult Sampler::run_batches_single_seed(std::span<const VertexId> seeds,
                                           std::uint32_t batch_size) {
  return run_batches(expand_single_seeds(seeds), batch_size);
}

}  // namespace csaw
