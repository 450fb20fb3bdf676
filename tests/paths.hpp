#pragma once

// The execution-path matrix of the contract suites: one list of labelled
// paths, each a callable that runs a workload and returns its RunResult,
// and the laws every path is held to against one oracle.
//
// The paths are the in-memory engine and the kAuto default under both
// schedules, the paged engine under both schedules at several
// residencies, multi-device runs on in-memory and on paged devices, the
// shard router at several shard counts, and csaw::Service (buffered or
// streamed, solo or coalesced) on each engine backend, every one at host
// widths {1, 2, 7}. The oracle is the in-memory step-barrier run on one
// host thread. A suite picks a workload and a slice of the list; adding
// a path or a law is one edit here. docs/ARCHITECTURE.md "Determinism
// contract" states each path's contract.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algorithms/registry.hpp"
#include "core/sampler.hpp"
#include "graph/csr.hpp"
#include "service/service.hpp"
#include "shard/router.hpp"
#include "util/cancel.hpp"

namespace csaw::testing {

inline constexpr std::uint32_t kWidths[] = {1, 2, 7};

// --- Shared helpers.

/// n seed vertices (i * stride + offset) mod |V|.
inline std::vector<VertexId> spread_seeds(const CsrGraph& graph,
                                          std::uint32_t n,
                                          std::uint32_t stride = 131,
                                          std::uint32_t offset = 0) {
  std::vector<VertexId> seeds(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    seeds[i] = static_cast<VertexId>((i * stride + offset) %
                                     graph.num_vertices());
  }
  return seeds;
}

/// n strictly increasing Philox tags from `first`, the gaps cycling
/// 1, 2, .., cycle: the layout coalesced service batches produce, with
/// runs of adjacent ids and holes between them.
inline std::vector<std::uint32_t> gapped_tags(std::uint32_t n,
                                              std::uint32_t first = 17,
                                              std::uint32_t cycle = 5) {
  std::vector<std::uint32_t> tags;
  std::uint32_t tag = first;
  for (std::uint32_t i = 0; i < n; ++i) {
    tags.push_back(tag);
    tag += 1 + (i % cycle);
  }
  return tags;
}

/// ShardOptions with every field but the shard count at its default.
inline ShardOptions shard_options(std::uint32_t shards) {
  ShardOptions options;
  options.shards = shards;
  return options;
}

inline void expect_same_samples(const SampleStore& got,
                                const SampleStore& want,
                                const std::string& label) {
  ASSERT_EQ(got.num_instances(), want.num_instances()) << label;
  for (std::uint32_t i = 0; i < got.num_instances(); ++i) {
    EXPECT_EQ(got.edges(i), want.edges(i)) << label << ", instance " << i;
  }
}

inline void expect_same_stats(const sim::KernelStats& got,
                              const sim::KernelStats& want,
                              const std::string& label) {
  std::vector<std::pair<std::string, std::uint64_t>> got_fields;
  std::vector<std::pair<std::string, std::uint64_t>> want_fields;
  sim::visit_kernel_stats(got, [&](std::string_view name, std::uint64_t v) {
    got_fields.emplace_back(name, v);
  });
  sim::visit_kernel_stats(want, [&](std::string_view name, std::uint64_t v) {
    want_fields.emplace_back(name, v);
  });
  EXPECT_EQ(got_fields, want_fields) << label;
}

/// Samples, both simulated clocks (exact double equality: any schedule
/// dependence breaks it), the merged kernel stats and the backend's
/// metrics.
inline void expect_same_run(const RunResult& got, const RunResult& want,
                            const std::string& label) {
  expect_same_samples(got.samples, want.samples, label);
  EXPECT_EQ(got.sim_seconds, want.sim_seconds) << label;
  EXPECT_EQ(got.device_seconds, want.device_seconds) << label;
  expect_same_stats(got.stats, want.stats, label);
  ASSERT_EQ(got.oom.has_value(), want.oom.has_value()) << label;
  if (got.oom) {
    const auto fields = [](const OomMetrics& m) {
      return std::vector<double>{
          static_cast<double>(m.partition_transfers),
          static_cast<double>(m.bytes_transferred),
          m.kernel_imbalance,
          static_cast<double>(m.scheduling_rounds),
          static_cast<double>(m.kernel_launches),
          static_cast<double>(m.cache_hits),
          static_cast<double>(m.cache_evictions),
          static_cast<double>(m.prefetch_transfers),
          m.transfer_overlap_seconds,
          static_cast<double>(m.transfer_faults),
          static_cast<double>(m.transfer_retries)};
    };
    EXPECT_EQ(fields(*got.oom), fields(*want.oom)) << label;
  }
  ASSERT_EQ(got.shard.has_value(), want.shard.has_value()) << label;
  if (got.shard) {
    const ShardMetrics& g = *got.shard;
    const ShardMetrics& w = *want.shard;
    EXPECT_EQ(g.rounds, w.rounds) << label;
    EXPECT_EQ(g.forwarded_walkers, w.forwarded_walkers) << label;
    EXPECT_EQ(g.envelopes, w.envelopes) << label;
    EXPECT_EQ(g.bytes_forwarded, w.bytes_forwarded) << label;
    EXPECT_EQ(g.transfer_seconds, w.transfer_seconds) << label;
    EXPECT_EQ(g.steps_per_shard, w.steps_per_shard) << label;
    EXPECT_EQ(g.forwarded_per_shard, w.forwarded_per_shard) << label;
    EXPECT_EQ(g.failed, w.failed) << label;
  }
}

// --- Workloads and paths.

/// A registry algorithm: the unit every front end accepts, the service
/// included.
struct Workload {
  AlgorithmId algorithm = AlgorithmId::kBiasedRandomWalk;
  std::uint32_t depth_or_length = 8;
  std::uint32_t neighbor_size = 2;

  AlgorithmSetup setup() const {
    return make_algorithm(algorithm, depth_or_length, neighbor_size);
  }
  std::string name() const {
    return algorithm_info(algorithm).name + "(" +
           std::to_string(depth_or_length) + ")";
  }
};

enum class Front { kSampler, kRouter, kService };

/// What a path promises for one workload.
enum class Contract {
  /// The oracle's bytes, instance for instance.
  kOracle,
  /// Known difference, ROADMAP item 6: a branching spec on a paged
  /// backend. Its bytes depend on the residency and the schedule (the
  /// frontier grouping feeds next-depth slot assignment), so they are
  /// compared only across the host widths of one family.
  kKnownDifference,
  /// The path rejects the spec: an in-memory-only spec on a paged
  /// backend, or a branching spec on the shard router.
  kUnsupported,
};

/// The paging and sharding extent of the list. The fuzzer draws its own.
struct PathShape {
  std::uint32_t partitions = 4;
  std::vector<std::uint32_t> residencies = {1, 2, 4};
  std::vector<std::uint32_t> shards = {1, 2, 4};
};

struct Path {
  /// The label without the host width. A Sampler family's ends in
  /// "/<schedule>".
  std::string family;
  Front front = Front::kSampler;
  /// What the path hands its front end (ServiceConfig::options for the
  /// service); num_threads is the host width.
  SamplerOptions options;
  std::uint32_t shards = 0;  ///< kRouter
  bool streamed = false;     ///< kService: submit_streaming
  bool coalesced = false;    ///< kService: every request in one batch

  std::uint32_t threads() const { return options.num_threads; }
  std::string label() const {
    return family + " @ " + std::to_string(threads()) + " threads";
  }
  bool pages() const {
    return options.mode == ExecutionMode::kOutOfMemory ||
           (options.mode == ExecutionMode::kMultiDevice &&
            options.memory_assumption == MemoryAssumption::kExceeds);
  }
  Contract contract(const AlgorithmSetup& setup) const {
    if (pages() && !in_memory_only_reason(setup.spec).empty()) {
      return Contract::kUnsupported;
    }
    if (front == Front::kRouter && !setup.spec.walk_shaped()) {
      return Contract::kUnsupported;
    }
    if (pages() && !setup.spec.walk_shaped()) {
      return Contract::kKnownDifference;
    }
    return Contract::kOracle;
  }

  /// Runs instance i from seeds[i] under Philox tag tags[i] (strictly
  /// increasing). The service front end reports samples only; a request
  /// it fails as cancelled leaves its rows empty.
  RunResult operator()(const CsrGraph& graph, const Workload& workload,
                       std::span<const std::vector<VertexId>> seeds,
                       std::span<const std::uint32_t> tags,
                       const RunControl& control = {}) const;
};

namespace detail {

/// One request of a service path: instances [begin, end) of the run.
struct RequestRange {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

/// Splits a run into requests. A request's instances draw from adjacent
/// streams from its rng_base, so a run of adjacent tags can be one
/// request. Coalesced, request k holds at most 1 + k % 3 of them, so one
/// batch lays out and splits requests of unequal sizes. One
/// request per instance when each instance has its own cancel token.
inline std::vector<RequestRange> request_ranges(
    std::span<const std::uint32_t> tags, bool coalesced, bool per_instance) {
  std::vector<RequestRange> ranges;
  for (std::uint32_t i = 0; i < tags.size(); ++i) {
    if (per_instance || ranges.empty() || tags[i] != tags[i - 1] + 1 ||
        (coalesced && ranges.back().end - ranges.back().begin ==
                          1 + (ranges.size() - 1) % 3)) {
      ranges.push_back({i, i + 1});
    } else {
      ranges.back().end = i + 1;
    }
  }
  return ranges;
}

inline RunResult run_service(const Path& path, const CsrGraph& graph,
                             const Workload& workload,
                             std::span<const std::vector<VertexId>> seeds,
                             std::span<const std::uint32_t> tags,
                             const RunControl& control) {
  const std::string label = path.label();
  ServiceConfig config;
  config.options = path.options;
  config.start_paused = path.coalesced;
  Service service(config);
  // The aliasing constructor shares the caller's graph without owning it.
  const std::shared_ptr<const CsrGraph> shared(
      std::shared_ptr<const CsrGraph>(), &graph);
  service.add_graph("g", shared);

  bool fired = control.cancel.cancelled();
  for (const CancelToken& token : control.instance_cancel) {
    fired = fired || token.cancelled();
  }
  const auto ranges = request_ranges(tags, path.coalesced,
                                     !control.instance_cancel.empty());
  const auto request = [&](const RequestRange& range) {
    SampleRequest r;
    r.graph = "g";
    r.algorithm = workload.algorithm;
    r.depth_or_length = workload.depth_or_length;
    r.neighbor_size = workload.neighbor_size;
    r.seeds.assign(seeds.begin() + range.begin, seeds.begin() + range.end);
    r.rng_base = tags[range.begin];
    r.cancel = control.cancel.valid() ? control.cancel
               : control.instance_cancel.empty()
                   ? CancelToken{}
                   : control.instance_cancel[range.begin];
    return r;
  };

  RunResult result;
  result.samples.reset(static_cast<std::uint32_t>(seeds.size()));
  std::uint64_t streamed_edges = 0;
  struct Pending {
    RequestRange range;
    Submission buffered;
    StreamSubmission streaming;
  };
  const auto submit = [&](const RequestRange& range) {
    Pending p{range, {}, {}};
    if (path.streamed) {
      p.streaming = service.submit_streaming(request(range));
      EXPECT_TRUE(p.streaming.accepted()) << label;
    } else {
      p.buffered = service.submit(request(range));
      EXPECT_TRUE(p.buffered.accepted()) << label;
    }
    return p;
  };
  // Moves one request's rows into the run's store. A cancelled request
  // keeps the rows it delivered before its typed outcome.
  const auto finish = [&](Pending& p) {
    const std::uint32_t size = p.range.end - p.range.begin;
    try {
      if (!path.streamed) {
        RunResult run = p.buffered.result.get();
        ASSERT_EQ(run.samples.num_instances(), size) << label;
        for (std::uint32_t i = 0; i < size; ++i) {
          result.samples.put(p.range.begin + i, run.samples.take(i));
        }
        return;
      }
      SampleStream& stream = *p.streaming.stream;
      std::vector<char> seen(size, 0);
      while (auto chunk = stream.next()) {
        ASSERT_LT(chunk->instance, size) << label;
        EXPECT_FALSE(seen[chunk->instance])
            << label << ": instance " << chunk->instance << " streamed twice";
        seen[chunk->instance] = 1;
        result.samples.put(p.range.begin + chunk->instance,
                           std::move(chunk->edges));
      }
      EXPECT_EQ(stream.outcome(), RequestOutcome::kOk) << label;
      EXPECT_EQ(stream.delivered_chunks(), size) << label;
      streamed_edges += stream.delivered_edges();
    } catch (const RequestError& error) {
      EXPECT_EQ(error.outcome(), RequestOutcome::kCancelled) << label;
      EXPECT_TRUE(fired) << label << ": " << error.what();
    }
  };

  // Coalesced: a walk batch on another graph name runs beside the
  // requests' batch on the shared pool, and the requests queue in an
  // interleaved order (odd positions first).
  Submission busy;
  if (path.coalesced) {
    service.add_graph("busy", shared);
    SampleRequest neighbor = SampleRequest::single_seeds(
        "busy", AlgorithmId::kBiasedRandomWalk, 32,
        std::vector<VertexId>(24, seeds.front().front()));
    neighbor.tenant = "busy";
    busy = service.submit(std::move(neighbor));
    EXPECT_TRUE(busy.accepted()) << label;
    std::vector<Pending> pending;
    for (const std::size_t parity : {1u, 0u}) {
      for (std::size_t r = parity; r < ranges.size(); r += 2) {
        pending.push_back(submit(ranges[r]));
      }
    }
    service.resume();
    for (Pending& p : pending) finish(p);
  } else {
    for (const RequestRange& range : ranges) {
      Pending p = submit(range);
      finish(p);
    }
  }
  service.drain();

  const std::uint64_t busy_edges =
      path.coalesced ? busy.result.get().sampled_edges() : 0;
  const ServiceStats stats = service.stats();
  if (!fired) {
    const std::uint64_t requests = ranges.size() + (path.coalesced ? 1 : 0);
    EXPECT_EQ(stats.completed, requests) << label;
    EXPECT_EQ(stats.failed, 0u) << label;
    EXPECT_EQ(stats.paged_batches > 0, path.pages()) << label;
    EXPECT_EQ(stats.sampled_edges, result.sampled_edges() + busy_edges)
        << label;
    if (path.streamed) {
      EXPECT_EQ(streamed_edges, result.sampled_edges()) << label;
    }
    // Solo: every request its own engine run. Coalesced: the requests
    // really shared one run, beside the busy batch.
    EXPECT_EQ(stats.batches, path.coalesced ? 2u : ranges.size()) << label;
    if (path.coalesced && ranges.size() > 1) {
      EXPECT_EQ(stats.coalesced_requests, ranges.size()) << label;
    }
  }
  return result;
}

}  // namespace detail

inline RunResult Path::operator()(const CsrGraph& graph,
                                  const Workload& workload,
                                  std::span<const std::vector<VertexId>> seeds,
                                  std::span<const std::uint32_t> tags,
                                  const RunControl& control) const {
  switch (front) {
    case Front::kSampler:
      return Sampler(graph, workload.setup(), options)
          .run_tagged(seeds, tags, control);
    case Front::kRouter:
      return ShardRouter(graph, workload.setup(), options,
                         shard_options(shards))
          .run_tagged(seeds, tags, control);
    case Front::kService:
      break;
  }
  return detail::run_service(*this, graph, workload, seeds, tags, control);
}

/// The matrix: every path family at every host width, the oracle's path
/// ("in-memory/step_barrier" at one thread) first.
inline std::vector<Path> execution_paths(const PathShape& shape = {}) {
  std::vector<Path> families;
  const auto add = [&](std::string family, Front front,
                       const SamplerOptions& options) -> Path& {
    Path& path = families.emplace_back();
    path.family = std::move(family);
    path.front = front;
    path.options = options;
    return path;
  };
  const auto sampler = [&](const std::string& backend,
                           SamplerOptions options) {
    for (const Schedule schedule :
         {Schedule::kStepBarrier, Schedule::kPipelined}) {
      options.schedule = schedule;
      add(backend + "/" + to_string(schedule), Front::kSampler, options);
    }
  };
  SamplerOptions in_memory;
  in_memory.mode = ExecutionMode::kInMemory;
  sampler("in-memory", in_memory);
  // Default options: kAuto resolves the backend.
  sampler("auto", SamplerOptions{});

  SamplerOptions paged;
  paged.mode = ExecutionMode::kOutOfMemory;
  paged.num_partitions = shape.partitions;
  for (const std::uint32_t r : shape.residencies) {
    paged.resident_partitions = r;
    sampler("paged r=" + std::to_string(r) + "/" +
                std::to_string(shape.partitions),
            paged);
  }

  SamplerOptions multi;
  multi.mode = ExecutionMode::kMultiDevice;
  multi.num_devices = 2;
  multi.memory_assumption = MemoryAssumption::kFits;
  sampler("multi-device", multi);
  multi.memory_assumption = MemoryAssumption::kExceeds;
  multi.num_partitions = shape.partitions;
  multi.resident_partitions = shape.residencies.front();
  sampler("multi-device paged", multi);

  for (const std::uint32_t shards : shape.shards) {
    const std::string family = "sharded/" + std::to_string(shards);
    add(family, Front::kRouter, {}).shards = shards;
  }

  // The service on each engine backend; "auto" is its default options.
  std::vector<std::pair<std::string, SamplerOptions>> backends;
  backends.emplace_back("auto", SamplerOptions{});
  in_memory.schedule = Schedule::kStepBarrier;
  backends.emplace_back("in-memory/step_barrier", in_memory);
  SamplerOptions service_paged;
  service_paged.mode = ExecutionMode::kOutOfMemory;
  backends.emplace_back("paged/pipelined", service_paged);
  service_paged.schedule = Schedule::kStepBarrier;
  backends.emplace_back("paged/step_barrier", service_paged);
  SamplerOptions service_multi;
  service_multi.mode = ExecutionMode::kMultiDevice;
  service_multi.num_devices = 2;
  backends.emplace_back("multi-device", service_multi);
  for (const auto& [backend, options] : backends) {
    for (const bool streamed : {false, true}) {
      for (const bool coalesced : {false, true}) {
        const std::string family =
            std::string("service ") + (streamed ? "streamed" : "buffered") +
            (coalesced ? " coalesced" : " solo") + " on " + backend;
        Path& path = add(family, Front::kService, options);
        path.streamed = streamed;
        path.coalesced = coalesced;
      }
    }
  }

  std::vector<Path> paths;
  for (const Path& family : families) {
    for (const std::uint32_t width : kWidths) {
      Path path = family;
      path.options.num_threads = width;
      paths.push_back(std::move(path));
    }
  }
  return paths;
}

/// The paths of the list (at `shape`) that satisfy `keep`.
template <typename Keep>
std::vector<Path> paths_where(Keep keep, const PathShape& shape = {}) {
  std::vector<Path> out;
  for (Path& path : execution_paths(shape)) {
    if (keep(path)) out.push_back(std::move(path));
  }
  return out;
}

/// The matrix with each service family at one host thread, for suites
/// whose subject is the engines: the service suites hold the service
/// families to the width law.
inline std::vector<Path> engine_suite_paths() {
  return paths_where([](const Path& path) {
    return path.front != Front::kService || path.threads() == 1;
  });
}

/// The path labelled `family` at `width` host threads (checked).
inline Path find_path(const std::string& family, std::uint32_t width = 1) {
  for (const Path& path : execution_paths()) {
    if (path.family == family && path.threads() == width) return path;
  }
  ADD_FAILURE() << "no path " << family << " @ " << width;
  return {};
}

/// The oracle: the in-memory step-barrier engine on one host thread.
inline RunResult run_oracle(const CsrGraph& graph, const Workload& workload,
                            std::span<const std::vector<VertexId>> seeds,
                            std::span<const std::uint32_t> tags) {
  return find_path("in-memory/step_barrier")(graph, workload, seeds, tags);
}

struct PathRun {
  Path path;
  RunResult result;
};

namespace detail {

/// The run reports the backend it ran on.
inline void expect_reports_backend(const PathRun& run, std::size_t instances,
                                   const std::string& label) {
  const RunResult& r = run.result;
  const Path& path = run.path;
  ASSERT_EQ(r.samples.num_instances(), instances) << label;
  if (path.front == Front::kService) return;  // samples only
  EXPECT_GT(r.sim_seconds, 0.0) << label;
  if (path.front == Front::kRouter) {
    ASSERT_TRUE(r.shard.has_value()) << label;
    EXPECT_EQ(r.shard->shards, path.shards) << label;
    EXPECT_EQ(r.device_seconds.size(), path.shards) << label;
    EXPECT_TRUE(r.shard->failed.empty()) << label;
    if (path.shards == 1) {
      EXPECT_EQ(r.shard->forwarded_walkers, 0u) << label;
      EXPECT_EQ(r.shard->envelopes, 0u) << label;
      EXPECT_EQ(r.shard->transfer_seconds, 0.0) << label;
    }
    return;
  }
  EXPECT_FALSE(r.shard.has_value()) << label;
  // The matrix's graphs fit the default device: kAuto stays in memory.
  EXPECT_EQ(r.mode, path.options.mode == ExecutionMode::kAuto
                        ? ExecutionMode::kInMemory
                        : path.options.mode)
      << label;
  EXPECT_EQ(r.device_seconds.size(), path.options.num_devices) << label;
  EXPECT_EQ(r.oom.has_value(), path.pages()) << label;
  if (r.oom) {
    EXPECT_GT(r.oom->partition_transfers, 0u) << label;
  }
}

}  // namespace detail

/// Runs `workload` from `seed_list` under `tags` on every path of `paths`
/// that supports it and checks the laws:
/// - the run reports its backend (instances, devices, paged metrics,
///   shard metrics);
/// - kOracle paths return the oracle's bytes (kKnownDifference paths are
///   held to the width law only);
/// - host width is invisible: a family's runs agree in samples and, off
///   the service, in both clocks, kernel stats and backend metrics;
/// - on a Sampler backend the pipelined makespan is never longer than the
///   step-barrier one;
/// - one shard costs exactly the in-memory pipelined launch.
/// Returns the runs for suite-specific checks.
inline std::vector<PathRun> expect_matrix(const std::vector<Path>& paths,
                                          const CsrGraph& graph,
                                          const Workload& workload,
                                          std::span<const VertexId> seed_list,
                                          std::span<const std::uint32_t> tags) {
  const AlgorithmSetup setup = workload.setup();
  const auto seeds = expand_single_seeds(seed_list);
  const RunResult oracle = run_oracle(graph, workload, seeds, tags);
  EXPECT_GT(oracle.sampled_edges(), 0u) << workload.name();

  std::vector<PathRun> runs;
  for (const Path& path : paths) {
    if (path.contract(setup) == Contract::kUnsupported) continue;
    runs.push_back({path, path(graph, workload, seeds, tags)});
  }

  std::map<std::string, const PathRun*> family_first;
  for (const PathRun& run : runs) {
    const Path& path = run.path;
    const std::string label = workload.name() + " on " + path.label();
    detail::expect_reports_backend(run, seeds.size(), label);
    if (path.contract(setup) == Contract::kOracle) {
      expect_same_samples(run.result.samples, oracle.samples,
                          label + " vs the oracle");
    }
    const auto [first, inserted] = family_first.emplace(path.family, &run);
    if (!inserted) {
      const std::string pair = label + " vs " + first->second->path.label();
      if (path.front == Front::kService) {
        expect_same_samples(run.result.samples, first->second->result.samples,
                            pair);
      } else {
        expect_same_run(run.result, first->second->result, pair);
      }
    }
  }

  // A Sampler family's label without its schedule.
  const auto backend = [](const Path& path) {
    return path.family.substr(0, path.family.rfind('/'));
  };
  for (const PathRun& pipelined : runs) {
    if (pipelined.path.front != Front::kSampler ||
        pipelined.path.options.schedule != Schedule::kPipelined) {
      continue;
    }
    for (const PathRun& barrier : runs) {
      if (barrier.path.front == Front::kSampler &&
          backend(barrier.path) == backend(pipelined.path) &&
          barrier.path.options.schedule == Schedule::kStepBarrier) {
        EXPECT_LE(pipelined.result.sim_seconds, barrier.result.sim_seconds)
            << workload.name() << " on " << pipelined.path.label() << " vs "
            << barrier.path.label();
      }
    }
  }

  for (const PathRun& one_shard : runs) {
    if (one_shard.path.front != Front::kRouter || one_shard.path.shards != 1) {
      continue;
    }
    for (const PathRun& launch : runs) {
      if (launch.path.family == "in-memory/pipelined") {
        const std::string label = workload.name() + " on " +
                                  one_shard.path.label() + " vs " +
                                  launch.path.label();
        EXPECT_EQ(one_shard.result.sim_seconds, launch.result.sim_seconds)
            << label;
        EXPECT_EQ(one_shard.result.device_seconds,
                  launch.result.device_seconds)
            << label;
      }
    }
  }
  return runs;
}

/// The cancel oracle on every path that carries the byte contract for
/// `workload`: live (unfired) per-instance tokens leave every byte alone;
/// pre-fired tokens on `cancelled` stop those instances early and leave
/// every other instance's bytes; a fired run token does less work.
inline void expect_cancel_contract(const std::vector<Path>& paths,
                                   const CsrGraph& graph,
                                   const Workload& workload,
                                   std::span<const VertexId> seed_list,
                                   std::span<const std::uint32_t> tags,
                                   const std::vector<std::uint32_t>& cancelled) {
  const AlgorithmSetup setup = workload.setup();
  const auto seeds = expand_single_seeds(seed_list);
  // One live source per instance, held for the whole run.
  struct Tokens {
    std::vector<CancelSource> sources;
    RunControl control;
  };
  const auto with_tokens = [&](bool fire) {
    Tokens tokens{std::vector<CancelSource>(seeds.size()), {}};
    for (CancelSource& source : tokens.sources) {
      tokens.control.instance_cancel.push_back(source.token());
    }
    if (fire) {
      for (const std::uint32_t i : cancelled) {
        tokens.sources[i].cancel(CancelReason::kRequested);
      }
    }
    return tokens;
  };
  for (const Path& path : paths) {
    if (path.contract(setup) != Contract::kOracle) continue;
    const std::string label = workload.name() + " on " + path.label();
    const RunResult ref = path(graph, workload, seeds, tags);
    ASSERT_GT(ref.sampled_edges(), 0u) << label;

    const Tokens live_tokens = with_tokens(false);
    const RunResult live =
        path(graph, workload, seeds, tags, live_tokens.control);
    expect_same_samples(live.samples, ref.samples, label + ", live tokens");

    const Tokens fired = with_tokens(true);
    const RunResult run = path(graph, workload, seeds, tags, fired.control);
    ASSERT_EQ(run.samples.num_instances(), seeds.size()) << label;
    for (std::uint32_t i = 0; i < seeds.size(); ++i) {
      bool was_cancelled = false;
      for (const std::uint32_t c : cancelled) was_cancelled |= c == i;
      if (was_cancelled) {
        EXPECT_LT(run.samples.edges(i).size(), ref.samples.edges(i).size())
            << label << ", cancelled instance " << i
            << " should have stopped early";
      } else {
        EXPECT_EQ(run.samples.edges(i), ref.samples.edges(i))
            << label << ", surviving instance " << i;
      }
    }

    CancelSource source;
    source.cancel(CancelReason::kRequested);
    RunControl control;
    control.cancel = source.token();
    EXPECT_LT(path(graph, workload, seeds, tags, control).sampled_edges(),
              ref.sampled_edges())
        << label << ", run-level cancel";
  }
}

}  // namespace csaw::testing
