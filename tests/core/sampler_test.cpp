#include "core/sampler.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "algorithms/layer_sampling.hpp"
#include "algorithms/mdrw.hpp"
#include "algorithms/neighbor_sampling.hpp"
#include "algorithms/random_walks.hpp"
#include "algorithms/snowball.hpp"
#include "graph/generators.hpp"
#include "oom/oom_engine.hpp"
#include "oom/cache/partition_cache.hpp"
#include "oom/partitioned_graph.hpp"
#include "telemetry/trace.hpp"
#include "util/check.hpp"
#include "util/fault_injector.hpp"
#include "../paths.hpp"

namespace csaw {
namespace {

using testing::expect_matrix;
using testing::expect_same_run;
using testing::expect_same_samples;
using testing::find_path;
using testing::Front;
using testing::gapped_tags;
using testing::Path;
using testing::paths_where;
using testing::spread_seeds;

/// The adjacent tags first, first+1, .., first+n-1.
std::vector<std::uint32_t> tags_from(std::uint32_t first, std::size_t n) {
  std::vector<std::uint32_t> tags(n);
  std::iota(tags.begin(), tags.end(), first);
  return tags;
}

/// One path per Sampler backend and schedule, at one host thread.
std::vector<Path> sampler_paths() {
  return paths_where([](const Path& path) {
    return path.front == Front::kSampler && path.threads() == 1;
  });
}

TEST(Sampler, ModeInvariantSamples) {
  // The facade's core guarantee: every Sampler backend and schedule of
  // the matrix (tests/paths.hpp) produces the in-memory oracle's
  // SampleStore contents for the same seeds (counter-based RNG), and
  // reports the devices and paged metrics it ran on.
  const CsrGraph g = generate_rmat(1024, 8192, 71);
  expect_matrix(paths_where([](const Path& path) {
                  return path.front == Front::kSampler;
                }),
                g, {AlgorithmId::kBiasedRandomWalk, 10}, spread_seeds(g, 40),
                gapped_tags(40));
  // kAuto on a graph that fits the default device stays in memory.
  EXPECT_EQ(Sampler(g, biased_random_walk(10)).decision().resolved,
            ExecutionMode::kInMemory);
}

TEST(Sampler, AutoPagesWhenGraphExceedsBudget) {
  const CsrGraph g = generate_rmat(1024, 8192, 72);
  // A device too small for the CSR: auto selection must page. A walk spec
  // keeps the edge append order identical across backends (one edge per
  // step), so the comparison below is bit-exact.
  SamplerOptions options;
  options.device_params.memory_bytes = 4096;
  const auto setup = biased_random_walk(8);
  Sampler sampler(g, setup, options);
  EXPECT_EQ(sampler.decision().resolved, ExecutionMode::kOutOfMemory);
  EXPECT_NE(sampler.decision().reason.find("exceeds"), std::string::npos)
      << sampler.decision().reason;

  // The paged run still matches the in-memory samples.
  const auto seeds = spread_seeds(g, 16);
  SamplerOptions in_memory;
  in_memory.mode = ExecutionMode::kInMemory;
  const RunResult ref =
      Sampler(g, setup, in_memory).run_single_seed(seeds);
  const RunResult run = sampler.run_single_seed(seeds);
  expect_same_samples(run.samples, ref.samples, "auto-paged");
}

TEST(Sampler, AutoAcceptsMemoryAssumptionOverride) {
  const CsrGraph g = generate_rmat(512, 4096, 73);
  SamplerOptions options;
  options.memory_assumption = MemoryAssumption::kExceeds;
  Sampler sampler(g, biased_neighbor_sampling(2, 2), options);
  EXPECT_EQ(sampler.decision().resolved, ExecutionMode::kOutOfMemory);
  EXPECT_NE(sampler.decision().reason.find("assumed"), std::string::npos);
}

TEST(Sampler, AutoRefusesOomForInMemoryOnlySpecs) {
  // In-memory-only specs must never resolve to the out-of-memory backend,
  // even when the graph "does not fit" — the decision records a readable
  // reason naming the spec flag and the fallback.
  const CsrGraph g = generate_rmat(512, 4096, 74);
  struct Case {
    AlgorithmSetup setup;
    const char* flag;
  };
  const std::vector<Case> cases = {
      {layer_sampling(2, 2), "layer_mode"},
      {snowball(2), "sample_all_neighbors"},
      {multi_dimensional_random_walk(4), "select_frontier"},
  };
  for (const Case& c : cases) {
    SamplerOptions options;
    options.memory_assumption = MemoryAssumption::kExceeds;
    Sampler sampler(g, c.setup, options);
    EXPECT_EQ(sampler.decision().resolved, ExecutionMode::kInMemory)
        << c.flag;
    EXPECT_NE(sampler.decision().reason.find(c.flag), std::string::npos)
        << "reason should name the restricting flag: "
        << sampler.decision().reason;
    EXPECT_NE(sampler.decision().reason.find("falling back"),
              std::string::npos)
        << sampler.decision().reason;
  }
}

TEST(Sampler, ExplicitOomRejectsInMemoryOnlySpecs) {
  const CsrGraph g = generate_rmat(512, 4096, 75);
  SamplerOptions options;
  options.mode = ExecutionMode::kOutOfMemory;
  EXPECT_THROW(Sampler(g, layer_sampling(2, 2), options), CheckError);
  EXPECT_THROW(Sampler(g, snowball(2), options), CheckError);
}

TEST(Sampler, ExplicitSingleDeviceModesRejectMultipleDevices) {
  const CsrGraph g = generate_rmat(256, 2048, 76);
  SamplerOptions options;
  options.mode = ExecutionMode::kInMemory;
  options.num_devices = 2;
  EXPECT_THROW(Sampler(g, biased_random_walk(4), options), CheckError);
}

TEST(Sampler, RunBatchesMatchesMonolithicRun) {
  const CsrGraph g = generate_rmat(1024, 8192, 77);
  const auto setup = biased_random_walk(8);
  const auto seeds = spread_seeds(g, 30);

  Sampler sampler(g, setup);
  const RunResult whole = sampler.run_single_seed(seeds);
  // Batch boundary falls mid-run (30 = 4 * 7 + 2).
  const RunResult batched = sampler.run_batches_single_seed(seeds, 7);

  expect_same_samples(batched.samples, whole.samples, "batched");
  // Sequential batches: the batched makespan can only be slower.
  EXPECT_GE(batched.sim_seconds, whole.sim_seconds);
  EXPECT_GT(batched.sim_seconds, 0.0);
}

TEST(Sampler, RunBatchesMatchesAcrossBackends) {
  const CsrGraph g = generate_rmat(1024, 8192, 78);
  const auto setup = biased_random_walk(6);
  const auto seeds = spread_seeds(g, 20);
  const RunResult ref = Sampler(g, setup).run_single_seed(seeds);
  for (const Path& path : sampler_paths()) {
    const RunResult batched =
        Sampler(g, setup, path.options).run_batches_single_seed(seeds, 6);
    expect_same_samples(batched.samples, ref.samples, path.label());
    EXPECT_EQ(batched.oom.has_value(), path.pages()) << path.label();
  }
}

TEST(Sampler, RegistryConstructorRuns) {
  const CsrGraph g = generate_rmat(512, 4096, 79);
  Sampler sampler(g, AlgorithmId::kDeepwalk, /*depth_or_length=*/8);
  const RunResult run = sampler.run_single_seed(spread_seeds(g, 8));
  EXPECT_GT(run.sampled_edges(), 0u);
  EXPECT_GT(run.seps(), 0.0);
}

TEST(Sampler, ShiftedTagsShiftDraws) {
  const CsrGraph g = generate_rmat(512, 4096, 80);
  const auto setup = biased_random_walk(6);
  const auto seeds = expand_single_seeds(spread_seeds(g, 10));

  const RunResult a = Sampler(g, setup).run(seeds);
  const RunResult b =
      Sampler(g, setup).run_tagged(seeds, tags_from(100, seeds.size()));
  bool any_differs = false;
  for (std::uint32_t i = 0; i < seeds.size() && !any_differs; ++i) {
    any_differs = a.samples.edges(i) != b.samples.edges(i);
  }
  EXPECT_TRUE(any_differs)
      << "shifting the global instance ids must shift the RNG draws";
}

TEST(Sampler, TaggedRunMatchesSoloRunsPerRange) {
  // run_tagged is the service tier's coalescing primitive: one engine run
  // whose instances carry explicit global ids. A coalesced run over two
  // id ranges must reproduce, byte for byte, the two tagged runs that
  // would have served each range alone — on every Sampler path.
  const CsrGraph g = generate_rmat(1024, 8192, 82);
  const auto setup = biased_random_walk(8);
  const auto seeds_a = expand_single_seeds(spread_seeds(g, 6));
  const auto seeds_b = expand_single_seeds(spread_seeds(g, 9));
  const auto tags_a = tags_from(40, seeds_a.size());
  const auto tags_b = tags_from(300, seeds_b.size());

  for (const Path& path : sampler_paths()) {
    const SamplerOptions& options = path.options;
    const std::string label = path.label();

    const RunResult a = Sampler(g, setup, options).run_tagged(seeds_a, tags_a);
    const RunResult b = Sampler(g, setup, options).run_tagged(seeds_b, tags_b);

    std::vector<std::vector<VertexId>> seeds = seeds_a;
    seeds.insert(seeds.end(), seeds_b.begin(), seeds_b.end());
    std::vector<std::uint32_t> tags = tags_a;
    tags.insert(tags.end(), tags_b.begin(), tags_b.end());
    const RunResult whole = Sampler(g, setup, options).run_tagged(seeds, tags);
    ASSERT_GT(whole.sampled_edges(), 0u) << label;

    for (std::uint32_t i = 0; i < seeds_a.size(); ++i) {
      EXPECT_EQ(whole.samples.edges(i), a.samples.edges(i))
          << label << ", range A instance " << i;
    }
    for (std::uint32_t i = 0; i < seeds_b.size(); ++i) {
      EXPECT_EQ(whole.samples.edges(seeds_a.size() + i), b.samples.edges(i))
          << label << ", range B instance " << i;
    }
  }
}

TEST(Sampler, TaggedRunRejectsMalformedTags) {
  const CsrGraph g = generate_rmat(512, 4096, 83);
  const auto setup = biased_random_walk(4);
  Sampler sampler(g, setup);
  const std::vector<std::vector<VertexId>> seeds = {{0}, {1}, {2}};

  const std::vector<std::uint32_t> short_tags = {0, 1};
  EXPECT_THROW(sampler.run_tagged(seeds, short_tags), CheckError);
  const std::vector<std::uint32_t> unsorted = {5, 3, 9};
  EXPECT_THROW(sampler.run_tagged(seeds, unsorted), CheckError);
  const std::vector<std::uint32_t> duplicate = {3, 3, 9};
  EXPECT_THROW(sampler.run_tagged(seeds, duplicate), CheckError);

  // Multi-device dispatch splits the tag span per group; a duplicate
  // straddling the group boundary must still be rejected up front (each
  // single-instance subspan would pass a per-engine check).
  Sampler split(g, setup, find_path("multi-device/pipelined").options);
  const std::vector<std::vector<VertexId>> two_seeds = {{0}, {1}};
  const std::vector<std::uint32_t> straddling = {3, 3};
  EXPECT_THROW(split.run_tagged(two_seeds, straddling), CheckError);
}

TEST(Sampler, RejectsOutOfRangeSeedsBeforeRunning) {
  // Instance setup indexes the visited bitmap by seed, so a seed past the
  // last vertex must be rejected before it, naming the seed, by both
  // engines on every Sampler path.
  const CsrGraph g = generate_rmat(512, 4096, 83);
  const auto setup = biased_neighbor_sampling(2, 2);
  const VertexId bad = g.num_vertices() + 70;
  const std::vector<VertexId> seeds = {0, bad};
  for (const Path& path : sampler_paths()) {
    Sampler sampler(g, setup, path.options);
    try {
      sampler.run_single_seed(seeds);
      ADD_FAILURE() << path.label() << ": seed " << bad << " was accepted";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("seed " + std::to_string(bad)),
                std::string::npos)
          << path.label() << ": " << e.what();
    }
    // The sampler stays usable for valid seeds.
    EXPECT_GT(
        sampler.run_single_seed(std::vector<VertexId>{0, 1}).sampled_edges(),
        0u)
        << path.label();
  }
}

TEST(Sampler, NewPartitioningAfterCachedRunStartsCold) {
  // A pipelined paged Sampler keeps its partition cache across runs; a
  // new partitioning must drop it rather than fail the next run on a
  // cache built over the old one.
  const CsrGraph g = generate_rmat(1024, 8192, 84);
  const auto setup = biased_random_walk(8);
  const auto seeds = spread_seeds(g, 24);
  SamplerOptions options;
  options.mode = ExecutionMode::kOutOfMemory;
  const RunResult fresh = Sampler(g, setup, options).run_single_seed(seeds);

  Sampler sampler(g, setup, options);
  const RunResult first = sampler.run_single_seed(seeds);
  expect_same_samples(first.samples, fresh.samples, "first run");
  // The second run finds the first run's partitions still resident.
  const RunResult warm = sampler.run_single_seed(seeds);
  expect_same_samples(warm.samples, fresh.samples, "warm rerun");
  ASSERT_TRUE(first.oom.has_value() && warm.oom.has_value());
  EXPECT_GT(warm.oom->cache_hits, first.oom->cache_hits);

  sampler.set_partitions(
      std::make_shared<const PartitionedGraph>(g, options.num_partitions));
  const RunResult repartitioned = sampler.run_single_seed(seeds);
  expect_same_samples(repartitioned.samples, fresh.samples, "repartitioned");
  ASSERT_TRUE(repartitioned.oom.has_value());
  EXPECT_EQ(repartitioned.oom->partition_transfers,
            fresh.oom->partition_transfers);
}

/// The value of `key` in a trace event's args, or "" when absent.
std::string trace_arg(const telemetry::TraceEvent& event,
                      const std::string& key) {
  for (const auto& [k, v] : event.args) {
    if (k == key) return v;
  }
  return "";
}

TEST(Sampler, TracedRunStampsItsBatchOnEveryChainSpan) {
  // RunControl::trace lasts for one run_tagged call: every chain span of
  // the run carries its trace_batch and an instance tag of the run, on
  // every Sampler path (multi-device groups share the recorder), and a
  // later untraced run on the same Sampler records nothing.
  const CsrGraph g = generate_rmat(1024, 8192, 85);
  const auto setup = biased_random_walk(8);
  std::vector<std::vector<VertexId>> seeds;
  std::vector<std::uint32_t> tags;
  for (const VertexId seed : spread_seeds(g, 12)) {
    seeds.push_back({seed});
    tags.push_back(100 + 3 * static_cast<std::uint32_t>(tags.size()));
  }
  const std::set<std::string> tag_names = [&] {
    std::set<std::string> names;
    for (const std::uint32_t tag : tags) names.insert(std::to_string(tag));
    return names;
  }();

  for (const Path& path : sampler_paths()) {
    const std::string label = path.label();
    Sampler sampler(g, setup, path.options);

    telemetry::TraceRecorder trace;
    RunControl control;
    control.trace = &trace;
    control.trace_batch = 42;
    const RunResult traced = sampler.run_tagged(seeds, tags, control);
    ASSERT_GT(traced.sampled_edges(), 0u) << label;

    std::set<std::string> traced_instances;
    std::size_t chains = 0;
    for (const telemetry::TraceEvent& event : trace.snapshot()) {
      if (event.name != "chain" ||
          event.phase != telemetry::TracePhase::kBegin) {
        continue;
      }
      ++chains;
      EXPECT_EQ(trace_arg(event, "batch"), "42") << label;
      traced_instances.insert(trace_arg(event, "instance"));
    }
    EXPECT_GE(chains, seeds.size()) << label;
    EXPECT_EQ(traced_instances, tag_names) << label;

    const std::size_t recorded = trace.event_count();
    const RunResult untraced = sampler.run_tagged(seeds, tags);
    expect_same_samples(untraced.samples, traced.samples, label);
    EXPECT_EQ(trace.event_count(), recorded) << label;
  }
}

TEST(Sampler, UntracedRunAfterAFailedTracedRunRecordsNothing) {
  // A traced paged run that throws TransferError must not leave its
  // recorder attached: the next (untraced) run on the same Sampler pages
  // through the same persistent cache and must not record its transfers.
  const CsrGraph g = generate_rmat(1024, 8192, 86);
  const auto setup = biased_random_walk(8);
  // Every walk starts in partition 0, so it is the run's first copy.
  const std::vector<std::vector<VertexId>> seeds(8, std::vector<VertexId>{0});
  std::vector<std::uint32_t> tags(seeds.size());
  for (std::uint32_t i = 0; i < tags.size(); ++i) tags[i] = i;

  SamplerOptions options;
  options.mode = ExecutionMode::kOutOfMemory;
  options.transfer_faults = std::make_shared<FaultInjector>();
  const RunResult fresh = Sampler(g, setup, options).run_tagged(seeds, tags);

  Sampler sampler(g, setup, options);
  // More failures than the retry policy's attempts: the copy gives up.
  options.transfer_faults->fail_next(0, options.transfer_retry.attempts + 1);
  telemetry::TraceRecorder trace;
  RunControl control;
  control.trace = &trace;
  control.trace_batch = 7;
  EXPECT_THROW(sampler.run_tagged(seeds, tags, control), TransferError);
  ASSERT_GT(trace.event_count(), 0u);  // the failed copy was traced

  const std::size_t recorded = trace.event_count();
  const RunResult after = sampler.run_tagged(seeds, tags);
  expect_same_samples(after.samples, fresh.samples, "after the failure");
  ASSERT_TRUE(after.oom.has_value());
  EXPECT_GT(after.oom->partition_transfers, 0u);
  EXPECT_EQ(trace.event_count(), recorded);
}

TEST(Sampler, PagedRunReportsEveryCopyOnceInItsOomMetrics) {
  // The partition cache counts each copy, fault and retry once and the
  // run reports the difference over the run: a retried demand copy and a
  // declined prefetch must reach RunResult::oom exactly, and agree with
  // the run's own "transfer" spans.
  const CsrGraph g = generate_rmat(1024, 8192, 86);
  const auto setup = biased_random_walk(8);
  std::vector<std::vector<VertexId>> seeds;
  for (const VertexId seed : spread_seeds(g, 32)) seeds.push_back({seed});

  SamplerOptions options;
  options.mode = ExecutionMode::kOutOfMemory;
  options.num_partitions = 8;
  options.resident_partitions = 4;  // leaves a place for the prefetcher
  options.transfer_faults = std::make_shared<FaultInjector>();
  const RunResult clean = Sampler(g, setup, options).run(seeds);
  ASSERT_TRUE(clean.oom.has_value());
  EXPECT_EQ(clean.oom->transfer_faults, 0u);
  EXPECT_EQ(clean.oom->transfer_retries, 0u);
  ASSERT_GT(clean.oom->prefetch_transfers, 0u);

  // Partition 0 (seed 0's) is the first demand copy: two failed attempts,
  // then it lands. Partition 4's first copy in this shape is a prefetch;
  // failing all three attempts makes the cache decline it, and the walks
  // demand-load it later instead.
  options.transfer_faults = std::make_shared<FaultInjector>();
  options.transfer_faults->fail_next(0, 2);
  options.transfer_faults->fail_next(4, options.transfer_retry.attempts);
  telemetry::TraceRecorder trace;
  RunControl control;
  control.trace = &trace;
  std::vector<std::uint32_t> tags(seeds.size());
  for (std::uint32_t i = 0; i < tags.size(); ++i) tags[i] = i;
  const RunResult faulted =
      Sampler(g, setup, options).run_tagged(seeds, tags, control);
  expect_same_samples(faulted.samples, clean.samples, "faulted");
  ASSERT_TRUE(faulted.oom.has_value());
  const OomMetrics& oom = *faulted.oom;
  EXPECT_EQ(oom.transfer_faults, 2u + options.transfer_retry.attempts);
  EXPECT_EQ(oom.transfer_retries, 2u + options.transfer_retry.attempts - 1);
  // Every partition still lands once per load, so the landed copies and
  // their bytes match the clean run; the declined prefetch was issued, so
  // it counts as one, but the hit it would have earned is gone.
  EXPECT_EQ(oom.partition_transfers, clean.oom->partition_transfers);
  EXPECT_EQ(oom.bytes_transferred, clean.oom->bytes_transferred);
  EXPECT_EQ(oom.prefetch_transfers, clean.oom->prefetch_transfers);
  EXPECT_EQ(oom.cache_hits + 1, clean.oom->cache_hits);

  // The same copies, read from the trace: a landed span carries its
  // ready time, a failed one its outcome.
  std::map<std::uint64_t, std::uint64_t> span_bytes;
  std::size_t landed = 0;
  std::size_t failed = 0;
  std::uint64_t landed_bytes = 0;
  std::size_t faults = 0;
  std::size_t retries = 0;
  for (const telemetry::TraceEvent& event : trace.snapshot()) {
    if (event.name == "transfer" &&
        event.phase == telemetry::TracePhase::kBegin) {
      span_bytes[event.id] = std::stoull(trace_arg(event, "bytes"));
    } else if (event.name == "transfer") {
      if (trace_arg(event, "outcome") == "failed") {
        ++failed;
      } else {
        ++landed;
        landed_bytes += span_bytes.at(event.id);
      }
    }
    if (event.name == "transfer_fault") ++faults;
    if (event.name == "transfer_retry") ++retries;
  }
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(landed, oom.partition_transfers);
  EXPECT_EQ(landed_bytes, oom.bytes_transferred);
  EXPECT_EQ(faults, oom.transfer_faults);
  EXPECT_EQ(retries, oom.transfer_retries);
}

TEST(Sampler, SingleDeviceModesAddOnlyTheModeReasonToTheEngine) {
  // The facade's single-device modes build their engine (SamplingEngine
  // in memory, OomEngine out of memory) from their own options and return
  // the engine's result: a direct engine on the same SamplerOptions and
  // tags yields the same samples, clocks, stats and OomMetrics, cold and
  // then warm, under both schedules.
  const CsrGraph g = generate_rmat(1024, 8192, 87);
  const CsrGraphView view(g);
  const auto setup = biased_random_walk(10);
  const auto seeds = expand_single_seeds(spread_seeds(g, 48));
  const auto tags = tags_from(7, seeds.size());

  for (const Schedule schedule :
       {Schedule::kStepBarrier, Schedule::kPipelined}) {
    SamplerOptions options;
    options.schedule = schedule;
    options.num_partitions = 8;
    options.resident_partitions = 4;

    options.mode = ExecutionMode::kInMemory;
    Sampler in_memory(g, setup, options);
    SamplingEngine engine(view, setup.policy, setup.spec, options);

    options.mode = ExecutionMode::kOutOfMemory;
    Sampler paged(g, setup, options);
    OomEngine oom_engine(g, setup.policy, setup.spec, options);

    for (const char* pass : {"cold", "warm"}) {
      const std::string label = to_string(schedule) + " " + pass;
      sim::Device device(0, options.device_params);
      const RunResult facade = in_memory.run_tagged(seeds, tags);
      const RunResult direct = engine.run(device, seeds, tags);
      expect_same_run(facade, direct, "in-memory " + label);

      sim::Device oom_device(0, options.device_params);
      const RunResult paged_facade = paged.run_tagged(seeds, tags);
      const RunResult paged_direct = oom_engine.run(oom_device, seeds, tags);
      expect_same_run(paged_facade, paged_direct, "paged " + label);
      ASSERT_TRUE(paged_direct.oom.has_value()) << label;

      EXPECT_EQ(facade.mode, direct.mode) << label;
      EXPECT_EQ(paged_facade.mode, paged_direct.mode) << label;
      EXPECT_TRUE(direct.mode_reason.empty()) << label;
      EXPECT_TRUE(paged_direct.mode_reason.empty()) << label;
      EXPECT_FALSE(facade.mode_reason.empty()) << label;
      EXPECT_FALSE(paged_facade.mode_reason.empty()) << label;
    }
  }
}

}  // namespace
}  // namespace csaw
