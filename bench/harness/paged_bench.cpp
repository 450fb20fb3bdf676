#include "harness/paged_bench.hpp"

#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/random_walks.hpp"
#include "core/sampler.hpp"
#include "graph/generators.hpp"
#include "oom/partitioned_graph.hpp"
#include "service/service.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

namespace csaw::bench {
namespace {

// Fixed scenario shapes (env-independent, like the figure-smoke cases):
// committed records must stay comparable across machines and knobs.

// --- single_graph: the walk workload of the paged determinism suite at
// the budget regime the cache targets — most of the working set warm
// (six of eight partitions resident), walks hopping across all of it.
constexpr std::uint32_t kPagedPartitions = 8;
constexpr std::uint32_t kPagedCapacity = 6;
constexpr std::uint32_t kPagedInstances = 48;
constexpr std::uint32_t kPagedWalkLength = 12;

// --- contention: two paged graphs sharing one undersized device.
constexpr std::uint32_t kContentionSeeds = 16;
constexpr std::uint32_t kContentionWalkLength = 12;

const CsrGraph& paged_graph() {
  static const CsrGraph g = generate_rmat(2048, 16384, 77);
  return g;
}

const std::shared_ptr<const CsrGraph>& contention_graph(std::uint32_t i) {
  static const auto g0 =
      std::make_shared<const CsrGraph>(generate_rmat(1024, 8192, 93));
  static const auto g1 =
      std::make_shared<const CsrGraph>(generate_rmat(1024, 8192, 94));
  return i == 0 ? g0 : g1;
}

RunResult run_paged_walk(Schedule schedule) {
  SamplerOptions options;
  options.mode = ExecutionMode::kOutOfMemory;
  options.num_partitions = kPagedPartitions;
  options.resident_partitions = kPagedCapacity;
  options.num_threads = 2;
  options.schedule = schedule;

  std::vector<VertexId> seeds(kPagedInstances);
  for (std::uint32_t i = 0; i < kPagedInstances; ++i) {
    seeds[i] =
        static_cast<VertexId>((i * 97) % paged_graph().num_vertices());
  }
  Sampler sampler(paged_graph(), biased_random_walk(kPagedWalkLength),
                  options);
  return sampler.run_single_seed(seeds);
}

Json run_single_graph(std::ostream& log) {
  const RunResult barrier = run_paged_walk(Schedule::kStepBarrier);
  const RunResult cached = run_paged_walk(Schedule::kPipelined);
  CSAW_CHECK(barrier.oom.has_value() && cached.oom.has_value());

  // The cache's contract, enforced every harness run: it decides when
  // bytes move, never which bytes are sampled — and at this budget it
  // must move fewer partitions than the barrier waves, which re-transfer
  // every chosen partition every round.
  CSAW_CHECK(barrier.samples.num_instances() == cached.samples.num_instances());
  for (std::uint32_t i = 0; i < barrier.samples.num_instances(); ++i) {
    CSAW_CHECK_MSG(barrier.samples.edges(i) == cached.samples.edges(i),
                   "cached OOM path diverged from the barrier waves at "
                   "instance " << i);
  }
  CSAW_CHECK(cached.oom->partition_transfers <
             barrier.oom->partition_transfers);

  const double overlap_ratio =
      cached.sim_seconds > 0.0
          ? cached.oom->transfer_overlap_seconds / cached.sim_seconds
          : 0.0;

  TablePrinter table({"residency", "SEPS (simulated)", "transfers", "hits",
                      "prefetches", "evictions"});
  for (const auto& [label, run] :
       {std::pair<const char*, const RunResult*>{"barrier waves", &barrier},
        {"demand cache", &cached}}) {
    auto row = table.row();
    row.cell(label);
    row.cell(run->seps(), 0);
    row.cell(static_cast<std::int64_t>(run->oom->partition_transfers));
    row.cell(static_cast<std::int64_t>(run->oom->cache_hits));
    row.cell(static_cast<std::int64_t>(run->oom->prefetch_transfers));
    row.cell(static_cast<std::int64_t>(run->oom->cache_evictions));
  }
  table.print(log);
  log << "transfer overlap ratio: " << overlap_ratio << "\n";

  Json record = Json::object();
  record.set("partitions", static_cast<std::uint64_t>(kPagedPartitions));
  record.set("cache_capacity", static_cast<std::uint64_t>(kPagedCapacity));
  record.set("instances", static_cast<std::uint64_t>(kPagedInstances));
  record.set("walk_length", static_cast<std::uint64_t>(kPagedWalkLength));
  record.set("sampled_edges", cached.sampled_edges());
  record.set("barrier_seps", barrier.seps());
  record.set("cached_seps", cached.seps());
  record.set("barrier_transfers",
             static_cast<std::uint64_t>(barrier.oom->partition_transfers));
  record.set("cached_transfers",
             static_cast<std::uint64_t>(cached.oom->partition_transfers));
  record.set("cache_hits", static_cast<std::uint64_t>(cached.oom->cache_hits));
  record.set("prefetch_transfers",
             static_cast<std::uint64_t>(cached.oom->prefetch_transfers));
  record.set("cache_evictions",
             static_cast<std::uint64_t>(cached.oom->cache_evictions));
  record.set("transfer_overlap_ratio", overlap_ratio);
  return record;
}

Json run_contention(std::ostream& log) {
  // Device sized so the per-graph slice binds: each cache gets
  // memory_budget_fraction of half the device, forcing eviction pressure
  // on both graphs at once.
  ServiceConfig config;
  config.options.num_threads = 1;
  config.options.memory_assumption = MemoryAssumption::kExceeds;
  const PartitionedGraph parts_a(*contention_graph(0),
                                 config.options.num_partitions);
  config.options.device_params.memory_bytes =
      4 * parts_a.max_partition_bytes();
  config.max_concurrent_batches = 2;
  config.start_paused = true;
  Service service(config);
  service.add_graph("p0", contention_graph(0));
  service.add_graph("p1", contention_graph(1));

  std::vector<Submission> submissions;
  for (std::uint32_t g = 0; g < 2; ++g) {
    const CsrGraph& graph = *contention_graph(g);
    std::vector<VertexId> seed_list(kContentionSeeds);
    for (std::uint32_t i = 0; i < kContentionSeeds; ++i) {
      seed_list[i] =
          static_cast<VertexId>(((i * 131) + g * 7) % graph.num_vertices());
    }
    SampleRequest request = SampleRequest::single_seeds(
        g == 0 ? "p0" : "p1", AlgorithmId::kBiasedRandomWalk,
        kContentionWalkLength, seed_list);
    request.rng_base = g * 1000;  // pinned: bytes independent of order
    submissions.push_back(service.submit(std::move(request)));
  }
  for (const Submission& s : submissions) {
    CSAW_CHECK_MSG(s.accepted(), "paged contention rejected a request: "
                                     << to_string(s.rejected));
  }
  service.resume();
  service.drain();
  for (Submission& s : submissions) {
    CSAW_CHECK(s.result.get().sampled_edges() > 0);
  }
  service.shutdown();
  const ServiceStats stats = service.stats();
  CSAW_CHECK(stats.paged_batches == 2);
  CSAW_CHECK(stats.sim_seconds > 0.0);
  const double seps =
      static_cast<double>(stats.sampled_edges) / stats.sim_seconds;

  std::uint64_t budget = 0;  // identical slices: both graphs report it
  for (const GraphResidency& residency : service.graphs()) {
    budget = residency.cache_budget_bytes;
  }

  TablePrinter table({"graphs", "budget B/graph", "paged batches", "hits",
                      "evictions", "SEPS (simulated)"});
  {
    auto row = table.row();
    row.cell(static_cast<std::int64_t>(2));
    row.cell(static_cast<std::int64_t>(budget));
    row.cell(static_cast<std::int64_t>(stats.paged_batches));
    row.cell(static_cast<std::int64_t>(stats.oom.cache_hits));
    row.cell(static_cast<std::int64_t>(stats.oom.cache_evictions));
    row.cell(seps, 0);
  }
  table.print(log);

  Json record = Json::object();
  record.set("graphs", static_cast<std::uint64_t>(2));
  record.set("seeds_per_graph", static_cast<std::uint64_t>(kContentionSeeds));
  record.set("walk_length",
             static_cast<std::uint64_t>(kContentionWalkLength));
  record.set("cache_budget_bytes_per_graph", budget);
  record.set("paged_batches", stats.paged_batches);
  record.set("cache_hits", stats.oom.cache_hits);
  record.set("cache_evictions", stats.oom.cache_evictions);
  record.set("prefetch_transfers", stats.oom.prefetch_transfers);
  record.set("sampled_edges", stats.sampled_edges);
  record.set("sim_seconds", stats.sim_seconds);
  record.set("seps", seps);
  return record;
}

}  // namespace

Json run_paged_service(const BenchEnv& /*env*/, std::ostream& log) {
  Json record = Json::object();
  record.set("single_graph", run_single_graph(log));
  record.set("contention", run_contention(log));
  return record;
}

}  // namespace csaw::bench
