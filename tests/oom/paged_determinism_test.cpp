// The cached OOM path's contract: the demand-driven partition cache of
// the kPipelined schedule decides *when* bytes move, never *which* bytes
// are sampled. On the paged paths of the matrix (tests/paths.hpp) at
// eight partitions and capacities 1 (thrash), 4 and 8 (all resident),
// walks return the oracle's bytes at every capacity, schedule and host
// width, and the simulated schedule does not depend on the width. The
// cache must also earn its keep — fewer transfers and better seps() than
// the barrier waves, which re-transfer every chosen partition every
// round. Walk algorithms only: branching specs on a paged backend are
// the known difference of ROADMAP item 6.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "algorithms/random_walks.hpp"
#include "core/sampler.hpp"
#include "graph/generators.hpp"
#include "oom/oom_engine.hpp"
#include "../paths.hpp"
#include "../timeline_audit.hpp"

namespace csaw {
namespace {

using testing::expect_matrix;
using testing::Front;
using testing::gapped_tags;
using testing::Path;
using testing::paths_where;
using testing::spread_seeds;

constexpr std::uint32_t kPartitions = 8;

const CsrGraph& paged_graph() {
  static const CsrGraph g = generate_rmat(2048, 16384, 77);
  return g;
}

SamplerOptions paged_options(Schedule schedule, std::uint32_t capacity,
                             std::uint32_t threads) {
  SamplerOptions options;
  options.mode = ExecutionMode::kOutOfMemory;
  options.num_partitions = kPartitions;
  options.resident_partitions = capacity;
  options.num_threads = threads;
  options.schedule = schedule;
  return options;
}

SamplerOptions cached_options(std::uint32_t capacity, std::uint32_t threads) {
  return paged_options(Schedule::kPipelined, capacity, threads);
}

RunResult run_walk(const AlgorithmSetup& setup, const SamplerOptions& options,
                   std::uint32_t num_seeds = 48) {
  Sampler sampler(paged_graph(), setup, options);
  return sampler.run_single_seed(spread_seeds(paged_graph(), num_seeds, 97));
}

void expect_same_samples(const RunResult& a, const RunResult& b,
                         const char* what) {
  testing::expect_same_samples(a.samples, b.samples, what);
}

/// The paged Sampler paths: both schedules at each capacity.
std::vector<Path> paged_paths() {
  return paths_where(
      [](const Path& path) {
        return path.front == Front::kSampler &&
               path.options.mode == ExecutionMode::kOutOfMemory;
      },
      {kPartitions, {1, 4, kPartitions}, {}});
}

TEST(PagedDeterminism, WalkBytesMatchTheOracleAtEveryCapacityAndWidth) {
  // The samples may not depend on residency schedule, eviction pressure
  // or thread count.
  expect_matrix(paged_paths(), paged_graph(),
                {AlgorithmId::kBiasedRandomWalk, 12},
                spread_seeds(paged_graph(), 48, 97), gapped_tags(48));
}

TEST(PagedDeterminism, DynamicBiasWalkAlsoMatches) {
  // node2vec's bias depends on the previous step (kDynamic), the hardest
  // case for residency reordering: the cache must still be invisible.
  expect_matrix(paged_paths(), paged_graph(), {AlgorithmId::kNode2vec, 10},
                spread_seeds(paged_graph(), 24, 97), gapped_tags(24));
}

TEST(PagedDeterminism, CacheEarnsItsTransfers) {
  // The point of the subsystem: the barrier waves re-transfer every
  // chosen partition every scheduling round; the cache keeps partitions
  // resident and overlaps prefetches, so at the same resident budget (six
  // of the eight partitions — the regime where most of the working set
  // stays warm) it must move fewer bytes and finish the same samples
  // sooner (better seps).
  const auto setup = biased_random_walk(/*length=*/12);
  const RunResult barrier =
      run_walk(setup, paged_options(Schedule::kStepBarrier, 6, 1));
  const RunResult cached = run_walk(setup, cached_options(6, 1));
  ASSERT_TRUE(barrier.oom.has_value());
  ASSERT_TRUE(cached.oom.has_value());
  expect_same_samples(cached, barrier, "cached vs barrier at 6 slots");

  EXPECT_LT(cached.oom->partition_transfers,
            barrier.oom->partition_transfers);
  EXPECT_LT(cached.oom->bytes_transferred, barrier.oom->bytes_transferred);
  EXPECT_GT(cached.oom->cache_hits, 0u);
  EXPECT_GT(cached.oom->scheduling_rounds, 0u);
  EXPECT_GT(cached.seps(), barrier.seps());

  // Barrier metrics stay clean of cache counters, and the cached run's
  // overlap measurement is sane (bounded by total transfer time).
  EXPECT_EQ(barrier.oom->cache_hits, 0u);
  EXPECT_EQ(barrier.oom->prefetch_transfers, 0u);
  EXPECT_EQ(barrier.oom->transfer_overlap_seconds, 0.0);
  EXPECT_GE(cached.oom->transfer_overlap_seconds, 0.0);
  EXPECT_LE(cached.oom->transfer_overlap_seconds, cached.sim_seconds);
}

TEST(PagedDeterminism, PrefetchOverlapsComputeUnderPressure) {
  // With fewer slots than partitions the cache must thrash — evictions
  // happen — yet prefetches still land behind the computing partition:
  // speculative transfers issued, and real transfer/kernel overlap on the
  // simulated timeline. Capacity 4 is the smallest cache that reserves a
  // prefetch slot under contention (below that, compute width wins).
  const auto setup = biased_random_walk(/*length=*/16);
  const RunResult cached = run_walk(setup, cached_options(4, 2));
  ASSERT_TRUE(cached.oom.has_value());
  EXPECT_GT(cached.oom->prefetch_transfers, 0u);
  EXPECT_GT(cached.oom->cache_evictions, 0u);
  EXPECT_GT(cached.oom->transfer_overlap_seconds, 0.0);
}

TEST(PagedDeterminism, MoreWalksNeverCostLessSimulatedTime) {
  // Each cached window is charged on the SMs its thread blocks occupy,
  // not on its whole block-balancing share — otherwise a few-walker
  // window stalls across idle SMs and a small request costs more
  // simulated time than a large one. Fresh Sampler per run: a cold cache
  // each time, so only the walk count differs.
  const auto setup = biased_random_walk(/*length=*/16);
  for (const std::uint32_t capacity : {2u, 3u, 4u}) {
    double previous = 0.0;
    std::uint32_t previous_walks = 0;
    for (const std::uint32_t walks : {8u, 32u, 256u}) {
      const RunResult run = run_walk(setup, cached_options(capacity, 1), walks);
      EXPECT_LE(previous, run.sim_seconds)
          << previous_walks << " walks cost more simulated time than "
          << walks << " at capacity " << capacity;
      previous = run.sim_seconds;
      previous_walks = walks;
    }
  }
}

TEST(PagedDeterminism, WarmFillFinishesAWalkerInOneRound) {
  // Every partition on the device, one walker: the partitions it steps
  // into hold no pending walker when the round starts, but they are warm,
  // so the round computes them too and the walk ends in that round. A
  // compute set of only the round-start queues took 10 rounds here.
  const auto setup = biased_random_walk(/*length=*/16);
  const CsrGraph g = generate_rmat(1024, 8192, 61);
  auto parts = std::make_shared<const PartitionedGraph>(g, 4);
  auto cache =
      std::make_shared<PartitionCache>(parts, CacheLimits{.partitions = 4});
  SamplerOptions options;
  options.num_partitions = 4;
  options.resident_partitions = 4;
  options.schedule = Schedule::kPipelined;
  OomEngine engine(g, setup.policy, setup.spec, options, parts);
  engine.set_cache(cache);
  const std::vector<VertexId> warm = spread_seeds(g, 64, 97);
  {
    sim::Device device;
    engine.run_single_seed(device, warm);
  }
  ASSERT_EQ(cache->resident_count(), 4u);

  const std::vector<VertexId> one = {0};
  sim::Device device;
  const RunResult run = engine.run_single_seed(device, one);
  EXPECT_EQ(run.oom->scheduling_rounds, 1u);
  EXPECT_EQ(run.oom->partition_transfers, 0u);
  // Hits only for partitions whose windows ran: the walk's own.
  EXPECT_GE(run.oom->cache_hits, 2u);
  EXPECT_LE(run.oom->cache_hits, 4u);
  EXPECT_EQ(run.oom->kernel_launches, run.oom->cache_hits);

  SamplerOptions in_memory;
  in_memory.mode = ExecutionMode::kInMemory;
  Sampler sampler(g, setup, in_memory);
  const RunResult reference = sampler.run_single_seed(one);
  EXPECT_EQ(run.samples.edges(0), reference.samples.edges(0));
  EXPECT_EQ(run.samples.total_edges(), 16u);
}

TEST(PagedDeterminism, WarmFillCutsRoundsAndTransfers) {
  // Six of eight partitions resident (bench_harness paged/single_graph):
  // walkers stepping into a warm partition outside the ranked set no
  // longer wait a round, and the cache evicts less. A compute set of
  // only the round-start queues took 11 rounds and 17 transfers here.
  const auto setup = biased_random_walk(/*length=*/12);
  const RunResult cached = run_walk(setup, cached_options(6, 2));
  ASSERT_TRUE(cached.oom.has_value());
  EXPECT_LT(cached.oom->scheduling_rounds, 11u);
  EXPECT_LT(cached.oom->partition_transfers, 17u);

  SamplerOptions in_memory;
  in_memory.mode = ExecutionMode::kInMemory;
  expect_same_samples(cached, run_walk(setup, in_memory),
                      "warm-filled cached vs in-memory");
}

TEST(PagedDeterminism, BatchedServingStaysWarmAcrossChunks) {
  // run_batches reuses the sampler's cache across chunks: later chunks
  // find partitions already resident, so a batched run demand-loads less
  // than chunk-count times the partition set — and the bytes still match
  // one big barrier run.
  const auto setup = biased_random_walk(/*length=*/12);
  const auto seeds = spread_seeds(paged_graph(), 48, 97);

  Sampler cached(paged_graph(), setup, cached_options(kPartitions, 2));
  const RunResult chunked = cached.run_batches_single_seed(seeds, 12);
  ASSERT_TRUE(chunked.oom.has_value());

  const RunResult barrier =
      run_walk(setup, paged_options(Schedule::kStepBarrier, 2, 1));
  expect_same_samples(chunked, barrier, "chunked cached vs whole barrier");

  // With every partition fitting, only the first chunk's demand loads
  // touch the link: at most one transfer per partition for all 4 chunks.
  EXPECT_LE(chunked.oom->partition_transfers, kPartitions);
  EXPECT_GT(chunked.oom->cache_hits, 0u);
}

}  // namespace
}  // namespace csaw
