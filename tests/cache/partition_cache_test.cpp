// Unit coverage of the demand-driven partition cache (src/oom/cache/):
// every state transition in the header's diagram, the victim policy
// (never a pinned or loading partition; evictable before resident, then
// fewest pending walkers, then least recently acquired), the byte budget
// and partition-count limits on partitions of mixed sizes, one stream per
// resident partition, the scheduler's ranking ties, byte accounting on
// PartitionedGraph, and the run-boundary rebase the service tier relies
// on when it reuses one cache across batches.
#include "oom/cache/partition_cache.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <memory>
#include <vector>

#include "gpusim/device.hpp"
#include "graph/generators.hpp"
#include "oom/cache/partition_scheduler.hpp"
#include "oom/partitioned_graph.hpp"
#include "util/check.hpp"

namespace csaw {
namespace {

constexpr std::uint32_t kParts = 4;

const CsrGraph& test_graph() {
  static const CsrGraph g = generate_rmat(512, 4096, 7);
  return g;
}

std::shared_ptr<const PartitionedGraph> make_parts() {
  return std::make_shared<const PartitionedGraph>(test_graph(), kParts);
}

std::vector<std::size_t> no_pending() {
  return std::vector<std::size_t>(kParts, 0);
}

/// A Sampler-style limit: `n` partitions, whatever their size.
CacheLimits slots(std::uint32_t n) { return CacheLimits{.partitions = n}; }

/// Eight vertex-range partitions of an R-MAT graph, whose skew makes
/// their sizes differ by up to 9x (partition 0, the hub range, is the
/// largest).
std::shared_ptr<const PartitionedGraph> make_mixed_parts() {
  static const CsrGraph g = generate_rmat(2048, 16384, 7);
  return std::make_shared<const PartitionedGraph>(g, 8);
}

/// Bytes of the partitions on the device, summed from their states.
std::uint64_t on_device_bytes(const PartitionCache& cache) {
  std::uint64_t bytes = 0;
  for (std::uint32_t p = 0; p < cache.parts().num_parts(); ++p) {
    if (cache.on_device(p)) bytes += cache.parts().bytes(p);
  }
  return bytes;
}

TEST(PartitionCache, StatesAreNamed) {
  EXPECT_EQ(to_string(PartitionState::kOnDisk), "on_disk");
  EXPECT_EQ(to_string(PartitionState::kLoading), "loading");
  EXPECT_EQ(to_string(PartitionState::kResident), "resident");
  EXPECT_EQ(to_string(PartitionState::kInUse), "in_use");
  EXPECT_EQ(to_string(PartitionState::kEvictable), "evictable");
}

TEST(PartitionCache, DemandLoadPinsAndCounts) {
  auto parts = make_parts();
  PartitionCache cache(parts, slots(2));
  sim::Device device;
  const std::vector<std::size_t> pending = no_pending();

  ASSERT_EQ(cache.state(0), PartitionState::kOnDisk);
  EXPECT_FALSE(cache.on_device(0));

  const double ready = cache.acquire(0, device, pending);
  EXPECT_EQ(cache.state(0), PartitionState::kInUse);
  EXPECT_TRUE(cache.on_device(0));
  EXPECT_EQ(cache.resident_count(), 1u);
  EXPECT_GT(ready, 0.0);  // the simulated copy takes link time
  EXPECT_EQ(cache.metrics().demand_loads, 1u);
  EXPECT_EQ(cache.metrics().hits, 0u);
  EXPECT_EQ(cache.metrics().transfers, 1u);
  EXPECT_EQ(cache.metrics().bytes_loaded, parts->bytes(0));
  EXPECT_EQ(device.transfer().log().size(), 1u);

  // A nested acquire pins again without another transfer, and the first
  // release keeps the partition in use.
  EXPECT_EQ(cache.acquire(0, device, pending), ready);
  EXPECT_EQ(cache.metrics().hits, 1u);
  EXPECT_EQ(device.transfer().log().size(), 1u);
  cache.release(0);
  EXPECT_EQ(cache.state(0), PartitionState::kInUse);
  cache.release(0);
  EXPECT_EQ(cache.state(0), PartitionState::kEvictable);
  EXPECT_THROW(cache.release(0), CheckError);  // not pinned anymore
}

TEST(PartitionCache, HitsSkipTheLink) {
  auto parts = make_parts();
  PartitionCache cache(parts, slots(2));
  sim::Device device;
  const std::vector<std::size_t> pending = no_pending();

  cache.acquire(0, device, pending);
  cache.release(0);
  const std::size_t transfers = device.transfer().log().size();

  // kEvictable -> kInUse is a hit: no new transfer, same ready time.
  cache.acquire(0, device, pending);
  EXPECT_EQ(cache.state(0), PartitionState::kInUse);
  EXPECT_EQ(cache.metrics().hits, 1u);
  EXPECT_EQ(cache.metrics().demand_loads, 1u);
  EXPECT_EQ(device.transfer().log().size(), transfers);
}

TEST(PartitionCache, PrefetchLandsThenSettles) {
  auto parts = make_parts();
  PartitionCache cache(parts, slots(2));
  sim::Device device;
  const std::vector<std::size_t> pending = no_pending();

  EXPECT_TRUE(cache.prefetch(1, device, pending));
  EXPECT_EQ(cache.state(1), PartitionState::kLoading);
  EXPECT_EQ(cache.metrics().prefetch_loads, 1u);
  // One speculative copy at a time: a second prefetch declines even with
  // a free slot, and prefetching an on-device partition declines too.
  EXPECT_FALSE(cache.prefetch(2, device, pending));
  EXPECT_EQ(cache.state(2), PartitionState::kOnDisk);
  EXPECT_FALSE(cache.prefetch(1, device, pending));

  cache.settle(0.0);  // before the copy lands: still loading
  EXPECT_EQ(cache.state(1), PartitionState::kLoading);
  cache.settle(std::numeric_limits<double>::max());
  EXPECT_EQ(cache.state(1), PartitionState::kResident);

  // Landed prefetch -> acquire is a hit; the in-flight budget is free
  // again, so the next prefetch proceeds.
  cache.acquire(1, device, pending);
  EXPECT_EQ(cache.state(1), PartitionState::kInUse);
  EXPECT_EQ(cache.metrics().hits, 1u);
  EXPECT_TRUE(cache.prefetch(2, device, pending));
}

TEST(PartitionCache, AcquireWhileLoadingPinsInFlight) {
  auto parts = make_parts();
  PartitionCache cache(parts, slots(2));
  sim::Device device;
  const std::vector<std::size_t> pending = no_pending();

  ASSERT_TRUE(cache.prefetch(1, device, pending));
  const std::size_t transfers = device.transfer().log().size();

  // The engine wants the partition before the copy lands: it pins the
  // in-flight load (no second transfer) and waits for its ready time.
  const double ready = cache.acquire(1, device, pending);
  EXPECT_EQ(cache.state(1), PartitionState::kInUse);
  EXPECT_GT(ready, 0.0);
  EXPECT_EQ(cache.metrics().hits, 1u);
  EXPECT_EQ(device.transfer().log().size(), transfers);
  // ...and the speculative-load budget is released for the next pick.
  EXPECT_TRUE(cache.prefetch(2, device, pending));
}

TEST(PartitionCache, NeverEvictsPinnedOrLoading) {
  auto parts = make_parts();
  PartitionCache cache(parts, slots(1));
  sim::Device device;
  const std::vector<std::size_t> pending = no_pending();

  cache.acquire(0, device, pending);  // the only slot, pinned

  // No victim exists: prefetch declines, a conflicting acquire is a
  // caller error (the engine releases before its next pick).
  EXPECT_FALSE(cache.prefetch(1, device, pending));
  EXPECT_THROW(cache.acquire(1, device, pending), CheckError);
  EXPECT_EQ(cache.metrics().evictions, 0u);

  cache.release(0);
  cache.acquire(1, device, pending);  // now 0 is fair game
  EXPECT_EQ(cache.state(0), PartitionState::kOnDisk);
  EXPECT_EQ(cache.state(1), PartitionState::kInUse);
  EXPECT_EQ(cache.metrics().evictions, 1u);
  EXPECT_EQ(cache.resident_count(), 1u);
}

TEST(PartitionCache, VictimPrefersFewestPendingThenLeastRecentlyAcquired) {
  auto parts = make_parts();
  PartitionCache cache(parts, slots(2));
  sim::Device device;

  cache.acquire(0, device, no_pending());
  cache.release(0);
  cache.acquire(1, device, no_pending());
  cache.release(1);

  // Partition 0 still has queued walkers, 1 does not: evict 1.
  const std::vector<std::size_t> pending = {5, 0, 0, 0};
  cache.acquire(2, device, pending);
  EXPECT_EQ(cache.state(0), PartitionState::kEvictable);
  EXPECT_EQ(cache.state(1), PartitionState::kOnDisk);
  cache.release(2);

  // Equal pending (0 and 2 both evictable, both with one walker): the
  // least recently acquired, 0, goes.
  const std::vector<std::size_t> tie = {1, 0, 1, 0};
  cache.acquire(3, device, tie);
  EXPECT_EQ(cache.state(0), PartitionState::kOnDisk);
  EXPECT_EQ(cache.state(2), PartitionState::kEvictable);
}

TEST(PartitionCache, EvictableBeatsResidentAsVictim) {
  auto parts = make_parts();
  PartitionCache cache(parts, slots(2));
  sim::Device device;
  const std::vector<std::size_t> pending = no_pending();

  cache.acquire(0, device, pending);
  cache.release(0);  // kEvictable
  ASSERT_TRUE(cache.prefetch(1, device, pending));
  cache.settle(std::numeric_limits<double>::max());  // kResident

  // Even though the resident prefetch was never consumed, the policy
  // spends the already-used evictable slot first.
  cache.acquire(2, device, pending);
  EXPECT_EQ(cache.state(0), PartitionState::kOnDisk);
  EXPECT_EQ(cache.state(1), PartitionState::kResident);
}

TEST(PartitionScheduler, RanksPendingThenResidencyThenId) {
  auto parts = make_parts();
  PartitionCache cache(parts, slots(2));
  sim::Device device;

  // Put partition 1 on the device so the residency tie-break is visible.
  cache.acquire(1, device, no_pending());
  cache.release(1);

  // 0 and 1 tie on pending -> the on-device one first; 2 is drained and
  // never appears; 3 trails with fewer walkers.
  const std::vector<std::size_t> pending = {3, 3, 0, 2};
  const std::vector<std::uint32_t> order =
      PartitionScheduler::rank(pending, &cache);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 0, 3}));
  // Without a cache nothing is on the device: the tie goes to the lower id.
  EXPECT_EQ(PartitionScheduler::rank(pending, nullptr),
            (std::vector<std::uint32_t>{0, 1, 3}));

  // Off-device ties fall back to lowest id, and a drained frontier ranks
  // empty.
  const std::vector<std::size_t> flat = {2, 0, 2, 2};
  EXPECT_EQ(PartitionScheduler::rank(flat, &cache),
            (std::vector<std::uint32_t>{0, 2, 3}));
  EXPECT_TRUE(PartitionScheduler::rank(no_pending(), &cache).empty());
}

TEST(PartitionedGraph, ByteAccounting) {
  auto parts = make_parts();
  std::uint64_t total = 0;
  std::uint64_t largest = 0;
  for (std::uint32_t p = 0; p < parts->num_parts(); ++p) {
    total += parts->bytes(p);
    largest = std::max(largest, parts->bytes(p));
  }
  EXPECT_EQ(parts->total_bytes(), total);
  EXPECT_EQ(parts->max_partition_bytes(), largest);
}

TEST(PartitionCache, ResidentBytesNeverExceedTheBudget) {
  auto parts = make_mixed_parts();
  const std::uint32_t n = parts->num_parts();
  const std::vector<std::size_t> pending(n, 0);
  std::uint64_t smallest = parts->max_partition_bytes();
  for (std::uint32_t p = 0; p < n; ++p) {
    smallest = std::min(smallest, parts->bytes(p));
  }
  for (const std::uint64_t budget :
       {parts->max_partition_bytes(), parts->max_partition_bytes() + smallest,
        parts->total_bytes() / 2, 2 * parts->total_bytes() / 3}) {
    ASSERT_GE(budget, parts->max_partition_bytes());  // no lone oversize
    PartitionCache cache(parts, CacheLimits{.bytes = budget});
    sim::Device device;
    std::vector<std::uint32_t> pinned;
    std::uint64_t state = budget;  // a fixed LCG drives the op sequence
    for (int op = 0; op < 400; ++op) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const auto p = static_cast<std::uint32_t>((state >> 33) % n);
      switch ((state >> 40) % 4) {
        case 0: {
          // Acquire only what fits beside the pinned and loading
          // partitions; anything else is a caller error.
          std::uint64_t held = 0;
          std::uint32_t count = 0;
          for (std::uint32_t q = 0; q < n; ++q) {
            const PartitionState s = cache.state(q);
            if (q != p && (s == PartitionState::kInUse ||
                           s == PartitionState::kLoading)) {
              held += parts->bytes(q);
              ++count;
            }
          }
          if (cache.on_device(p) || cache.admits(held, count, p)) {
            cache.acquire(p, device, pending);
            pinned.push_back(p);
          } else {
            EXPECT_THROW(cache.acquire(p, device, pending), CheckError);
          }
          break;
        }
        case 1:
          if (!pinned.empty()) {
            cache.release(pinned.back());
            pinned.pop_back();
          }
          break;
        case 2:
          cache.prefetch(p, device, pending);
          break;
        default:
          cache.settle(std::numeric_limits<double>::max());
          break;
      }
      ASSERT_LE(cache.resident_bytes(), budget) << "op " << op;
      ASSERT_EQ(cache.resident_bytes(), on_device_bytes(cache)) << "op " << op;
    }
    EXPECT_GT(cache.metrics().evictions, 0u) << "budget " << budget;
  }
}

TEST(PartitionCache, BudgetOfKLargestHoldsAtLeastK) {
  auto parts = make_mixed_parts();
  const std::uint32_t n = parts->num_parts();
  const std::vector<std::size_t> pending(n, 0);
  for (std::uint32_t k = 1; k <= n; ++k) {
    PartitionCache cache(parts,
                         CacheLimits{.bytes = k * parts->max_partition_bytes()});
    sim::Device device;
    std::vector<bool> seen(n, false);
    std::uint32_t distinct = 0;
    for (std::uint32_t i = 0; i < 5 * n; ++i) {
      const std::uint32_t p = (i * 5 + i / n) % n;
      cache.acquire(p, device, pending);
      cache.release(p);
      if (!seen[p]) {
        seen[p] = true;
        ++distinct;
      }
      // A partition is evicted only to admit one that does not fit, and
      // any k partitions fit.
      EXPECT_GE(cache.resident_count(), std::min(k, distinct))
          << "k " << k << ", access " << i;
    }
  }
}

TEST(PartitionCache, LoneOversizePartitionPagesIn) {
  auto parts = make_mixed_parts();
  const std::vector<std::size_t> pending(parts->num_parts(), 0);
  PartitionCache cache(parts, CacheLimits{.bytes = 0});
  sim::Device device;

  // An empty cache admits any one partition, so no budget stalls a run.
  cache.acquire(0, device, pending);
  EXPECT_EQ(cache.resident_bytes(), parts->bytes(0));
  EXPECT_FALSE(cache.prefetch(1, device, pending));
  EXPECT_THROW(cache.acquire(1, device, pending), CheckError);
  cache.release(0);
  cache.acquire(1, device, pending);
  EXPECT_EQ(cache.state(0), PartitionState::kOnDisk);
  EXPECT_EQ(cache.resident_count(), 1u);
}

TEST(PartitionCache, DeclinedPrefetchEvictsNothing) {
  auto parts = make_mixed_parts();
  const std::vector<std::size_t> pending(parts->num_parts(), 0);
  PartitionCache cache(
      parts, CacheLimits{.bytes = parts->bytes(0) + parts->bytes(7)});
  sim::Device device;
  cache.acquire(7, device, pending);
  cache.release(7);
  cache.acquire(0, device, pending);  // pinned

  // Partition 1 does not fit beside the pinned 0 even with 7 evicted, so
  // the prefetch declines and 7 stays warm.
  ASSERT_GT(parts->bytes(1), parts->bytes(7));
  EXPECT_FALSE(cache.prefetch(1, device, pending));
  EXPECT_TRUE(cache.on_device(7));
  EXPECT_EQ(cache.metrics().evictions, 0u);
  EXPECT_EQ(cache.metrics().prefetch_loads, 0u);
}

TEST(PartitionCache, LeastRecentlyAcquiredBreaksPendingTies) {
  auto parts = make_mixed_parts();
  const std::vector<std::size_t> pending(parts->num_parts(), 0);
  PartitionCache cache(parts, slots(3));
  sim::Device device;
  for (const std::uint32_t p : {2u, 0u, 1u}) {
    cache.acquire(p, device, pending);
    cache.release(p);
  }

  // All three evictable with no walkers: 2, acquired first, goes — not
  // 0, the lowest id (the hub partition).
  cache.acquire(3, device, pending);
  EXPECT_EQ(cache.state(2), PartitionState::kOnDisk);
  EXPECT_EQ(cache.state(0), PartitionState::kEvictable);
  cache.release(3);

  // A re-acquire refreshes recency: 0 used again, so 1 is now the oldest.
  cache.acquire(0, device, pending);
  cache.release(0);
  cache.acquire(2, device, pending);
  EXPECT_EQ(cache.state(1), PartitionState::kOnDisk);
  EXPECT_TRUE(cache.on_device(0));
  EXPECT_TRUE(cache.on_device(3));

  // Pending walkers still outrank recency: 3 is the oldest, but has
  // walkers queued, so 0 goes.
  cache.release(2);
  std::vector<std::size_t> queued(parts->num_parts(), 0);
  queued[3] = 4;
  cache.acquire(5, device, queued);
  EXPECT_TRUE(cache.on_device(3));
  EXPECT_EQ(cache.state(0), PartitionState::kOnDisk);
}

TEST(PartitionCache, FillPinCountsAHitOnlyWhenItsWindowRan) {
  auto parts = make_mixed_parts();
  const std::vector<std::size_t> pending(parts->num_parts(), 0);
  PartitionCache cache(parts, slots(3));
  sim::Device device;
  for (const std::uint32_t p : {2u, 0u, 1u}) {
    cache.acquire(p, device, pending);
    cache.release(p);
  }
  EXPECT_EQ(cache.metrics().hits, 0u);
  EXPECT_THROW(cache.pin(4), CheckError);  // on disk: not a fill candidate

  // A fill pin whose window processed nothing leaves no trace: no hit,
  // no recency refresh, the state it had.
  cache.pin(2);
  EXPECT_EQ(cache.state(2), PartitionState::kInUse);
  cache.unpin(2, /*used=*/false);
  EXPECT_EQ(cache.state(2), PartitionState::kEvictable);
  EXPECT_EQ(cache.metrics().hits, 0u);

  // One whose window ran counts the hit and refreshes recency: 0 is now
  // the most recent, so the victims are 2 (still the oldest), then 1.
  cache.pin(0);
  cache.unpin(0, /*used=*/true);
  EXPECT_EQ(cache.metrics().hits, 1u);
  cache.acquire(3, device, pending);
  EXPECT_EQ(cache.state(2), PartitionState::kOnDisk);
  cache.release(3);
  cache.acquire(5, device, pending);
  EXPECT_EQ(cache.state(1), PartitionState::kOnDisk);
  EXPECT_TRUE(cache.on_device(0));
  cache.release(5);

  // An unused pin of a prefetched partition leaves it kResident, the
  // state a never-used prefetch is evicted in first.
  PartitionCache fresh(parts, slots(2));
  ASSERT_TRUE(fresh.prefetch(1, device, pending));
  fresh.settle(device.synchronize());
  ASSERT_EQ(fresh.state(1), PartitionState::kResident);
  fresh.pin(1);
  fresh.unpin(1, /*used=*/false);
  EXPECT_EQ(fresh.state(1), PartitionState::kResident);
  fresh.pin(1);
  fresh.unpin(1, /*used=*/true);
  EXPECT_EQ(fresh.state(1), PartitionState::kEvictable);
  EXPECT_EQ(fresh.metrics().hits, 1u);
}

TEST(PartitionCache, DistinctResidentPartitionsGetDistinctStreams) {
  auto parts = make_mixed_parts();
  const std::uint32_t n = parts->num_parts();
  const std::vector<std::size_t> pending(n, 0);
  PartitionCache cache(parts, CacheLimits{.bytes = parts->total_bytes()});
  sim::Device device;

  // Everything fits: each partition on the device holds its own stream,
  // the prefetch included.
  for (std::uint32_t p = 0; p + 1 < n; ++p) cache.acquire(p, device, pending);
  ASSERT_TRUE(cache.prefetch(n - 1, device, pending));
  std::vector<bool> used(n, false);
  for (std::uint32_t p = 0; p < n; ++p) {
    const std::uint32_t stream = cache.stream_index(p);
    ASSERT_LT(stream, n);
    EXPECT_FALSE(used[stream]) << "partition " << p << " shares stream "
                               << stream;
    used[stream] = true;
  }
  EXPECT_EQ(device.transfer().log().back().stream_id,
            static_cast<int>(cache.stream_index(n - 1)));

  // A freed lane is reused lowest first: with room for two, evicting
  // partition 0 frees stream 0 for the next load.
  PartitionCache two(parts, slots(2));
  sim::Device other;
  two.acquire(0, other, pending);
  two.acquire(1, other, pending);
  EXPECT_EQ(two.stream_index(0), 0u);
  EXPECT_EQ(two.stream_index(1), 1u);
  two.release(0);
  two.acquire(2, other, pending);
  EXPECT_EQ(two.state(0), PartitionState::kOnDisk);
  EXPECT_EQ(two.stream_index(2), 0u);
  EXPECT_THROW(two.stream_index(0), CheckError);
}

TEST(PartitionCache, SetBudgetBytesEvictsDown) {
  auto parts = make_mixed_parts();
  const std::vector<std::size_t> pending(parts->num_parts(), 0);
  PartitionCache cache(parts, CacheLimits{.bytes = parts->total_bytes()});
  sim::Device device;

  cache.acquire(1, device, pending);
  cache.release(1);
  cache.acquire(2, device, pending);
  cache.release(2);
  cache.acquire(0, device, pending);  // pinned

  // Shrinking to the pinned partition's bytes keeps it and evicts the two
  // evictable ones.
  cache.set_budget_bytes(parts->bytes(0));
  EXPECT_EQ(cache.limits().bytes, parts->bytes(0));
  EXPECT_EQ(cache.resident_bytes(), parts->bytes(0));
  EXPECT_EQ(cache.state(1), PartitionState::kOnDisk);
  EXPECT_EQ(cache.state(2), PartitionState::kOnDisk);
  EXPECT_EQ(cache.state(0), PartitionState::kInUse);
  EXPECT_EQ(cache.metrics().evictions, 2u);

  // A lone partition may exceed the budget; two pinned ones may not.
  cache.set_budget_bytes(0);
  EXPECT_EQ(cache.state(0), PartitionState::kInUse);
  cache.set_budget_bytes(parts->total_bytes());
  cache.acquire(3, device, pending);
  EXPECT_THROW(cache.set_budget_bytes(parts->bytes(0)), CheckError);
  cache.release(3);
  cache.release(0);

  // Growing back admits more without evicting.
  cache.set_budget_bytes(parts->total_bytes());
  cache.acquire(4, device, pending);
  EXPECT_TRUE(cache.on_device(3));
  EXPECT_TRUE(cache.on_device(4));
}

TEST(TransferFaults, ScriptedFaultRetriesAndSucceeds) {
  auto parts = make_parts();
  PartitionCache cache(parts, slots(2));
  auto injector = std::make_shared<FaultInjector>();
  cache.begin_run(injector, RetryPolicy{3, 1e-4});
  injector->fail_next(0, 2);  // attempts 0 and 1 fail, attempt 2 lands
  sim::Device device;
  const std::vector<std::size_t> pending = no_pending();

  // Reference ready time of a fault-free load on an identical timeline.
  PartitionCache clean(parts, slots(2));
  sim::Device clean_device;
  const double clean_ready = clean.acquire(0, clean_device, pending);

  const double ready = cache.acquire(0, device, pending);
  EXPECT_EQ(cache.state(0), PartitionState::kInUse);
  // Two failed copies occupied the link, then the backoff, then the real
  // copy: the bytes land strictly later than the clean run, but they land.
  EXPECT_GT(ready, clean_ready);
  EXPECT_EQ(device.transfer().log().size(), 3u);
  EXPECT_EQ(cache.metrics().transfer_faults, 2u);
  EXPECT_EQ(cache.metrics().transfer_retries, 2u);
  EXPECT_EQ(cache.metrics().demand_loads, 1u);
  // Only the successful copy counts as a transfer and as delivered bytes.
  EXPECT_EQ(cache.metrics().transfers, 1u);
  EXPECT_EQ(cache.metrics().bytes_loaded, parts->bytes(0));
  EXPECT_EQ(injector->attempts_seen(), 3u);
}

TEST(TransferFaults, ExhaustedRetriesThrowAndRollBack) {
  auto parts = make_parts();
  PartitionCache cache(parts, slots(2));
  auto injector = std::make_shared<FaultInjector>();
  cache.begin_run(injector, RetryPolicy{2, 1e-4});
  injector->fail_next(0, 5);  // more failures than the retry budget
  sim::Device device;
  const std::vector<std::size_t> pending = no_pending();

  try {
    cache.acquire(0, device, pending);
    FAIL() << "acquire should have thrown TransferError";
  } catch (const TransferError& e) {
    EXPECT_EQ(e.partition(), 0u);
    EXPECT_EQ(e.attempts(), 2u);
  }
  // Terminal failure rolled the slot back: nothing resident, nothing
  // pinned, nothing kLoading — the cache is as if the load never started.
  EXPECT_EQ(cache.state(0), PartitionState::kOnDisk);
  EXPECT_EQ(cache.resident_count(), 0u);
  EXPECT_EQ(cache.metrics().transfer_faults, 2u);
  EXPECT_EQ(cache.metrics().transfer_retries, 1u);
  EXPECT_EQ(cache.metrics().bytes_loaded, 0u);

  // The failed site is concluded: the next load of the same partition
  // opens a fresh site and succeeds.
  EXPECT_GT(cache.acquire(0, device, pending), 0.0);
  EXPECT_EQ(cache.state(0), PartitionState::kInUse);
  EXPECT_EQ(cache.metrics().demand_loads, 2u);
}

TEST(TransferFaults, FailedPrefetchDeclinesWithoutResidue) {
  auto parts = make_parts();
  PartitionCache cache(parts, slots(2));
  auto injector = std::make_shared<FaultInjector>();
  cache.begin_run(injector, RetryPolicy{1, 1e-4});
  injector->fail_next(1, 1);
  sim::Device device;
  const std::vector<std::size_t> pending = no_pending();

  // A speculative load that fails terminally is benign: decline, roll
  // back, and leave the one-in-flight budget free for the next pick.
  EXPECT_FALSE(cache.prefetch(1, device, pending));
  EXPECT_EQ(cache.state(1), PartitionState::kOnDisk);
  EXPECT_EQ(cache.resident_count(), 0u);
  EXPECT_EQ(cache.metrics().transfer_faults, 1u);
  EXPECT_TRUE(cache.prefetch(2, device, pending));
  // The demand path gets a fresh fault site and succeeds.
  cache.acquire(1, device, pending);
  EXPECT_EQ(cache.state(1), PartitionState::kInUse);
}

TEST(TransferFaults, RandomSlowSitesStretchTheCopy) {
  auto parts = make_parts();
  FaultInjector::Config config;
  config.slow_rate = 1.0;  // every site slow, none faulty
  config.slow_factor = 4.0;
  auto injector = std::make_shared<FaultInjector>(config);

  PartitionCache clean(parts, slots(2));
  sim::Device clean_device;
  const double clean_ready = clean.acquire(0, clean_device, no_pending());

  PartitionCache cache(parts, slots(2));
  cache.begin_run(injector, RetryPolicy{3, 1e-4});
  sim::Device device;
  const double slow_ready = cache.acquire(0, device, no_pending());
  // Slow copies stretch the link occupancy by slow_factor but still
  // succeed on the first attempt.
  EXPECT_DOUBLE_EQ(slow_ready, 4.0 * clean_ready);
  EXPECT_EQ(cache.metrics().transfer_faults, 0u);
  EXPECT_EQ(cache.state(0), PartitionState::kInUse);
}

TEST(TransferFaults, RoundGuardRecoversAfterMidRoundThrow) {
  // The stuck-kLoading regression: an exception unwinding mid-round used
  // to leave pins behind and a prefetch stuck kLoading, failing every
  // later begin_run(). The engine now holds a RoundGuard across the
  // round; this reproduces the unwind directly against the cache.
  auto parts = make_parts();
  PartitionCache cache(parts, slots(3));
  auto injector = std::make_shared<FaultInjector>();
  cache.begin_run(injector, RetryPolicy{1, 1e-4});
  injector->fail_next(2, 1);
  sim::Device device;
  const std::vector<std::size_t> pending = no_pending();

  bool threw = false;
  try {
    PartitionCache::RoundGuard guard(cache);
    cache.acquire(0, device, pending);              // pinned
    ASSERT_TRUE(cache.prefetch(1, device, pending));  // kLoading, in flight
    cache.acquire(2, device, pending);  // throws mid-round
    guard.commit();                     // never reached
  } catch (const TransferError&) {
    threw = true;
  }
  ASSERT_TRUE(threw);

  // The guard settled the round on unwind: no pin survives, nothing is
  // left kLoading, and the cache is reusable by the next batch.
  EXPECT_EQ(cache.state(0), PartitionState::kEvictable);
  EXPECT_EQ(cache.state(1), PartitionState::kResident);
  EXPECT_EQ(cache.state(2), PartitionState::kOnDisk);
  // would CheckError on a leftover pin
  cache.begin_run(injector, RetryPolicy{1, 1e-4});
  sim::Device next_run;
  cache.acquire(2, next_run, pending);  // fresh site: the load succeeds
  EXPECT_EQ(cache.state(2), PartitionState::kInUse);
  cache.release(2);

  // A committed guard stands down: the normal path never aborts.
  {
    PartitionCache::RoundGuard guard(cache);
    cache.acquire(0, next_run, pending);
    guard.commit();
  }
  EXPECT_EQ(cache.state(0), PartitionState::kInUse);  // pin intact
  cache.release(0);
}

TEST(PartitionCache, BeginRunRebasesOntoFreshDevice) {
  auto parts = make_parts();
  PartitionCache cache(parts, slots(3));
  const std::vector<std::size_t> pending = no_pending();

  {
    sim::Device run1;
    cache.acquire(0, run1, pending);
    cache.release(0);
    ASSERT_TRUE(cache.prefetch(1, run1, pending));
  }

  // A pinned partition across runs is a caller error.
  {
    sim::Device bad;
    cache.acquire(2, bad, pending);
    EXPECT_THROW(cache.begin_run(), CheckError);
    cache.release(2);
  }

  cache.begin_run();
  // The in-flight load landed (the old device's timeline is gone) and
  // every ready time rewound to the new clock's origin.
  EXPECT_EQ(cache.state(1), PartitionState::kResident);
  sim::Device run2;
  EXPECT_EQ(cache.acquire(0, run2, pending), 0.0);
  EXPECT_EQ(cache.acquire(1, run2, pending), 0.0);
  EXPECT_EQ(run2.transfer().log().size(), 0u);  // warm across runs
  EXPECT_EQ(cache.metrics().hits, 2u);
}

TEST(PartitionCache, BeginRunTakesTheRunsRetryPolicy) {
  auto parts = make_parts();
  PartitionCache cache(parts, slots(2));
  // A policy must allow the copy itself.
  EXPECT_THROW(cache.begin_run(nullptr, RetryPolicy{0, 1e-4}), CheckError);

  // The handles last for one run: a fail-once site fails a 1-attempt
  // run, and the next run, begun without an injector, is fault-free.
  auto injector = std::make_shared<FaultInjector>();
  injector->fail_next(0, 1);
  injector->fail_next(0, 1);
  cache.begin_run(injector, RetryPolicy{1, 1e-4});
  sim::Device run1;
  EXPECT_THROW(cache.acquire(0, run1, no_pending()), TransferError);
  cache.begin_run();
  sim::Device run2;
  cache.acquire(0, run2, no_pending());
  EXPECT_EQ(cache.metrics().transfer_faults, 1u);
  EXPECT_EQ(cache.metrics().transfers, 1u);
  EXPECT_EQ(injector->attempts_seen(), 1u);
}

}  // namespace
}  // namespace csaw
