// Unit coverage for the site model both simulated transports share: the
// paged I/O path keys sites by partition id, the shard router by
// destination shard. The transports' own tests (tests/cache,
// tests/shard, tests/service) stay the end-to-end proofs; these pin the
// model itself — scripted FIFO sites, site boundaries, failed-forever
// keys, seeded placement, slow sites, the attempt counter and the lock,
// and the retry policy's backoff.
#include "util/fault_injector.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/philox.hpp"

namespace csaw {
namespace {

using Outcome = FaultInjector::Outcome;

TEST(FaultInjector, ScriptedSitesAreFifoPerKeyAndKeysAreIndependent) {
  FaultInjector faults;
  faults.fail_next(1, 2);
  faults.fail_next(1, 1);
  faults.fail_next(2, 1);

  // Key 1's first site fails twice; key 2's site interleaves freely.
  EXPECT_EQ(faults.next_attempt(1, 0), Outcome::kFail);
  EXPECT_EQ(faults.next_attempt(2, 0), Outcome::kFail);
  EXPECT_EQ(faults.next_attempt(1, 1), Outcome::kFail);
  EXPECT_EQ(faults.next_attempt(2, 1), Outcome::kOk);
  EXPECT_EQ(faults.next_attempt(1, 2), Outcome::kOk);

  // Key 1's second site fails once; then the queue is empty.
  EXPECT_EQ(faults.next_attempt(1, 0), Outcome::kFail);
  EXPECT_EQ(faults.next_attempt(1, 1), Outcome::kOk);
  EXPECT_EQ(faults.next_attempt(1, 0), Outcome::kOk);
  EXPECT_EQ(faults.next_attempt(2, 0), Outcome::kOk);
  EXPECT_EQ(faults.next_attempt(3, 0), Outcome::kOk);
}

TEST(FaultInjector, NewSiteDiscardsThePreviousSitesLeftovers) {
  FaultInjector faults;
  faults.fail_next(0, 5);
  EXPECT_EQ(faults.next_attempt(0, 0), Outcome::kFail);
  EXPECT_EQ(faults.next_attempt(0, 1), Outcome::kFail);
  // The caller gave up after two attempts; the next copy starts fresh.
  EXPECT_EQ(faults.next_attempt(0, 0), Outcome::kOk);
  EXPECT_EQ(faults.next_attempt(0, 0), Outcome::kOk);
}

TEST(FaultInjector, FailedForeverKeyFailsEveryAttemptAndOpensNoSite) {
  FaultInjector::Config config;
  config.seed = 11;
  config.fail_rate = 0.3;
  FaultInjector reference(config);
  FaultInjector faults(config);
  faults.fail_next(9, 0);  // a scripted site that must stay unconsumed
  faults.fail_forever(9);
  EXPECT_TRUE(faults.failed_forever(9));
  EXPECT_FALSE(faults.failed_forever(8));

  // The dead key fails every attempt, and its consults draw no random
  // site: the live keys' placement matches an injector that never saw
  // the dead key.
  for (std::uint32_t i = 0; i < 200; ++i) {
    EXPECT_EQ(faults.next_attempt(9, i % 3), Outcome::kFail) << i;
    EXPECT_EQ(faults.next_attempt(i % 5, 0), reference.next_attempt(i % 5, 0))
        << i;
  }
}

TEST(FaultInjector, EqualSeedsGiveEqualRandomPlacement) {
  FaultInjector::Config config;
  config.seed = 42;
  config.fail_rate = 0.3;
  config.fail_times = 2;
  FaultInjector a(config);
  FaultInjector b(config);
  config.seed = 43;
  FaultInjector other(config);

  std::uint32_t faulty = 0;
  std::uint32_t differ = 0;
  for (std::uint32_t site = 0; site < 1000; ++site) {
    const std::uint32_t key = site % 7;
    // Placement is the paged transport's Philox stream, keyed by
    // (seed, key, site sequence).
    const bool want_faulty =
        Philox4x32::uniform(42, key, site, 0, 0xFA017u) < 0.3;
    const Outcome first = a.next_attempt(key, 0);
    ASSERT_EQ(first, b.next_attempt(key, 0)) << site;
    ASSERT_EQ(first == Outcome::kFail, want_faulty) << site;
    if (other.next_attempt(key, 0) != first) ++differ;
    if (first == Outcome::kFail) {
      ++faulty;
      // A faulty random site fails fail_times consecutive attempts.
      EXPECT_EQ(a.next_attempt(key, 1), Outcome::kFail);
      EXPECT_EQ(a.next_attempt(key, 2), Outcome::kOk);
      b.next_attempt(key, 1);
      b.next_attempt(key, 2);
    }
  }
  EXPECT_GT(faulty, 240u);
  EXPECT_LT(faulty, 360u);
  EXPECT_GT(differ, 0u);
}

TEST(FaultInjector, CertainSlowRateMakesEverySiteSlow) {
  FaultInjector::Config config;
  config.slow_rate = 1.0;
  config.slow_factor = 5.0;
  FaultInjector faults(config);
  EXPECT_EQ(faults.slow_factor(), 5.0);
  for (std::uint32_t site = 0; site < 100; ++site) {
    EXPECT_EQ(faults.next_attempt(site % 4, 0), Outcome::kSlow) << site;
  }
}

TEST(FaultInjector, AttemptsSeenCountsEveryConsult) {
  FaultInjector faults;
  EXPECT_EQ(faults.attempts_seen(), 0u);
  faults.fail_next(0, 1);
  faults.fail_forever(1);
  faults.next_attempt(0, 0);  // scripted failure
  faults.next_attempt(0, 1);  // retry lands
  faults.next_attempt(1, 0);  // dead key
  faults.next_attempt(2, 0);  // clean key
  EXPECT_EQ(faults.attempts_seen(), 4u);
}

TEST(RetryPolicy, BackoffDoublesPerRetryPastThirtyTwo) {
  // A policy with 34 or more attempts reaches retry 33 when a key keeps
  // failing; the delay keeps doubling there instead of wrapping.
  RetryPolicy retry;
  retry.backoff = 1e-4;
  EXPECT_EQ(retry.backoff_before(1), 1e-4);
  EXPECT_EQ(retry.backoff_before(2), 2e-4);
  EXPECT_EQ(retry.backoff_before(32), 1e-4 * 2147483648.0);
  EXPECT_EQ(retry.backoff_before(33), 1e-4 * 4294967296.0);
  EXPECT_EQ(retry.backoff_before(64), 1e-4 * 9223372036854775808.0);
}

TEST(FaultInjector, ConcurrentConsultsKeepEveryKeysScript) {
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint32_t kScripted = 100;
  constexpr std::uint32_t kSites = 300;
  FaultInjector::Config config;
  config.seed = 5;
  config.fail_rate = 0.3;
  FaultInjector faults(config);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    for (std::uint32_t s = 0; s < kScripted; ++s) faults.fail_next(t, 1);
  }

  std::atomic<std::uint64_t> consults{0};
  std::atomic<std::uint32_t> script_violations{0};
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint32_t s = 0; s < kSites; ++s) {
        // Each thread owns key t: its scripted sites come first, in
        // order, whatever the other threads draw meanwhile.
        const Outcome first = faults.next_attempt(t, 0);
        ++consults;
        if (s < kScripted && first != Outcome::kFail) ++script_violations;
        if (first == Outcome::kFail) {
          if (faults.next_attempt(t, 1) != Outcome::kOk) ++script_violations;
          ++consults;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(script_violations.load(), 0u);
  EXPECT_EQ(faults.attempts_seen(), consults.load());
}

}  // namespace
}  // namespace csaw
