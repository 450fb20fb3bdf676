#pragma once

// Deterministic fault injection for the simulated transports.
//
// A FaultInjector sits in front of a copy that may fail and decides, per
// *attempt*, whether the copy succeeds, fails, or runs slow. Both
// transports share it, each with its own site key:
//
//   - the paged I/O path (PartitionCache) keys by partition id;
//   - the shard router keys by an envelope's destination shard.
//
// Faults come from three sources:
//
//   - Scripted sites (`fail_next(key, times)`): the next copy for `key`
//     fails its first `times` attempts, then succeeds. Fully
//     deterministic — this is what the acceptance tests use ("fail-twice
//     with a 3-attempt policy must be byte-identical to the no-fault
//     run").
//   - Seed-driven random sites (`Config::fail_rate` / `slow_rate`): each
//     new copy draws one stateless Philox value keyed by (seed, key, site
//     sequence). A faulty site fails `Config::fail_times` consecutive
//     attempts.
//   - Failed-forever keys (`fail_forever(key)`): every attempt for `key`
//     fails, and its scripted sites stay unconsumed. The router reads
//     `failed_forever` to fail the instances resident on a dead shard —
//     the "machine died" scenario behind RequestOutcome::kShardFailed.
//
// A *site* is one logical copy (the first attempt plus its retries).
// When a site concludes — success, or the caller giving up after its
// RetryPolicy — the site's remaining failures are discarded: the next
// copy for the same key starts a fresh site. That is what makes "a
// 1-attempt policy fails the batch, the next batch on the same graph
// succeeds" hold for a fail-once script.
//
// Faults perturb only simulated time and the set of failed instances:
// every sampling draw is keyed by the instance, never by when (or how
// often) a copy crossed the link, so surviving samples stay
// byte-identical.
//
// Thread safety: all methods are internally locked. Two concurrent
// batches sharing one injector interleave their random-site draws
// nondeterministically; tests that need exact placement use scripted
// sites, or one single-threaded consumer (the router's exchange phase).

#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <set>

namespace csaw {

/// Bounded retry with doubling backoff, shared by both transports. A copy
/// makes at most `attempts` tries in total (1 means no retry); retry k
/// (k >= 1) waits `backoff_before(k)` simulated seconds after the failed
/// attempt.
struct RetryPolicy {
  std::uint32_t attempts = 3;
  /// Simulated seconds before the first retry; doubles per further retry.
  double backoff = 1e-4;

  /// backoff * 2^(retry - 1), exact for every retry (an integer shift
  /// would overflow past retry 32).
  double backoff_before(std::uint32_t retry) const noexcept {
    return std::ldexp(backoff, static_cast<int>(retry) - 1);
  }
};

class FaultInjector {
 public:
  enum class Outcome : std::uint8_t {
    kOk,    ///< The copy completes normally.
    kFail,  ///< The copy fails; the caller may retry.
    kSlow,  ///< The copy completes at Config::slow_factor x the duration.
  };

  struct Config {
    std::uint64_t seed = 0;
    /// Probability that a new site is faulty.
    double fail_rate = 0.0;
    /// Consecutive failed attempts of a random faulty site.
    std::uint32_t fail_times = 1;
    /// Probability that a new (non-faulty) site runs slow.
    double slow_rate = 0.0;
    /// Duration multiplier of a slow copy.
    double slow_factor = 4.0;
  };

  FaultInjector();
  explicit FaultInjector(Config config);

  /// Scripts a faulty site: the next copy for `key` fails its first
  /// `times` attempts. Repeated calls queue further sites.
  void fail_next(std::uint32_t key, std::uint32_t times);

  /// Fails every future attempt for `key`.
  void fail_forever(std::uint32_t key);
  bool failed_forever(std::uint32_t key) const;

  /// Consulted once per copy attempt for `key`; `attempt` is 0 for the
  /// copy's first try, then 1, 2, ... for retries. attempt == 0 opens a
  /// new site (consuming a scripted entry or drawing a random one) and
  /// discards any unconsumed failures of the key's previous site.
  Outcome next_attempt(std::uint32_t key, std::uint32_t attempt);

  double slow_factor() const noexcept { return config_.slow_factor; }

  /// Total attempts consulted (tests assert the injector was exercised).
  std::uint64_t attempts_seen() const;

 private:
  Config config_;
  mutable std::mutex mu_;
  /// Scripted sites not yet started, FIFO per key.
  std::map<std::uint32_t, std::deque<std::uint32_t>> scripted_;
  /// Remaining failures of each key's *current* site.
  std::map<std::uint32_t, std::uint32_t> site_remaining_;
  std::set<std::uint32_t> dead_;
  std::uint64_t site_seq_ = 0;
  std::uint64_t attempts_ = 0;
};

}  // namespace csaw
