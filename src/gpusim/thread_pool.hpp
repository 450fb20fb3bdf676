#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace csaw::sim {

/// Resolves a requested host-thread count into an effective width:
///   0  — auto: the CSAW_THREADS environment variable when set, otherwise
///        std::thread::hardware_concurrency()
///   n  — exactly n (1 = the legacy serial path)
/// Always returns at least 1.
std::uint32_t resolve_num_threads(std::uint32_t requested);

/// Persistent work-stealing thread pool executing the simulator's
/// warp-tasks. One pool outlives many kernel launches (workers park on a
/// condition variable between launches) and may be shared by several
/// Devices — multi-device runs execute their per-device engines through
/// the same pool without oversubscribing the host.
///
/// Scheduling model: each parallel_for distributes its items into
/// per-worker queues in deterministic contiguous index chunks; a worker
/// drains its own queue front-to-back and steals from the back of other
/// queues when it runs dry. Which worker executes an item is therefore
/// *not* deterministic — callers must make results independent of the
/// schedule (per-item output slots, per-worker scratch, order-independent
/// reductions), which is exactly the contract Device::run_chains builds
/// on.
///
/// parallel_for is reentrant: an item may itself call parallel_for on the
/// same pool (nested multi-device kernels). The caller participates in the
/// work and, while waiting for stragglers, helps drain other in-flight
/// batches instead of blocking — so nesting cannot deadlock.
///
/// External (non-worker) threads are admitted up to a fixed capacity
/// (`max_external_threads`, default 1): each one claims a registered
/// *external slot* for the duration of its outermost batch, giving it a
/// worker identity no other thread — spawned worker or concurrent
/// external — can hold at the same time. Identities passed to items are
/// therefore unique per executing thread even when several engine runs
/// share the pool, which is what makes per-batch WorkerScratch safe: a
/// scratch row is only ever touched by the one thread owning that
/// identity. A thread arriving when every slot is held throws CheckError
/// instead of silently aliasing scratch. (The inline shortcut for
/// width-1 pools and single-item batches never registers a batch and is
/// exempt: it runs entirely on the caller's stack, and every engine is
/// driven by exactly one external thread, so its scratch row 0 has a
/// single writer.) This is the sharing contract the service tier builds
/// on: client threads never touch the pool; up to
/// `ServiceConfig::max_concurrent_batches` batch-runner threads drive
/// independent engine runs through it concurrently, while the engines'
/// nested parallel_for / parallel_chains calls (issued from pool
/// workers) remain deadlock-free via the help-while-waiting loop below.
class ThreadPool {
 public:
  /// Worker function: item index plus the executing worker's identity in
  /// [0, max_workers()). The identity indexes per-worker scratch.
  using Task = std::function<void(std::size_t item, std::uint32_t worker)>;

  /// Spawns `num_threads - 1` workers (the calling thread is the last
  /// worker). `num_threads` must be >= 1; a width-1 pool runs everything
  /// inline. `max_external_threads` (>= 1) bounds how many external
  /// threads may drive batches concurrently; the first holds the classic
  /// worker identity 0, additional ones get identities past the spawned
  /// workers' — see max_workers().
  explicit ThreadPool(std::uint32_t num_threads,
                      std::uint32_t max_external_threads = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution width, including the calling thread.
  std::uint32_t num_threads() const noexcept { return num_threads_; }

  /// Exclusive upper bound of worker identities passed to tasks:
  /// `num_threads() + max_external_threads - 1` (external slot 0 reuses
  /// identity 0; every further slot extends the range). Per-worker
  /// scratch must be sized with this, not num_threads() — engines get it
  /// through Device::max_workers().
  std::uint32_t max_workers() const noexcept {
    return num_threads_ + max_external_ - 1;
  }

  /// Worker identity of the current thread: its slot for pool workers, 0
  /// for external threads.
  std::uint32_t current_worker() const noexcept;

  /// Runs fn(item, worker) for every item in [0, num_items). Blocks until
  /// all items completed (the calling thread participates). The first
  /// exception thrown by an item is rethrown here after the batch drains;
  /// items still queued when it was thrown are abandoned. The pool remains
  /// usable after a throwing batch.
  void parallel_for(std::size_t num_items, const Task& fn);

  /// parallel_for variant for *dependency chains*: item c is an entire
  /// serial sequence of dependent tasks (one sampling instance's step
  /// chain — step s+1 of a chain starts the moment its own step s
  /// returns, never waiting on other chains). Semantics are parallel_for's
  /// (blocking, exception handling, reentrancy, schedule-independence
  /// contract); only the initial distribution differs: chain indices are
  /// dealt round-robin across worker queues (chain c starts on worker
  /// c mod width) instead of contiguous chunks, so neighboring chains —
  /// which engines sort into similar lengths — land on different workers.
  /// Stealing still rebalances the tail.
  void parallel_chains(std::size_t num_chains, const Task& fn);

 private:
  /// How run_batch deals items into the per-worker queues.
  enum class Distribution { kContiguous, kRoundRobin };

  struct Batch {
    const Task* fn = nullptr;
    /// Per-worker item queues; mutex-per-queue, stealing from the back.
    std::vector<std::deque<std::size_t>> queues;
    std::vector<std::mutex> queue_mu;
    /// Cheap "has queued work" hint so batch selection does not need the
    /// queue mutexes; correctness comes from the mutexes themselves.
    std::atomic<std::size_t> queued{0};
    std::size_t remaining = 0;  ///< items not yet finished (under pool mu_)
    std::size_t visitors = 0;   ///< threads inside drain() (under pool mu_)
    std::exception_ptr error;   ///< first failure (under pool mu_)

    explicit Batch(std::size_t width) : queues(width), queue_mu(width) {}
  };

  /// Shared body of parallel_for / parallel_chains.
  void run_batch(std::size_t num_items, const Task& fn,
                 Distribution distribution);
  void worker_main(std::uint32_t worker);
  /// Pops the next item of `batch` for `worker` (own queue first, then
  /// stealing). Returns false when the batch has no queued items left.
  bool pop_item(Batch& batch, std::uint32_t worker, std::size_t& item);
  /// Runs queued items of `batch` until none remain queued.
  void drain(Batch& batch, std::uint32_t worker);
  /// Marks one item of `batch` done (or failed) and wakes waiters.
  void finish_item(Batch& batch, std::exception_ptr error);

  /// Worker identity of external slot k: slot 0 keeps the classic
  /// identity 0 (spawned workers occupy 1..num_threads-1), slot k >= 1
  /// extends past the spawned workers to num_threads + k - 1.
  std::uint32_t external_identity(std::uint32_t slot) const noexcept {
    return slot == 0 ? 0u : num_threads_ + slot - 1;
  }

  std::uint32_t num_threads_;
  std::uint32_t max_external_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: new batch or shutdown
  std::condition_variable done_cv_;  ///< batch owners: progress happened
  std::vector<Batch*> active_;       ///< in-flight batches, registration order
  bool stopping_ = false;
  /// External-thread admission (under mu_): slot k is held by the thread
  /// whose id is stored there, or free when default-constructed. A thread
  /// claims a slot on its outermost run_batch and releases it when that
  /// frame unwinds; nested batches reuse the claimed identity via the
  /// thread-local worker id.
  std::vector<std::thread::id> external_slots_;
};

}  // namespace csaw::sim
