#include "gpusim/thread_pool.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/cli.hpp"

namespace csaw::sim {
namespace {

/// Worker identity of the current thread *in tls_pool*; -1 when the
/// thread holds no identity. The pool pointer qualifies the identity:
/// an identity claimed in one pool means nothing in another, so a
/// thread driving pool Q from inside its registration in pool P must go
/// through Q's own external admission (and restores P's identity when
/// Q's batch unwinds) instead of silently reusing P's — possibly
/// out-of-range or colliding — identity.
thread_local const void* tls_pool = nullptr;
thread_local std::int64_t tls_worker = -1;

}  // namespace

std::uint32_t resolve_num_threads(std::uint32_t requested) {
  if (requested > 0) return requested;
  if (const auto env = env_int("CSAW_THREADS")) {
    CSAW_CHECK_MSG(*env >= 1, "CSAW_THREADS must be >= 1, got " << *env);
    return static_cast<std::uint32_t>(*env);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::uint32_t>(hw);
}

ThreadPool::ThreadPool(std::uint32_t num_threads,
                       std::uint32_t max_external_threads)
    : num_threads_(num_threads),
      max_external_(max_external_threads),
      external_slots_(max_external_threads) {
  CSAW_CHECK(num_threads >= 1);
  CSAW_CHECK(max_external_threads >= 1);
  workers_.reserve(num_threads - 1);
  // External slot 0 owns worker identity 0; spawned workers take 1..n-1
  // (further external slots extend past them — external_identity()).
  for (std::uint32_t w = 1; w < num_threads; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

std::uint32_t ThreadPool::current_worker() const noexcept {
  return (tls_pool == this && tls_worker >= 0)
             ? static_cast<std::uint32_t>(tls_worker)
             : 0u;
}

void ThreadPool::parallel_for(std::size_t num_items, const Task& fn) {
  run_batch(num_items, fn, Distribution::kContiguous);
}

void ThreadPool::parallel_chains(std::size_t num_chains, const Task& fn) {
  run_batch(num_chains, fn, Distribution::kRoundRobin);
}

void ThreadPool::run_batch(std::size_t num_items, const Task& fn,
                           Distribution distribution) {
  if (num_items == 0) return;
  if (num_threads_ == 1 || num_items == 1) {
    // Inline shortcut: runs on the caller's stack under the caller's
    // current identity (its claimed slot when nested inside a registered
    // batch, 0 otherwise — safe because each engine run has exactly one
    // driving thread, so its scratch row has a single writer).
    const std::uint32_t self = current_worker();
    for (std::size_t i = 0; i < num_items; ++i) fn(i, self);
    return;
  }

  Batch batch(num_threads_);
  // Deterministic initial placement; stealing rebalances at runtime, and
  // results must not depend on who executes what (Device::run_chains'
  // contract). parallel_for deals contiguous chunks (worker w owns
  // [w*chunk, (w+1)*chunk) — cache-friendly for slot-indexed outputs);
  // parallel_chains deals round-robin (item i starts on worker i mod
  // width — spreads similar-length neighboring chains).
  if (distribution == Distribution::kContiguous) {
    const std::size_t chunk = (num_items + num_threads_ - 1) / num_threads_;
    for (std::uint32_t w = 0; w < num_threads_; ++w) {
      const std::size_t begin = std::min<std::size_t>(w * chunk, num_items);
      const std::size_t end = std::min(begin + chunk, num_items);
      for (std::size_t i = begin; i < end; ++i) batch.queues[w].push_back(i);
    }
  } else {
    for (std::size_t i = 0; i < num_items; ++i) {
      batch.queues[i % num_threads_].push_back(i);
    }
  }
  batch.fn = &fn;
  batch.remaining = num_items;
  batch.queued.store(num_items, std::memory_order_relaxed);

  // A thread with no identity *in this pool* claims a free external
  // slot for the duration of this (outermost-in-this-pool) batch;
  // nested batches it issues on the same pool reuse the claimed
  // identity through tls_worker and release nothing. An identity held
  // in a different pool does not count — it is saved and restored
  // around this pool's registration.
  const bool registered_here = !(tls_pool == this && tls_worker >= 0);
  const void* const saved_pool = tls_pool;
  const std::int64_t saved_worker = tls_worker;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (registered_here) {
      std::uint32_t slot = max_external_;
      for (std::uint32_t k = 0; k < max_external_; ++k) {
        if (external_slots_[k] == std::thread::id{}) {
          slot = k;
          break;
        }
      }
      // Every slot held: admitting this thread would hand out a worker
      // identity some concurrent thread already uses, aliasing per-worker
      // scratch. Fail loudly — size max_external_threads to the number of
      // threads that drive the pool concurrently (csaw::Service sizes it
      // to max_concurrent_batches).
      CSAW_CHECK_MSG(slot < max_external_,
                     "all " << max_external_
                            << " external slot(s) of this ThreadPool are "
                               "held by concurrently driving threads; "
                               "raise max_external_threads or route work "
                               "through fewer threads");
      external_slots_[slot] = std::this_thread::get_id();
      tls_pool = this;
      tls_worker = external_identity(slot);
    }
    active_.push_back(&batch);
    ++batch.visitors;
  }
  const std::uint32_t self = static_cast<std::uint32_t>(tls_worker);
  work_cv_.notify_all();
  done_cv_.notify_all();  // owners waiting on other batches may help this one

  drain(batch, self);

  // Wait for stragglers. While waiting, help other in-flight batches (a
  // nested parallel_for issued by one of our items registers a new batch
  // we must be willing to drain — blocking instead could starve it on a
  // fully-busy pool). The batch lives on this stack frame, so it may only
  // be unregistered once no thread is inside drain() on it.
  std::unique_lock<std::mutex> lock(mu_);
  if (--batch.visitors == 0) done_cv_.notify_all();
  while (batch.remaining > 0 || batch.visitors > 0) {
    Batch* other = nullptr;
    for (Batch* candidate : active_) {
      if (candidate != &batch &&
          candidate->queued.load(std::memory_order_relaxed) > 0) {
        other = candidate;
        break;
      }
    }
    if (other != nullptr) {
      ++other->visitors;
      lock.unlock();
      drain(*other, self);
      lock.lock();
      if (--other->visitors == 0) done_cv_.notify_all();
      continue;
    }
    done_cv_.wait(lock);
  }
  active_.erase(std::find(active_.begin(), active_.end(), &batch));
  if (registered_here) {
    // Outermost frame of this pool's registration: free the slot (a
    // later batch — from this thread or another — may claim it afresh)
    // and restore whatever identity the thread held before (another
    // pool's, or none).
    const auto it = std::find(external_slots_.begin(), external_slots_.end(),
                              std::this_thread::get_id());
    *it = std::thread::id{};
    tls_pool = saved_pool;
    tls_worker = saved_worker;
  }
  if (batch.error) std::rethrow_exception(batch.error);
}

void ThreadPool::worker_main(std::uint32_t worker) {
  tls_pool = this;
  tls_worker = worker;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stopping_) return;
    Batch* batch = nullptr;
    for (Batch* candidate : active_) {
      if (candidate->queued.load(std::memory_order_relaxed) > 0) {
        batch = candidate;
        break;
      }
    }
    if (batch == nullptr) {
      work_cv_.wait(lock);
      continue;
    }
    ++batch->visitors;  // keeps the owner from unregistering under us
    lock.unlock();
    drain(*batch, worker);
    lock.lock();
    if (--batch->visitors == 0) done_cv_.notify_all();
  }
}

bool ThreadPool::pop_item(Batch& batch, std::uint32_t worker,
                          std::size_t& item) {
  // Item queues exist per spawned-worker slot only; identities past
  // num_threads (extra external slots) fold onto a home queue — the
  // identity stays unique for scratch, the queue is just where this
  // thread looks first.
  const std::uint32_t home = worker % num_threads_;
  // Own queue first (front), then steal from the back of the others.
  {
    std::lock_guard<std::mutex> lock(batch.queue_mu[home]);
    if (!batch.queues[home].empty()) {
      item = batch.queues[home].front();
      batch.queues[home].pop_front();
      batch.queued.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  for (std::uint32_t step = 1; step < num_threads_; ++step) {
    const std::uint32_t victim = (home + step) % num_threads_;
    std::lock_guard<std::mutex> lock(batch.queue_mu[victim]);
    if (!batch.queues[victim].empty()) {
      item = batch.queues[victim].back();
      batch.queues[victim].pop_back();
      batch.queued.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ThreadPool::drain(Batch& batch, std::uint32_t worker) {
  std::size_t item = 0;
  while (pop_item(batch, worker, item)) {
    std::exception_ptr error;
    try {
      (*batch.fn)(item, worker);
    } catch (...) {
      error = std::current_exception();
      // Fail fast: abandon the batch's queued items (mirrors the serial
      // path, which stops at the first throwing task). Queue mutexes are
      // never held while taking mu_.
      std::size_t dropped = 0;
      for (std::uint32_t q = 0; q < num_threads_; ++q) {
        std::lock_guard<std::mutex> qlock(batch.queue_mu[q]);
        dropped += batch.queues[q].size();
        batch.queues[q].clear();
      }
      batch.queued.store(0, std::memory_order_relaxed);
      if (dropped > 0) {
        std::lock_guard<std::mutex> lock(mu_);
        batch.remaining -= dropped;
      }
    }
    finish_item(batch, error);
  }
}

void ThreadPool::finish_item(Batch& batch, std::exception_ptr error) {
  bool done = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (error && !batch.error) batch.error = error;
    done = --batch.remaining == 0;
  }
  if (done) done_cv_.notify_all();
}

}  // namespace csaw::sim
