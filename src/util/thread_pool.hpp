#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/annotations.hpp"
#include "util/error.hpp"
#include "util/mutex.hpp"

namespace palb {

/// Fixed-size worker pool. The profit-aware optimizer fans hundreds of
/// independent LP solves (one per TUF-level profile) across cores; the
/// benches fan Monte-Carlo replications; serve::AsyncPlanner runs
/// whole controller solves on it so the online dispatcher's route path
/// never waits on a solver. A dedicated pool (instead of std::async)
/// keeps thread counts bounded and deterministic.
///
/// Shutdown contract (exercised under TSan by the test suite): once
/// shutdown() starts, in-flight and already-queued jobs all run to
/// completion, and any submit() racing or following it either enqueues
/// the job (it will run) or throws InvalidArgument — a task can never be
/// accepted and then silently dropped with a forever-pending future.
class ThreadPool {
 public:
  /// `threads == 0` picks std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; the returned future rethrows any task exception.
  /// Throws InvalidArgument if the pool has begun shutting down.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>>
      PALB_EXCLUDES(mutex_) {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      MutexLock lock(mutex_);
      PALB_CHECK(!stopping_,
                 "submit() on a ThreadPool that is shutting down");
      jobs_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Drains the queue and joins the workers. Every job accepted before
  /// (or while) this call runs to completion. Idempotent and safe to
  /// call from several threads concurrently; the destructor calls it.
  void shutdown() PALB_EXCLUDES(mutex_, join_mutex_);

 private:
  void worker_loop() PALB_EXCLUDES(mutex_);

  /// Written only by the constructor (single-threaded) and joined under
  /// join_mutex_; size() reads the by-then-immutable length unlocked,
  /// which is why the vector itself carries no GUARDED_BY.
  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar cv_;
  /// Serializes concurrent shutdown() callers around the joins. Never
  /// nested with mutex_ (shutdown releases mutex_ before taking it).
  Mutex join_mutex_;
  std::queue<std::function<void()>> jobs_ PALB_GUARDED_BY(mutex_);
  bool stopping_ PALB_GUARDED_BY(mutex_) = false;
};

/// Runs fn(i) for i in [0, n) across the pool, blocking until all finish.
/// Fault contract (exercised under TSan by the test suite): a throwing
/// iteration aborts nothing — every worker still drains its share of
/// [0, n), all futures are collected, and only then is the exception of
/// the lowest-index failing iteration rethrown on the caller. No
/// std::terminate, no deadlock, and the same exception no matter how
/// the race to fail went.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

/// Convenience overload creating a transient pool sized to
/// bounded_workers(0, n) — never more threads than iterations.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Worker count actually worth spawning for `jobs` independent jobs:
/// min(requested, jobs), floored at 1. `requested == 0` resolves to
/// std::thread::hardware_concurrency() first. for_each_slot and the
/// transient parallel_for size their pools through this so a 1-slot run
/// never pays for idle workers.
std::size_t bounded_workers(std::size_t requested, std::size_t jobs);

}  // namespace palb
