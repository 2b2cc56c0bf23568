#pragma once
/// \file thread_pool.hpp
/// Minimal fixed-size thread pool (core layer: shared by the scenario
/// batch driver and the chemistry SoA batch evaluator).
///
/// The pool exists for one job shape: a deterministic parallel_for over N
/// independent work items (trajectory points of a heating pulse, cases of
/// a parameter sweep). Work items claim indices from a shared atomic
/// counter, so scheduling is dynamic (good load balance across uneven
/// stagnation solves) while every result lands in its own preallocated
/// slot — output is bitwise identical for any thread count as long as the
/// per-item work itself is deterministic. The chemistry/thermo kernels are
/// reentrant (caller-owned workspaces held per solve or per reactor, const
/// solve paths), which is what makes concurrent solver calls safe.
///
/// All shared state carries Clang thread-safety annotations
/// (core/annotations.hpp); clang builds promote -Wthread-safety to an
/// error, so an unguarded access cannot compile there.

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/annotations.hpp"

namespace cat::core {

/// Fixed worker pool with a deterministic index-claiming parallel_for.
class ThreadPool {
 public:
  /// \p n_threads total workers used by parallel_for, including the
  /// calling thread; 0 selects hardware_concurrency(). With n_threads == 1
  /// no worker threads are spawned at all and parallel_for degenerates to
  /// a plain serial loop on the caller.
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads participating in parallel_for (workers + caller).
  std::size_t size() const { return workers_.size() + 1; }

  /// Run fn(i) for i in [0, n). Blocks until every item completed. The
  /// calling thread participates. If any invocations throw, the exception
  /// of the LOWEST-INDEX failing item is rethrown here after all workers
  /// drain — a deterministic choice for any thread count and schedule, in
  /// keeping with the pool's bitwise-reproducibility contract (the old
  /// "first in completion order" rule depended on scheduling). Remaining
  /// items still run; each item must stay independent.
  ///
  /// Reentrancy: parallel_for is safe to call from inside a work item of
  /// the SAME pool (e.g. a served solve whose batch evaluator fans out on
  /// the shared pool). The pool has a single current-job slot, so a nested
  /// call cannot be scheduled as a second concurrent job; it is detected
  /// (thread-local active-pool stack) and degrades to an inline serial
  /// loop on the calling thread — same item order, same lowest-index
  /// failure rule, no new threads, no deadlock. Nesting across DISTINCT
  /// pools still runs threaded on the inner pool.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Default worker count for batch drivers: hardware concurrency, at
  /// least 1.
  static std::size_t recommended_threads();

 private:
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    /// Failure slot: the exception of the lowest-index item that threw.
    cat::Mutex error_mutex;
    std::exception_ptr error CAT_GUARDED_BY(error_mutex);
    std::size_t error_index CAT_GUARDED_BY(error_mutex) = 0;
  };

  void worker_loop();
  void run_items(Job& job);
  /// Inline drain used by the 1-thread pool and by reentrant entry.
  void run_serial(std::size_t n, const std::function<void(std::size_t)>& fn);

  std::vector<std::thread> workers_;
  cat::Mutex mutex_;
  cat::CondVar wake_;      // workers wait for a job
  cat::CondVar finished_;  // parallel_for waits for completion
  // Current job; shared ownership keeps the job alive for any worker that
  // observes it late (after all items completed) and merely no-ops on it.
  std::shared_ptr<Job> job_ CAT_GUARDED_BY(mutex_);
  std::size_t generation_ CAT_GUARDED_BY(mutex_) = 0;  // bumped per job
  bool stop_ CAT_GUARDED_BY(mutex_) = false;
};

}  // namespace cat::core
