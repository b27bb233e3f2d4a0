#ifndef LIMEQO_COMMON_THREAD_POOL_H_
#define LIMEQO_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace limeqo {

/// A fixed-size worker pool shared by all numeric kernels.
///
/// The only primitive is ParallelFor over a contiguous index range, split
/// into one chunk per participating thread. Determinism contract: callers
/// must make each index's result independent of the chunk boundaries (every
/// output element is written by exactly one chunk, with a fixed inner
/// accumulation order). Under that contract results are bitwise identical
/// for any thread count, which the completion tests assert. Reductions must
/// partition deterministically (fixed chunks combined in index order) and
/// never use atomics; see the per-row residual reduction in
/// SvtCompleter::Complete (src/core/svt.cc) for the pattern.
///
/// Concurrency contract: ParallelFor may be submitted from any number of
/// threads concurrently (the shared cross-shard train plane does exactly
/// this — several refit jobs fanning out over the one global pool). Each
/// call tracks the completion of *its own* chunks, so concurrent callers
/// never wait on each other's work; chunks from different calls interleave
/// freely on the workers. SetNumThreads is the exception: it tears the
/// workers down and must not race any in-flight ParallelFor (pin the pool
/// size before concurrent submission starts — the tests and the executor
/// both do).
///
/// Dispatch costs: an idle worker spins for a fixed window (a count of
/// pause instructions, ~45 us on a 4-vCPU Xeon VM, never a clock read)
/// watching for queued chunks, then parks on a condition variable. A
/// caller whose own chunk is done spins for the same window on its pending
/// counter, then parks. So a worker burns up to one window of CPU after
/// its last chunk, and a caller up to one window while its chunks finish
/// elsewhere. In exchange a dispatch that lands inside the window starts
/// without a wake-up, which on such a VM costs about as much as a 30-90 us
/// ALS chunk. Submitters signal only parked workers.
class ThreadPool {
 public:
  /// The process-wide pool. Sized on first use from LIMEQO_THREADS if set,
  /// else std::thread::hardware_concurrency().
  static ThreadPool& Global();

  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that participate in a ParallelFor (workers + the
  /// calling thread).
  int num_threads() const { return num_threads_; }

  /// Resizes the pool. Used by tests to pin the thread count; not safe to
  /// call concurrently with ParallelFor (it joins and restarts the
  /// workers). To bound the fan-out of one caller without touching the
  /// pool, use ScopedParallelBudget instead.
  void SetNumThreads(int num_threads);

  /// Invokes fn(chunk_begin, chunk_end) over a partition of [begin, end)
  /// into at most num_threads() contiguous chunks and blocks until all
  /// chunks complete. `grain` is the minimum chunk size: small ranges run
  /// on fewer threads (or inline) so dispatch overhead never dominates.
  /// Nested calls from inside a worker run inline on the caller. Safe to
  /// call from multiple threads concurrently; each call waits only for its
  /// own chunks.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t, size_t)>& fn,
                   size_t grain = 1);

 private:
  struct Task {
    /// Borrowed from the submitting call's frame; valid because the
    /// submitter blocks until its per-call counter reaches zero.
    const std::function<void(size_t, size_t)>* fn = nullptr;
    size_t begin = 0;
    size_t end = 0;
    /// The submitting call's outstanding-chunk counter, a borrowed pointer
    /// into its stack frame. Per-call tracking is what makes concurrent
    /// submission safe: a caller's wait predicate reads only its own
    /// counter.
    std::atomic<int>* pending = nullptr;
  };

  void WorkerLoop();
  /// Pops the newest queued chunk into `task`; the queue must not be empty.
  void PopLocked(Task* task) REQUIRES(mu_);
  /// Pops a queued chunk into `task` if there is one and mu_ is free.
  bool TryPop(Task* task);
  void StartWorkers(int count);
  void StopWorkers();

  int num_threads_;
  /// Touched only by the control plane (constructor, SetNumThreads,
  /// destructor), which per the class contract never races ParallelFor.
  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar task_ready_;
  CondVar task_done_;
  std::vector<Task> queue_ GUARDED_BY(mu_);
  bool shutting_down_ GUARDED_BY(mu_) = false;
  /// Workers parked on task_ready_ (the others are running or spinning).
  int parked_ GUARDED_BY(mu_) = 0;
  /// Callers parked on task_done_ waiting for their chunks.
  int waiting_ GUARDED_BY(mu_) = 0;
  /// queue_.size(), stored under mu_ and polled without it by spinning
  /// workers: a stale read only delays or wastes one TryPop.
  std::atomic<size_t> queued_{0};
};

/// Threads participating in Global() ParallelFor calls.
int NumThreads();

/// Pins the global pool to `num_threads` (>= 1). Tests use this to compare
/// single- and multi-threaded results. Follows ThreadPool::SetNumThreads's
/// contract: never call concurrently with in-flight ParallelFor work.
void SetNumThreads(int num_threads);

/// ParallelFor on the global pool.
void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t, size_t)>& fn,
                 size_t grain = 1);

/// ParallelFor grain for a loop whose indices each cost about
/// `flops_per_index`: at least ~64k flops per chunk, below which the
/// pool's dispatch overhead outweighs the arithmetic.
size_t GrainForCost(size_t flops_per_index);

/// RAII cap on the fan-out of ParallelFor calls made *by this thread* while
/// the scope is alive: each call splits into at most `max_threads` chunks
/// regardless of the pool size. The shared train executor wraps every refit
/// job in one of these so a fleet of N shards fans out to the executor's
/// global linalg budget instead of N * LIMEQO_THREADS. Purely a chunk-count
/// clamp — the determinism contract already makes results bitwise identical
/// for any chunk count, so a budgeted refit equals an unbudgeted one bit
/// for bit. Scopes nest (the inner cap wins until it exits); the cap is
/// thread-local and does not propagate to pool workers, which is correct
/// because nested ParallelFor on a worker runs inline anyway.
class ScopedParallelBudget {
 public:
  explicit ScopedParallelBudget(int max_threads);
  ~ScopedParallelBudget();

  ScopedParallelBudget(const ScopedParallelBudget&) = delete;
  ScopedParallelBudget& operator=(const ScopedParallelBudget&) = delete;

 private:
  int previous_;
};

}  // namespace limeqo

#endif  // LIMEQO_COMMON_THREAD_POOL_H_
