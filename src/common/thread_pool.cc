#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace limeqo {
namespace {

// True while the current thread is executing a ParallelFor chunk; nested
// calls run inline to avoid deadlocking a finite pool.
thread_local bool t_in_parallel_region = false;

// Per-thread chunk cap installed by ScopedParallelBudget (0 = uncapped).
thread_local int t_parallel_budget = 0;

int DefaultNumThreads() {
  if (const char* env = std::getenv("LIMEQO_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(DefaultNumThreads());
  return *pool;
}

ThreadPool::ThreadPool(int num_threads) : num_threads_(std::max(num_threads, 1)) {
  StartWorkers(num_threads_ - 1);
}

ThreadPool::~ThreadPool() { StopWorkers(); }

void ThreadPool::SetNumThreads(int num_threads) {
  num_threads = std::max(num_threads, 1);
  if (num_threads == num_threads_) return;
  StopWorkers();
  num_threads_ = num_threads;
  StartWorkers(num_threads_ - 1);
}

void ThreadPool::StartWorkers(int count) {
  {
    MutexLock lock(mu_);
    shutting_down_ = false;
  }
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::StopWorkers() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  task_ready_.NotifyAll();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      MutexLock lock(mu_);
      while (!shutting_down_ && queue_.empty()) task_ready_.Wait(mu_);
      if (queue_.empty()) return;  // shutting down
      task = queue_.back();
      queue_.pop_back();
    }
    t_in_parallel_region = true;
    (*task.fn)(task.begin, task.end);
    t_in_parallel_region = false;
    bool call_complete = false;
    {
      MutexLock lock(mu_);
      call_complete = --*task.pending == 0;
    }
    // Wake waiters only when some call's last chunk finished; each waiter
    // re-checks its own counter, so a wakeup for another call is harmless.
    if (call_complete) task_done_.NotifyAll();
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t, size_t)>& fn,
                             size_t grain) {
  if (begin >= end) return;
  const size_t len = end - begin;
  grain = std::max<size_t>(grain, 1);
  size_t max_chunks = static_cast<size_t>(num_threads_);
  if (t_parallel_budget > 0) {
    max_chunks = std::min(max_chunks, static_cast<size_t>(t_parallel_budget));
  }
  size_t chunks = std::min<size_t>(max_chunks, (len + grain - 1) / grain);
  if (chunks <= 1 || workers_.empty() || t_in_parallel_region) {
    fn(begin, end);
    return;
  }
  // Near-equal contiguous chunks; the first `rem` chunks get one extra index.
  const size_t base = len / chunks;
  const size_t rem = len % chunks;
  std::vector<std::pair<size_t, size_t>> bounds;
  bounds.reserve(chunks);
  size_t at = begin;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t size_c = base + (c < rem ? 1 : 0);
    bounds.emplace_back(at, at + size_c);
    at += size_c;
  }
  // Per-call completion state lives on this frame: the workers borrow
  // pointers into it, which is safe because this call blocks below until
  // its own counter drains. Concurrent ParallelFor calls therefore wait
  // only for their own chunks, never for a stranger's.
  int pending = static_cast<int>(chunks - 1);
  {
    MutexLock lock(mu_);
    for (size_t c = 1; c < chunks; ++c) {
      queue_.push_back(Task{&fn, bounds[c].first, bounds[c].second, &pending});
    }
  }
  task_ready_.NotifyAll();
  // Run the first chunk on the calling thread.
  t_in_parallel_region = true;
  fn(bounds[0].first, bounds[0].second);
  t_in_parallel_region = false;
  // `pending` is written by the workers under mu_ and read here under mu_.
  MutexLock lock(mu_);
  while (pending != 0) task_done_.Wait(mu_);
}

int NumThreads() { return ThreadPool::Global().num_threads(); }

void SetNumThreads(int num_threads) {
  ThreadPool::Global().SetNumThreads(num_threads);
}

void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t, size_t)>& fn, size_t grain) {
  ThreadPool::Global().ParallelFor(begin, end, fn, grain);
}

size_t GrainForCost(size_t flops_per_index) {
  constexpr size_t kMinFlopsPerChunk = 1 << 16;
  return std::max<size_t>(1, kMinFlopsPerChunk / (flops_per_index + 1));
}

ScopedParallelBudget::ScopedParallelBudget(int max_threads)
    : previous_(t_parallel_budget) {
  t_parallel_budget = std::max(max_threads, 1);
}

ScopedParallelBudget::~ScopedParallelBudget() {
  t_parallel_budget = previous_;
}

}  // namespace limeqo
