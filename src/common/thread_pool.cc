#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace limeqo {
namespace {

// True while the current thread is executing a ParallelFor chunk; nested
// calls run inline to avoid deadlocking a finite pool.
thread_local bool t_in_parallel_region = false;

// Per-thread chunk cap installed by ScopedParallelBudget (0 = uncapped).
thread_local int t_parallel_budget = 0;

// How long an idle worker watches the queue, and a caller watches its own
// pending chunks, before parking on a condition variable: a count of
// CpuRelax() rounds, never a clock read. 2048 rounds take ~45 us where a
// pause costs ~22 ns (a 4-vCPU Xeon VM), which covers the serial gaps
// between an ALS sweep's dispatches (~30-40 us); waking a parked thread
// there costs about as much as the chunk it then runs.
constexpr int kSpinRounds = 2048;

// One round of a spin-wait: tells the core this is a busy-wait loop
// (frees pipeline resources for a hyperthread sibling, and paces the
// polling loads).
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

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

void ThreadPool::PopLocked(Task* task) {
  *task = queue_.back();
  queue_.pop_back();
  queued_.store(queue_.size(), std::memory_order_relaxed);
}

bool ThreadPool::TryPop(Task* task) {
  // A busy mutex means another thread is queueing or popping right now:
  // keep spinning rather than sleep in the mutex.
  if (!mu_.TryLock()) return false;
  const bool popped = !queue_.empty();
  if (popped) PopLocked(task);
  mu_.Unlock();
  return popped;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    // Spin: take a chunk as soon as one is queued. queued_ is only a hint
    // that makes the idle poll lock-free; the pop itself happens under mu_.
    bool have_task = false;
    for (int round = 0; round < kSpinRounds && !have_task; ++round) {
      have_task = queued_.load(std::memory_order_relaxed) != 0 && TryPop(&task);
      if (!have_task) CpuRelax();
    }
    // Park: submitters signal task_ready_ only while parked_ > 0.
    if (!have_task) {
      MutexLock lock(mu_);
      while (!shutting_down_ && queue_.empty()) {
        ++parked_;
        task_ready_.Wait(mu_);
        --parked_;
      }
      if (queue_.empty()) return;  // shutting down
      PopLocked(&task);
    }
    t_in_parallel_region = true;
    (*task.fn)(task.begin, task.end);
    t_in_parallel_region = false;
    // Release: the chunk's writes happen-before the submitter's acquire of
    // its counter reaching zero. The counter lives on the submitter's frame
    // and is not touched again after the decrement.
    // lint:allow(memory_order): an explicit acq_rel fetch_sub through a
    // pointer; the rule's lexical match reads `->` as an implicit load.
    if (task.pending->fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // The last chunk of a call: wake its submitter if it parked. Taking
      // mu_ orders this check after a submitter's check-then-park (which
      // runs under mu_), so the wakeup cannot be lost.
      bool wake = false;
      {
        MutexLock lock(mu_);
        wake = waiting_ > 0;
      }
      if (wake) task_done_.NotifyAll();
    }
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
  auto chunk_begin = [&](size_t c) {
    return begin + c * base + std::min(c, rem);
  };
  // Per-call completion state lives on this frame: the workers borrow
  // pointers into it, which is safe because this call returns only after
  // its own counter drains. Concurrent ParallelFor calls therefore wait
  // only for their own chunks, never for a stranger's.
  std::atomic<int> pending(static_cast<int>(chunks - 1));
  size_t wake = 0;
  {
    MutexLock lock(mu_);
    for (size_t c = 1; c < chunks; ++c) {
      queue_.push_back(Task{&fn, chunk_begin(c), chunk_begin(c + 1), &pending});
    }
    queued_.store(queue_.size(), std::memory_order_relaxed);
    wake = std::min(static_cast<size_t>(parked_), chunks - 1);
  }
  // Spinning workers find the chunks by themselves; only parked ones need
  // a signal.
  for (size_t w = 0; w < wake; ++w) task_ready_.NotifyOne();
  // Run the first chunk on the calling thread.
  t_in_parallel_region = true;
  fn(chunk_begin(0), chunk_begin(1));
  t_in_parallel_region = false;
  // Acquire pairs with each worker's release decrement: once the counter
  // reads zero, every chunk's writes are visible here.
  for (int round = 0; round < kSpinRounds; ++round) {
    if (pending.load(std::memory_order_acquire) == 0) return;
    CpuRelax();
  }
  MutexLock lock(mu_);
  ++waiting_;
  while (pending.load(std::memory_order_acquire) != 0) task_done_.Wait(mu_);
  --waiting_;
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
