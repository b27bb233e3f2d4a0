// ThreadPool concurrency-contract tests: ParallelFor submitted from many
// threads at once stays correct and per-call isolated (no caller waits on
// a stranger's chunks), nested calls run inline, and ScopedParallelBudget
// clamps one caller's fan-out without changing results bitwise. The
// hammer here is the shape the shared train executor creates — several
// refit jobs fanning out over the one global pool — and runs under TSan
// in CI's per-push sanitizer job.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace limeqo {
namespace {

TEST(ThreadPoolTest, ConcurrentSubmissionHammer) {
  SetNumThreads(4);
  constexpr int kSubmitters = 4;
  constexpr int kIterations = 200;
  constexpr size_t kRange = 512;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([s, &mismatches] {
      std::vector<int64_t> out(kRange);
      for (int it = 0; it < kIterations; ++it) {
        const int64_t base = static_cast<int64_t>(s) * 1'000'000 + it;
        ParallelFor(0, kRange, [&out, base](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            out[i] = base + static_cast<int64_t>(i * i);
          }
        });
        // Each call must have completed all of *its own* chunks by the
        // time it returns, no matter what the other submitters are doing.
        for (size_t i = 0; i < kRange; ++i) {
          if (out[i] != base + static_cast<int64_t>(i * i)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  SetNumThreads(1);
}

TEST(ThreadPoolTest, ParallelForAfterWorkersParkWakesThem) {
  SetNumThreads(4);
  for (int round = 0; round < 3; ++round) {
    // Idle far longer than the spin window, so every worker has parked.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::atomic<int> started{0};
    std::atomic<int> met{0};
    ParallelFor(0, 4, [&](size_t, size_t) {
      started.fetch_add(1, std::memory_order_acq_rel);
      // A barrier across the four chunks: it completes only if the call
      // woke the parked workers. Bounded, so a lost wakeup fails the
      // expectation instead of spinning forever in the chunk.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (started.load(std::memory_order_acquire) < 4 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      if (started.load(std::memory_order_acquire) == 4) {
        met.fetch_add(1, std::memory_order_relaxed);
      }
    });
    EXPECT_EQ(met.load(std::memory_order_relaxed), 4) << "round " << round;
  }
  SetNumThreads(1);
}

TEST(ThreadPoolTest, SetNumThreadsWhileWorkersSpin) {
  constexpr size_t kRange = 4096;
  for (int round = 0; round < 30; ++round) {
    // Each resize lands right after a ParallelFor, while the workers of
    // the previous size are still inside their spin window.
    SetNumThreads(2 + round % 3);
    std::vector<int64_t> out(kRange, -1);
    ParallelFor(0, kRange, [&out, round](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        out[i] = static_cast<int64_t>(i) * 3 + round;
      }
    });
    for (size_t i = 0; i < kRange; ++i) {
      ASSERT_EQ(out[i], static_cast<int64_t>(i) * 3 + round) << i;
    }
  }
  SetNumThreads(1);
}

TEST(ThreadPoolTest, NestedCallsRunInline) {
  SetNumThreads(4);
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 64;
  std::vector<int64_t> out(kOuter * kInner, -1);
  ParallelFor(0, kOuter, [&out](size_t begin, size_t end) {
    for (size_t o = begin; o < end; ++o) {
      // A nested call from a pool worker must run inline (no new chunks
      // queued) — otherwise outer chunks could deadlock waiting for
      // workers that are themselves blocked in outer chunks.
      ParallelFor(0, kInner, [&out, o](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) {
          out[o * kInner + i] = static_cast<int64_t>(o * 1000 + i);
        }
      });
    }
  });
  for (size_t o = 0; o < kOuter; ++o) {
    for (size_t i = 0; i < kInner; ++i) {
      ASSERT_EQ(out[o * kInner + i], static_cast<int64_t>(o * 1000 + i));
    }
  }
  SetNumThreads(1);
}

TEST(ThreadPoolTest, ScopedParallelBudgetClampsChunkCount) {
  SetNumThreads(4);
  constexpr size_t kRange = 1024;
  const auto count_chunks = [] {
    std::atomic<int> chunks{0};
    ParallelFor(0, kRange, [&chunks](size_t, size_t) {
      chunks.fetch_add(1, std::memory_order_relaxed);
    });
    return chunks.load();
  };
  EXPECT_EQ(count_chunks(), 4);
  {
    ScopedParallelBudget budget(2);
    EXPECT_EQ(count_chunks(), 2);
    {
      // Scopes nest: the inner cap wins until it exits.
      ScopedParallelBudget inner(1);
      EXPECT_EQ(count_chunks(), 1);
    }
    EXPECT_EQ(count_chunks(), 2);
    {
      // A budget above the pool size is the pool size.
      ScopedParallelBudget wide(64);
      EXPECT_EQ(count_chunks(), 4);
    }
  }
  EXPECT_EQ(count_chunks(), 4);
  SetNumThreads(1);
}

TEST(ThreadPoolTest, BudgetedResultsAreBitwiseIdentical) {
  SetNumThreads(4);
  constexpr size_t kRange = 777;
  // A deterministic per-index computation with enough floating-point work
  // that any chunk-boundary dependence would show up bitwise.
  const auto fill = [](std::vector<double>* out) {
    ParallelFor(0, kRange, [out](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        double acc = 1.0 + static_cast<double>(i) * 1e-3;
        for (int r = 0; r < 16; ++r) acc = acc * 1.0000001 + 1.0 / (acc + r);
        (*out)[i] = acc;
      }
    });
  };
  std::vector<double> unbudgeted(kRange);
  fill(&unbudgeted);
  for (int cap : {1, 2, 3}) {
    std::vector<double> budgeted(kRange);
    ScopedParallelBudget budget(cap);
    fill(&budgeted);
    for (size_t i = 0; i < kRange; ++i) {
      ASSERT_EQ(budgeted[i], unbudgeted[i]) << "cap=" << cap << " i=" << i;
    }
  }
  SetNumThreads(1);
}

TEST(ThreadPoolTest, ConcurrentSubmittersWithIndependentBudgets) {
  SetNumThreads(4);
  constexpr int kSubmitters = 3;
  constexpr int kIterations = 100;
  constexpr size_t kRange = 256;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([s, &mismatches] {
      // The executor's shape: each job thread caps its own fan-out; the
      // caps are thread-local and must not leak across submitters.
      ScopedParallelBudget budget(1 + s % 3);
      std::vector<int64_t> out(kRange);
      for (int it = 0; it < kIterations; ++it) {
        const int64_t base = static_cast<int64_t>(s) * 7'000'000 + it;
        ParallelFor(0, kRange, [&out, base](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            out[i] = base ^ static_cast<int64_t>(i * 2654435761u);
          }
        });
        for (size_t i = 0; i < kRange; ++i) {
          if (out[i] != (base ^ static_cast<int64_t>(i * 2654435761u))) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  SetNumThreads(1);
}

}  // namespace
}  // namespace limeqo
