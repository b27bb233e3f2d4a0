#include <atomic>
#include <cmath>
#include <set>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"

namespace limeqo {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 7}) {
    SetNumThreads(threads);
    std::vector<int> hits(1013, 0);
    ParallelFor(0, hits.size(), [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) ++hits[i];
    });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], 1) << "index " << i << " at " << threads
                            << " threads";
    }
  }
  SetNumThreads(1);
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndTinyRanges) {
  SetNumThreads(4);
  int calls = 0;
  ParallelFor(5, 5, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::vector<int> hits(3, 0);
  ParallelFor(0, hits.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_EQ(hits[0] + hits[1] + hits[2], 3);
  SetNumThreads(1);
}

TEST(ThreadPoolTest, GrainLimitsChunkCount) {
  SetNumThreads(8);
  std::atomic<int> chunks{0};
  ParallelFor(
      0, 100, [&](size_t, size_t) { chunks.fetch_add(1); }, /*grain=*/50);
  EXPECT_LE(chunks.load(), 2);
  SetNumThreads(1);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  SetNumThreads(4);
  std::vector<int> hits(64, 0);
  ParallelFor(0, 8, [&](size_t outer_begin, size_t outer_end) {
    for (size_t o = outer_begin; o < outer_end; ++o) {
      ParallelFor(0, 8, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) ++hits[o * 8 + i];
      });
    }
  });
  for (size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i], 1);
  SetNumThreads(1);
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad rank");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad rank");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad rank");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kNotFound,
        StatusCode::kInternal, StatusCode::kUnimplemented}) {
    EXPECT_STRNE(StatusCodeName(code), "UNKNOWN");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, WorksWithMoveOnlyLikeTypes) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> owned = std::move(v).value();
  EXPECT_EQ(*owned, 7);
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) same += (a.NextUint64() == b.NextUint64());
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformInt(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(RngTest, GaussianMomentsRoughlyCorrect) {
  Rng rng(11);
  std::vector<double> draws(20000);
  for (double& x : draws) x = rng.Gaussian(5.0, 2.0);
  double mean = 0.0;
  for (const double x : draws) mean += x;
  mean /= static_cast<double>(draws.size());
  double squares = 0.0;
  for (const double x : draws) squares += (x - mean) * (x - mean);
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(std::sqrt(squares / static_cast<double>(draws.size() - 1)), 2.0,
              0.1);
}

TEST(RngTest, LogNormalIsPositive) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.LogNormal(0.0, 2.0), 0.0);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(15);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(17);
  std::vector<int> p = rng.Permutation(20);
  std::set<int> s(p.begin(), p.end());
  EXPECT_EQ(s.size(), 20u);
  EXPECT_EQ(*s.begin(), 0);
  EXPECT_EQ(*s.rbegin(), 19);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng child = a.Fork();
  // Child stream should differ from the parent's continued stream.
  int same = 0;
  for (int i = 0; i < 50; ++i) same += (a.NextUint64() == child.NextUint64());
  EXPECT_LT(same, 3);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer", "22"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TablePrinterTest, FormatHelpers) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDuration(5400.0), "1.50h");
  EXPECT_EQ(FormatDuration(90.0), "90.0s");
}

}  // namespace
}  // namespace limeqo
