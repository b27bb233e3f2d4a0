#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/online.h"
#include "core/workload_matrix.h"

namespace limeqo::core {
namespace {

TEST(WorkloadMatrixTest, StartsFullyUnobserved) {
  WorkloadMatrix w(4, 6);
  EXPECT_EQ(w.num_queries(), 4);
  EXPECT_EQ(w.num_hints(), 6);
  EXPECT_EQ(w.NumUnobserved(), 24);
  EXPECT_EQ(w.NumComplete(), 0);
  EXPECT_EQ(w.NumCensored(), 0);
  EXPECT_DOUBLE_EQ(w.FillFraction(), 0.0);
  EXPECT_EQ(w.BestObservedHint(0), -1);
  EXPECT_FALSE(std::isfinite(w.RowMinObserved(0)));
}

TEST(WorkloadMatrixTest, ObserveRecordsCompleteCell) {
  WorkloadMatrix w(2, 3);
  w.Observe(0, 1, 5.5);
  EXPECT_EQ(w.state(0, 1), CellState::kComplete);
  EXPECT_DOUBLE_EQ(w.observed(0, 1), 5.5);
  EXPECT_DOUBLE_EQ(w.values()(0, 1), 5.5);
  EXPECT_DOUBLE_EQ(w.timeout(0, 1), 0.0);
  EXPECT_EQ(w.NumComplete(), 1);
}

TEST(WorkloadMatrixTest, ObserveCensoredRecordsLowerBound) {
  WorkloadMatrix w(2, 3);
  w.ObserveCensored(1, 2, 10.0);
  EXPECT_EQ(w.state(1, 2), CellState::kCensored);
  EXPECT_DOUBLE_EQ(w.observed(1, 2), 10.0);
  EXPECT_FALSE(w.IsComplete(1, 2));  // not ground truth for the model
  EXPECT_DOUBLE_EQ(w.timeout(1, 2), 10.0);
  EXPECT_DOUBLE_EQ(w.values()(1, 2), 10.0);
}

TEST(WorkloadMatrixTest, CompleteSupersedesCensored) {
  WorkloadMatrix w(1, 2);
  w.ObserveCensored(0, 0, 10.0);
  w.Observe(0, 0, 3.0);
  EXPECT_EQ(w.state(0, 0), CellState::kComplete);
  EXPECT_DOUBLE_EQ(w.observed(0, 0), 3.0);
  // But censored never downgrades complete.
  w.ObserveCensored(0, 0, 50.0);
  EXPECT_EQ(w.state(0, 0), CellState::kComplete);
  EXPECT_DOUBLE_EQ(w.observed(0, 0), 3.0);
}

TEST(WorkloadMatrixTest, RowMinIgnoresCensoredCells) {
  WorkloadMatrix w(1, 3);
  w.Observe(0, 0, 8.0);
  w.ObserveCensored(0, 1, 2.0);  // lower bound 2, but not a usable plan
  EXPECT_DOUBLE_EQ(w.RowMinObserved(0), 8.0);
  EXPECT_EQ(w.BestObservedHint(0), 0);
  w.Observe(0, 2, 4.0);
  EXPECT_DOUBLE_EQ(w.RowMinObserved(0), 4.0);
  EXPECT_EQ(w.BestObservedHint(0), 2);
}

TEST(WorkloadMatrixTest, CurrentWorkloadLatencySumsRowMinima) {
  WorkloadMatrix w(3, 2);
  w.Observe(0, 0, 5.0);
  w.Observe(0, 1, 3.0);
  w.Observe(1, 0, 7.0);
  // Row 2 unobserved: contributes nothing yet.
  EXPECT_DOUBLE_EQ(w.CurrentWorkloadLatency(), 10.0);
}

TEST(WorkloadMatrixTest, ClearForgetsObservation) {
  WorkloadMatrix w(1, 2);
  w.Observe(0, 0, 5.0);
  w.Clear(0, 0);
  EXPECT_EQ(w.state(0, 0), CellState::kUnobserved);
  EXPECT_EQ(w.NumUnobserved(), 2);
}

TEST(WorkloadMatrixTest, UnobservedCellsEnumeration) {
  WorkloadMatrix w(2, 2);
  w.Observe(0, 0, 1.0);
  w.ObserveCensored(1, 1, 2.0);
  auto cells = w.UnobservedCells();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0], (std::pair<int, int>{0, 1}));
  EXPECT_EQ(cells[1], (std::pair<int, int>{1, 0}));
}

TEST(WorkloadMatrixTest, AppendQueriesAddsUnobservedRows) {
  WorkloadMatrix w(2, 3);
  w.Observe(0, 0, 1.0);
  const int first = w.AppendQueries(2);
  EXPECT_EQ(first, 2);
  EXPECT_EQ(w.num_queries(), 4);
  EXPECT_EQ(w.state(3, 2), CellState::kUnobserved);
  EXPECT_DOUBLE_EQ(w.observed(0, 0), 1.0);  // old data intact
}

TEST(OnlineOptimizerTest, ServesDefaultWithoutVerifiedPlan) {
  WorkloadMatrix w(2, 4);
  w.Observe(0, 0, 10.0);
  OnlineOptimizer online(&w);
  EXPECT_EQ(online.ChooseHint(0), 0);
  EXPECT_FALSE(online.HasVerifiedPlan(0));
  // Row 1 has nothing observed at all: default.
  EXPECT_EQ(online.ChooseHint(1), 0);
}

TEST(OnlineOptimizerTest, ServesVerifiedFasterPlan) {
  WorkloadMatrix w(1, 4);
  w.Observe(0, 0, 10.0);
  w.Observe(0, 2, 4.0);
  OnlineOptimizer online(&w);
  EXPECT_EQ(online.ChooseHint(0), 2);
  EXPECT_TRUE(online.HasVerifiedPlan(0));
}

TEST(OnlineOptimizerTest, NeverServesSlowerOrCensoredPlan) {
  WorkloadMatrix w(1, 4);
  w.Observe(0, 0, 10.0);
  w.Observe(0, 1, 12.0);          // slower: must not be served
  w.ObserveCensored(0, 3, 2.0);   // censored: not verified
  OnlineOptimizer online(&w);
  EXPECT_EQ(online.ChooseHint(0), 0);
}

TEST(OnlineOptimizerTest, NoRegressionProperty) {
  // Whatever mixture of observations exists, the served plan's observed
  // latency never exceeds the observed default latency.
  WorkloadMatrix w(5, 6);
  Rng rng(3);
  for (int i = 0; i < 5; ++i) {
    w.Observe(i, 0, rng.Uniform(1, 20));
    for (int j = 1; j < 6; ++j) {
      if (rng.Bernoulli(0.5)) {
        if (rng.Bernoulli(0.3)) {
          w.ObserveCensored(i, j, rng.Uniform(1, 20));
        } else {
          w.Observe(i, j, rng.Uniform(1, 40));
        }
      }
    }
  }
  OnlineOptimizer online(&w);
  for (int i = 0; i < 5; ++i) {
    const int h = online.ChooseHint(i);
    EXPECT_TRUE(w.IsComplete(i, h));
    EXPECT_LE(w.observed(i, h), w.observed(i, 0));
  }
}

TEST(OnlineOptimizerTest, RunnerUpIsInfiniteWithoutACompleteDefault) {
  WorkloadMatrix w(2, 4);
  w.Observe(0, 1, 2.0);  // complete hints, but no complete default
  w.Observe(0, 2, 3.0);
  w.ObserveCensored(1, 0, 5.0);  // a censored default is not complete
  w.Observe(1, 3, 1.0);
  OnlineOptimizer online(&w);
  for (int q = 0; q < 2; ++q) {
    double runner_up = 0.0;
    EXPECT_EQ(online.ChooseHint(q, &runner_up), 0);
    EXPECT_TRUE(std::isinf(runner_up) && runner_up > 0);
  }
}

TEST(OnlineOptimizerTest, RunnerUpIsInfiniteWhenOnlyTheDefaultIsComplete) {
  WorkloadMatrix w(1, 4);
  w.Observe(0, 0, 4.0);
  w.ObserveCensored(0, 2, 1.0);
  OnlineOptimizer online(&w);
  double runner_up = 0.0;
  EXPECT_EQ(online.ChooseHint(0, &runner_up), 0);
  EXPECT_TRUE(std::isinf(runner_up) && runner_up > 0);
}

TEST(OnlineOptimizerTest, RunnerUpSkipsCensoredCells) {
  WorkloadMatrix w(1, 5);
  w.Observe(0, 0, 10.0);
  w.Observe(0, 1, 3.0);
  w.ObserveCensored(0, 2, 4.0);  // below the runner-up, but censored
  w.Observe(0, 3, 6.0);
  OnlineOptimizer online(&w);
  double runner_up = 0.0;
  EXPECT_EQ(online.ChooseHint(0, &runner_up), 1);
  EXPECT_EQ(runner_up, 6.0);
}

TEST(OnlineOptimizerTest, RunnerUpOfATieIsTheTiedLatency) {
  // Equal latencies at two indices: the lower index is the best, and the
  // other one is the runner-up at the same latency.
  WorkloadMatrix w(1, 5);
  w.Observe(0, 0, 10.0);
  w.Observe(0, 3, 2.0);
  w.Observe(0, 1, 2.0);
  w.Observe(0, 4, 7.0);
  OnlineOptimizer online(&w);
  double runner_up = 0.0;
  EXPECT_EQ(online.ChooseHint(0, &runner_up), 1);
  EXPECT_EQ(runner_up, 2.0);
}

TEST(OnlineOptimizerTest, RunnerUpMatchesABruteForceScanOnRandomRows) {
  // Latencies drawn from a few values so ties are common.
  constexpr int kRows = 500;
  constexpr int kHints = 7;
  WorkloadMatrix w(kRows, kHints);
  Rng rng(17);
  for (int i = 0; i < kRows; ++i) {
    for (int j = 0; j < kHints; ++j) {
      const double latency = 1.0 + static_cast<double>(rng.NextUint64Below(4));
      const uint64_t kind = rng.NextUint64Below(4);
      if (kind == 0) {
        w.ObserveCensored(i, j, latency);
      } else if (kind != 1) {
        w.Observe(i, j, latency);
      }
    }
  }
  OnlineOptimizer online(&w);
  for (int i = 0; i < kRows; ++i) {
    double runner_up = 0.0;
    const int best = online.ChooseHint(i, &runner_up);
    EXPECT_EQ(best, online.ChooseHint(i)) << "row " << i;
    // Reference: the lowest-index argmin over complete cells, served only
    // against a complete default; the runner-up is the minimum of the rest.
    int want_best = 0;
    double want_runner_up = std::numeric_limits<double>::infinity();
    if (w.IsComplete(i, 0)) {
      for (int j = 1; j < kHints; ++j) {
        if (w.IsComplete(i, j) && w.observed(i, j) < w.observed(i, want_best)) {
          want_best = j;
        }
      }
      for (int j = 0; j < kHints; ++j) {
        if (j != want_best && w.IsComplete(i, j)) {
          want_runner_up = std::min(want_runner_up, w.observed(i, j));
        }
      }
    }
    EXPECT_EQ(best, want_best) << "row " << i;
    EXPECT_EQ(runner_up, want_runner_up) << "row " << i;
  }
}

TEST(WorkloadMatrixTest, CensoringBoundsOnlyTighten) {
  WorkloadMatrix w(1, 2);
  w.ObserveCensored(0, 1, 2.0);
  // A shorter censored re-run proves less than what is already known: the
  // 2.0s bound must survive (a revisit-censored probe with an optimistic
  // model prediction can legally be cut off below the recorded bound).
  w.ObserveCensored(0, 1, 0.6);
  EXPECT_EQ(w.state(0, 1), CellState::kCensored);
  EXPECT_DOUBLE_EQ(w.timeout(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(w.values()(0, 1), 2.0);
  // A longer censored run strengthens the bound.
  w.ObserveCensored(0, 1, 3.5);
  EXPECT_DOUBLE_EQ(w.timeout(0, 1), 3.5);
  // And a complete observation still supersedes censoring entirely.
  w.Observe(0, 1, 3.9);
  EXPECT_EQ(w.state(0, 1), CellState::kComplete);
  EXPECT_DOUBLE_EQ(w.values()(0, 1), 3.9);
  EXPECT_DOUBLE_EQ(w.timeout(0, 1), 0.0);
}

}  // namespace
}  // namespace limeqo::core
