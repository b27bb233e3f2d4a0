#include <cmath>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "core/als.h"
#include "core/explorer.h"
#include "core/online.h"
#include "core/policy.h"
#include "core/simdb_backend.h"
#include "nn/tcnn_predictor.h"
#include "scenarios/simdb_bridge.h"
#include "simdb/database.h"

namespace limeqo::core {
namespace {

simdb::SimulatedDatabase MakeDb(int n = 40, uint64_t seed = 11) {
  simdb::DatabaseOptions opt;
  opt.num_tables = 15;
  opt.latency.target_default_total = 200.0;
  opt.latency.target_optimal_total = 80.0;
  opt.seed = seed;
  StatusOr<simdb::SimulatedDatabase> db =
      simdb::SimulatedDatabase::Create(n, opt);
  LIMEQO_CHECK(db.ok());
  return std::move(db).value();
}

std::unique_ptr<ExplorationPolicy> MakeLimeQo() {
  return std::make_unique<ModelGuidedPolicy>(
      std::make_unique<CompleterPredictor>(std::make_unique<AlsCompleter>()),
      "LimeQO");
}

WorkloadMatrix MatrixWithDefaults(const simdb::SimulatedDatabase& db) {
  WorkloadMatrix w(db.num_queries(), db.num_hints());
  for (int i = 0; i < db.num_queries(); ++i) {
    w.Observe(i, 0, db.TrueLatency(i, 0));
  }
  return w;
}

TEST(RandomPolicyTest, SelectsDistinctUnobservedCells) {
  simdb::SimulatedDatabase db = MakeDb();
  WorkloadMatrix w = MatrixWithDefaults(db);
  RandomPolicy policy;
  Rng rng(1);
  StatusOr<std::vector<Candidate>> batch = policy.SelectBatch(w, 10, &rng);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->size(), 10u);
  std::set<std::pair<int, int>> seen;
  for (const Candidate& c : *batch) {
    EXPECT_TRUE(w.IsUnobserved(c.query, c.hint));
    seen.insert({c.query, c.hint});
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RandomPolicyTest, EmptyWhenFullyObserved) {
  WorkloadMatrix w(2, 2);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) w.Observe(i, j, 1.0);
  }
  RandomPolicy policy;
  Rng rng(2);
  StatusOr<std::vector<Candidate>> batch = policy.SelectBatch(w, 5, &rng);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->empty());
}

TEST(GreedyPolicyTest, PrefersLongestRunningQueries) {
  WorkloadMatrix w(3, 4);
  w.Observe(0, 0, 1.0);
  w.Observe(1, 0, 100.0);  // longest
  w.Observe(2, 0, 10.0);
  GreedyPolicy policy;
  Rng rng(3);
  StatusOr<std::vector<Candidate>> batch = policy.SelectBatch(w, 1, &rng);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 1u);
  EXPECT_EQ((*batch)[0].query, 1);
  EXPECT_TRUE(w.IsUnobserved(1, (*batch)[0].hint));
}

TEST(GreedyPolicyTest, SkipsFullyExploredRows) {
  WorkloadMatrix w(2, 2);
  w.Observe(0, 0, 100.0);
  w.Observe(0, 1, 90.0);  // row 0 fully explored
  w.Observe(1, 0, 1.0);
  GreedyPolicy policy;
  Rng rng(4);
  StatusOr<std::vector<Candidate>> batch = policy.SelectBatch(w, 2, &rng);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 1u);
  EXPECT_EQ((*batch)[0].query, 1);
}

TEST(ModelGuidedPolicyTest, SelectsOnlyUnobservedWithPredictions) {
  simdb::SimulatedDatabase db = MakeDb();
  WorkloadMatrix w = MatrixWithDefaults(db);
  auto policy = MakeLimeQo();
  Rng rng(5);
  StatusOr<std::vector<Candidate>> batch = policy->SelectBatch(w, 8, &rng);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->size(), 8u);
  for (const Candidate& c : *batch) {
    EXPECT_TRUE(w.IsUnobserved(c.query, c.hint));
  }
}

TEST(ModelGuidedPolicyTest, FailsWithoutObservations) {
  WorkloadMatrix w(3, 3);
  auto policy = MakeLimeQo();
  Rng rng(6);
  EXPECT_FALSE(policy->SelectBatch(w, 2, &rng).ok());
}

// ---------------------------------------------------------------------------
// Revisit-censored variants: with the flag, Greedy and ModelGuided may
// re-select censored cells that are still worth a probe; without it they
// must never touch a censored cell (Algorithm 1's unobserved-only rule).
// ---------------------------------------------------------------------------

/// A predictor returning a canned matrix, for policy-level unit tests.
class FixedPredictor : public Predictor {
 public:
  explicit FixedPredictor(linalg::Matrix m) : m_(std::move(m)) {}
  StatusOr<linalg::Matrix> Predict(const WorkloadMatrix&) override {
    return m_;
  }
  std::string name() const override { return "Fixed"; }

 private:
  linalg::Matrix m_;
};

TEST(ModelGuidedPolicyTest, RevisitCensoredReselectsPromisingCensoredCells) {
  // Row 0: default 10s observed, hint 1 censored at a 2s bound (a tight
  // model-driven timeout cut it off), hint 2 complete. No unobserved cell
  // exists, so the plain policy has nothing to explore; the revisit
  // variant re-selects the censored cell because its prediction (2.5s,
  // honoring the bound) still promises a 4x improvement.
  WorkloadMatrix w(1, 3);
  w.Observe(0, 0, 10.0);
  w.ObserveCensored(0, 1, 2.0);
  w.Observe(0, 2, 12.0);
  linalg::Matrix pred(1, 3);
  pred(0, 0) = 10.0;
  pred(0, 1) = 2.5;
  pred(0, 2) = 12.0;
  Rng rng(3);

  ModelGuidedPolicy plain(std::make_unique<FixedPredictor>(pred), "plain");
  StatusOr<std::vector<Candidate>> none = plain.SelectBatch(w, 4, &rng);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());

  ModelGuidedPolicy revisit(std::make_unique<FixedPredictor>(pred),
                            "revisit", ModelGuidedPolicy::TieBreak::kRandom,
                            /*min_ratio=*/0.05, /*revisit_censored=*/true);
  StatusOr<std::vector<Candidate>> batch = revisit.SelectBatch(w, 4, &rng);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 1u);
  EXPECT_EQ((*batch)[0].query, 0);
  EXPECT_EQ((*batch)[0].hint, 1);
}

TEST(ModelGuidedPolicyTest, RevisitIgnoresCensoredCellsAboveCurrentBest) {
  // The censored bound (9s) exceeds nothing, but the clamped prediction
  // (9s) no longer undercuts the current best (5s): a re-run could not
  // improve the workload, so even the revisit variant must skip it.
  WorkloadMatrix w(1, 3);
  w.Observe(0, 0, 10.0);
  w.Observe(0, 1, 5.0);
  w.ObserveCensored(0, 2, 9.0);
  linalg::Matrix pred(1, 3);
  pred(0, 0) = 10.0;
  pred(0, 1) = 5.0;
  pred(0, 2) = 9.0;  // >= the bound, as the completer clamp guarantees
  Rng rng(4);
  ModelGuidedPolicy revisit(std::make_unique<FixedPredictor>(pred),
                            "revisit", ModelGuidedPolicy::TieBreak::kRandom,
                            0.05, true);
  StatusOr<std::vector<Candidate>> batch = revisit.SelectBatch(w, 4, &rng);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->empty());
}

TEST(GreedyPolicyTest, RevisitCensoredJoinsThePoolWhenBoundIsBelowRowBest) {
  // Row 0 is fully probed except for a censored cell whose 2s bound sits
  // far below the 10s row best: re-running it with today's timeout (the
  // row best) either completes it or raises the bound, so the revisit
  // variant may pick it; the plain variant must skip the row entirely.
  WorkloadMatrix w(1, 3);
  w.Observe(0, 0, 10.0);
  w.ObserveCensored(0, 1, 2.0);
  w.Observe(0, 2, 11.0);
  Rng rng(5);
  GreedyPolicy plain;
  StatusOr<std::vector<Candidate>> none = plain.SelectBatch(w, 4, &rng);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());

  GreedyPolicy revisit(/*revisit_censored=*/true);
  StatusOr<std::vector<Candidate>> batch = revisit.SelectBatch(w, 4, &rng);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 1u);
  EXPECT_EQ((*batch)[0].query, 0);
  EXPECT_EQ((*batch)[0].hint, 1);
}

TEST(QoAdvisorPolicyTest, PicksLowestCostCells) {
  simdb::SimulatedDatabase db = MakeDb();
  SimDbBackend backend(&db);
  WorkloadMatrix w = MatrixWithDefaults(db);
  QoAdvisorPolicy policy(&backend);
  Rng rng(7);
  StatusOr<std::vector<Candidate>> batch = policy.SelectBatch(w, 5, &rng);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 5u);
  // Returned cells must be the globally cheapest unobserved cells.
  double worst_selected = 0.0;
  std::set<std::pair<int, int>> selected;
  for (const Candidate& c : *batch) {
    worst_selected =
        std::max(worst_selected, backend.OptimizerCost(c.query, c.hint));
    selected.insert({c.query, c.hint});
  }
  for (const auto& [q, h] : w.UnobservedCells()) {
    if (!selected.count({q, h})) {
      EXPECT_GE(backend.OptimizerCost(q, h), worst_selected * (1 - 1e-12));
      break;  // checking one non-selected cell suffices with sorted order
    }
  }
}

TEST(ExplorerTest, ObservesDefaultsAtZeroCost) {
  simdb::SimulatedDatabase db = MakeDb();
  SimDbBackend backend(&db);
  RandomPolicy policy;
  ExplorerOptions opt;
  OfflineExplorer explorer(&backend, &policy, opt);
  EXPECT_DOUBLE_EQ(explorer.offline_seconds(), 0.0);
  for (int i = 0; i < db.num_queries(); ++i) {
    EXPECT_TRUE(explorer.matrix().IsComplete(i, 0));
  }
  EXPECT_NEAR(explorer.WorkloadLatency(), db.DefaultTotal(), 1e-9);
}

TEST(ExplorerTest, WorkloadLatencyNeverIncreases) {
  simdb::SimulatedDatabase db = MakeDb();
  SimDbBackend backend(&db);
  auto policy = MakeLimeQo();
  ExplorerOptions opt;
  opt.batch_size = 5;
  OfflineExplorer explorer(&backend, policy.get(), opt);
  std::vector<TrajectoryPoint> traj = explorer.Explore(100.0);
  ASSERT_GE(traj.size(), 2u);
  for (size_t i = 1; i < traj.size(); ++i) {
    EXPECT_LE(traj[i].workload_latency, traj[i - 1].workload_latency + 1e-9);
    EXPECT_GE(traj[i].offline_seconds, traj[i - 1].offline_seconds);
  }
}

TEST(ExplorerTest, TimeoutsProduceCensoredCells) {
  simdb::SimulatedDatabase db = MakeDb();
  SimDbBackend backend(&db);
  RandomPolicy policy;  // random exploration hits many bad plans
  ExplorerOptions opt;
  opt.batch_size = 10;
  OfflineExplorer explorer(&backend, &policy, opt);
  explorer.Explore(150.0);
  EXPECT_GT(explorer.matrix().NumCensored(), 0);
}

TEST(ExplorerTest, NoTimeoutModeNeverCensors) {
  simdb::SimulatedDatabase db = MakeDb();
  SimDbBackend backend(&db);
  RandomPolicy policy;
  ExplorerOptions opt;
  opt.use_timeouts = false;
  OfflineExplorer explorer(&backend, &policy, opt);
  explorer.Explore(100.0);
  EXPECT_EQ(explorer.matrix().NumCensored(), 0);
}

TEST(ExplorerTest, BudgetIsRespectedUpToOneExecution) {
  simdb::SimulatedDatabase db = MakeDb();
  SimDbBackend backend(&db);
  RandomPolicy policy;
  ExplorerOptions opt;
  OfflineExplorer explorer(&backend, &policy, opt);
  explorer.Explore(50.0);
  // The clock may overshoot by at most the last execution, which is itself
  // bounded by the longest plan latency in the workload.
  double max_latency = 0.0;
  for (int i = 0; i < db.num_queries(); ++i) {
    for (int j = 0; j < db.num_hints(); ++j) {
      max_latency = std::max(max_latency, db.TrueLatency(i, j));
    }
  }
  EXPECT_LE(explorer.offline_seconds(), 50.0 + max_latency);
}

TEST(ExplorerTest, ExhaustsMatrixAndStops) {
  simdb::SimulatedDatabase db = MakeDb(5);
  SimDbBackend backend(&db);
  RandomPolicy policy;
  ExplorerOptions opt;
  opt.batch_size = 50;
  opt.use_timeouts = false;
  OfflineExplorer explorer(&backend, &policy, opt);
  explorer.Explore(1e9);
  EXPECT_EQ(explorer.matrix().NumUnobserved(), 0);
  // A further call terminates immediately.
  std::vector<TrajectoryPoint> more = explorer.Explore(10.0);
  EXPECT_EQ(more.size(), 1u);
}

TEST(ExplorerTest, BestHintsNeverRegress) {
  simdb::SimulatedDatabase db = MakeDb();
  SimDbBackend backend(&db);
  auto policy = MakeLimeQo();
  ExplorerOptions opt;
  OfflineExplorer explorer(&backend, policy.get(), opt);
  explorer.Explore(120.0);
  std::vector<int> hints = explorer.BestHints();
  ASSERT_EQ(static_cast<int>(hints.size()), db.num_queries());
  for (int i = 0; i < db.num_queries(); ++i) {
    // The no-regressions guarantee: the selected hint's true latency never
    // exceeds the default plan's true latency (measurements are exact in
    // the simulator).
    EXPECT_LE(db.TrueLatency(i, hints[i]), db.TrueLatency(i, 0) + 1e-9);
  }
}

TEST(ExplorerTest, LimeQoImprovesOverDefault) {
  simdb::SimulatedDatabase db = MakeDb(60, 13);
  SimDbBackend backend(&db);
  auto policy = MakeLimeQo();
  ExplorerOptions opt;
  OfflineExplorer explorer(&backend, policy.get(), opt);
  explorer.Explore(db.DefaultTotal());
  EXPECT_LT(explorer.WorkloadLatency(), db.DefaultTotal() * 0.85);
  EXPECT_GE(explorer.WorkloadLatency(), db.OptimalTotal() - 1e-9);
}

TEST(ExplorerTest, AddNewQueriesObservesTheirDefaults) {
  simdb::SimulatedDatabase db = MakeDb(30);
  SimDbBackend backend(&db);
  RandomPolicy policy;
  ExplorerOptions opt;
  opt.initial_queries = 20;
  OfflineExplorer explorer(&backend, &policy, opt);
  EXPECT_EQ(explorer.matrix().num_queries(), 20);
  explorer.Explore(20.0);
  explorer.AddNewQueries(10);
  EXPECT_EQ(explorer.matrix().num_queries(), 30);
  for (int i = 20; i < 30; ++i) {
    EXPECT_TRUE(explorer.matrix().IsComplete(i, 0));
  }
  // Exploration continues over the enlarged matrix.
  explorer.Explore(20.0);
  EXPECT_GT(explorer.matrix().NumComplete(), 30);
}

TEST(ExplorerTest, ResetAfterDataShiftKeepsBestHintsObserved) {
  simdb::SimulatedDatabase db = MakeDb(25);
  SimDbBackend backend(&db);
  auto policy = MakeLimeQo();
  ExplorerOptions opt;
  OfflineExplorer explorer(&backend, policy.get(), opt);
  explorer.Explore(60.0);
  std::vector<int> best_before = explorer.BestHints();

  simdb::DriftOptions drift;
  drift.severity = 0.4;
  drift.new_default_total = 260.0;
  drift.new_optimal_total = 110.0;
  db.ApplyDrift(drift);
  explorer.ResetAfterDataShift();

  for (int i = 0; i < 25; ++i) {
    // The complete observations in row i are exactly the plan-equivalence
    // class of the previous best hint, re-measured on the new data (hints
    // producing the identical plan share one execution).
    const std::vector<int> cls = backend.EquivalentHints(i, best_before[i]);
    const std::set<int> expected(cls.begin(), cls.end());
    for (int j = 0; j < explorer.matrix().num_hints(); ++j) {
      EXPECT_EQ(explorer.matrix().IsComplete(i, j), expected.contains(j))
          << "query " << i << " hint " << j;
    }
    EXPECT_TRUE(explorer.matrix().IsComplete(i, best_before[i]));
    EXPECT_DOUBLE_EQ(explorer.matrix().observed(i, best_before[i]),
                     db.TrueLatency(i, best_before[i]));
  }
}

/// The no-leak contract on a data shift: the model that explores is the
/// policy's, so ResetAfterDataShift must reset it. Afterwards the policy's
/// TCNN predicts the post-shift matrix exactly as a fresh TCNN does —
/// neither its weights nor the plan features it flattened before the drift
/// survive.
TEST(ExplorerTest, DataShiftResetsThePolicysModel) {
  scenarios::ScenarioSpec spec;
  spec.num_queries = 24;
  spec.num_hints = 8;
  scenarios::SimDbScenarioBackend backend(spec);
  nn::TcnnOptions tcnn;
  tcnn.max_epochs = 5;
  auto owned = std::make_unique<nn::TcnnPredictor>(&backend, tcnn, "TCNN");
  nn::TcnnPredictor* model = owned.get();
  ModelGuidedPolicy policy(std::move(owned), "TCNN");
  ExplorerOptions opt;
  opt.seed = 11;
  OfflineExplorer explorer(&backend, &policy, opt);
  explorer.Explore(0.3 * backend.DefaultWorkloadLatency());
  ASSERT_NE(model->model(), nullptr);  // the policy trained pre-shift

  backend.ApplyDrift(1.0);
  explorer.ResetAfterDataShift();

  nn::TcnnPredictor fresh(&backend, tcnn, "TCNN");
  StatusOr<linalg::Matrix> expected = fresh.Predict(explorer.matrix());
  StatusOr<linalg::Matrix> actual = model->Predict(explorer.matrix());
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(actual.ok());
  ASSERT_EQ(actual->size(), expected->size());
  int differing = 0;
  for (size_t c = 0; c < actual->size(); ++c) {
    if (actual->data()[c] != expected->data()[c]) ++differing;
  }
  EXPECT_EQ(differing, 0) << "of " << actual->size() << " cells";
}

TEST(ExplorerTest, OverheadIsTrackedForModelPolicies) {
  simdb::SimulatedDatabase db = MakeDb();
  SimDbBackend backend(&db);
  auto policy = MakeLimeQo();
  ExplorerOptions opt;
  OfflineExplorer explorer(&backend, policy.get(), opt);
  explorer.Explore(50.0);
  EXPECT_GT(explorer.overhead_seconds(), 0.0);
}

/// Policy comparison sweep: at equal budget, LimeQO ends at or below the
/// latency of naive policies on average across seeds.
class PolicyComparison : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PolicyComparison, LimeQoBeatsRandomOnAverage) {
  simdb::SimulatedDatabase db = MakeDb(80, GetParam());
  const double budget = db.DefaultTotal() * 0.5;

  SimDbBackend backend_a(&db);
  auto limeqo = MakeLimeQo();
  ExplorerOptions opt;
  OfflineExplorer explorer_a(&backend_a, limeqo.get(), opt);
  explorer_a.Explore(budget);

  SimDbBackend backend_b(&db);
  RandomPolicy random;
  OfflineExplorer explorer_b(&backend_b, &random, opt);
  explorer_b.Explore(budget);

  // Allow slack: on individual seeds Random can get lucky, but LimeQO must
  // never be drastically worse.
  EXPECT_LT(explorer_a.WorkloadLatency(),
            explorer_b.WorkloadLatency() * 1.10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyComparison,
                         ::testing::Values(21, 22, 23, 24));

TEST(ModelGuidedPolicyTest, EqualRatiosBreakTiesTowardCheapProbes) {
  // Four rows whose predicted improvement ratio is identical (predicted
  // best = half the observed default everywhere) but whose probe costs
  // differ by orders of magnitude. The batch must start with the cheap
  // rows: under equal expected benefit, expensive probes are pure waste.
  WorkloadMatrix w(4, 3);
  const double defaults[] = {100.0, 0.1, 10.0, 1.0};
  linalg::Matrix pred(4, 3);
  for (int i = 0; i < 4; ++i) {
    w.Observe(i, 0, defaults[i]);
    for (int j = 0; j < 3; ++j) pred(i, j) = 0.5 * defaults[i];
  }
  ModelGuidedPolicy policy(std::make_unique<FixedPredictor>(pred), "test",
                           ModelGuidedPolicy::TieBreak::kCheapestProbe);
  Rng rng(4);
  StatusOr<std::vector<Candidate>> batch = policy.SelectBatch(w, 2, &rng);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 2u);
  EXPECT_EQ((*batch)[0].query, 1);  // cheapest first
  EXPECT_EQ((*batch)[1].query, 3);
}

TEST(ModelGuidedPolicyTest, HigherRatioBeatsCheaperProbe) {
  WorkloadMatrix w(2, 2);
  w.Observe(0, 0, 10.0);
  w.Observe(1, 0, 1.0);
  linalg::Matrix pred(2, 2);
  pred(0, 0) = 10.0;
  pred(0, 1) = 2.0;  // ratio (10 - 2) / 2 = 4
  pred(1, 0) = 1.0;
  pred(1, 1) = 0.5;  // ratio (1 - 0.5) / 0.5 = 1, but cheaper
  ModelGuidedPolicy policy(std::make_unique<FixedPredictor>(pred), "test");
  Rng rng(5);
  StatusOr<std::vector<Candidate>> batch = policy.SelectBatch(w, 1, &rng);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 1u);
  EXPECT_EQ((*batch)[0].query, 0);  // ratio dominates the tie-break
}

TEST(ModelGuidedPolicyTest, VanishingRatiosFallBackToRandom) {
  // Predicted gains below min_ratio are model noise, not candidates: the
  // policy must fall back to random exploration instead of probing them.
  WorkloadMatrix w(5, 4);
  linalg::Matrix pred(5, 4);
  for (int i = 0; i < 5; ++i) {
    w.Observe(i, 0, 10.0);
    for (int j = 0; j < 4; ++j) pred(i, j) = 9.9;  // ratio ~ 0.01 < 0.05
  }
  ModelGuidedPolicy policy(std::make_unique<FixedPredictor>(pred), "test");
  Rng rng(8);
  StatusOr<std::vector<Candidate>> batch = policy.SelectBatch(w, 5, &rng);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 5u);
  for (const Candidate& c : *batch) {
    // Random-fallback candidates carry no prediction.
    EXPECT_LT(c.predicted_latency, 0.0);
  }
}

TEST(ModelGuidedPolicyTest, MinRatioZeroActsOnAnyPositiveGain) {
  WorkloadMatrix w(1, 2);
  w.Observe(0, 0, 10.0);
  linalg::Matrix pred(1, 2);
  pred(0, 0) = 10.0;
  pred(0, 1) = 9.9;
  ModelGuidedPolicy policy(std::make_unique<FixedPredictor>(pred), "test",
                           ModelGuidedPolicy::TieBreak::kRandom,
                           /*min_ratio=*/0.0);
  Rng rng(9);
  StatusOr<std::vector<Candidate>> batch = policy.SelectBatch(w, 1, &rng);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 1u);
  EXPECT_EQ((*batch)[0].hint, 1);
  EXPECT_DOUBLE_EQ((*batch)[0].predicted_latency, 9.9);
}

TEST(ModelGuidedPolicyTest, CandidatesCarryPredictionForTimeouts) {
  WorkloadMatrix w(1, 2);
  w.Observe(0, 0, 8.0);
  linalg::Matrix pred(1, 2);
  pred(0, 0) = 8.0;
  pred(0, 1) = 2.0;
  ModelGuidedPolicy policy(std::make_unique<FixedPredictor>(pred), "test");
  Rng rng(6);
  StatusOr<std::vector<Candidate>> batch = policy.SelectBatch(w, 1, &rng);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 1u);
  EXPECT_EQ((*batch)[0].hint, 1);
  EXPECT_DOUBLE_EQ((*batch)[0].predicted_latency, 2.0);
}

}  // namespace
}  // namespace limeqo::core
