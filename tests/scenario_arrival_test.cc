// Workload-shift (AddNewQueries, Fig. 9) under the scenario grid: a
// mid-budget arrival must never corrupt existing observations, new rows
// must join with exactly their default plan class observed, and
// post-arrival exploration must still satisfy offline monotonicity and
// budget accounting. Checked directly against OfflineExplorer, then
// property-tested through the full SimulationDriver on random arrival
// schedules.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/explorer.h"
#include "core/policy.h"
#include "proptest.h"
#include "scenarios/scenario.h"
#include "scenarios/simulation.h"
#include "scenarios/synthetic_backend.h"

namespace limeqo::scenarios {
namespace {

// ---------------------------------------------------------------------------
// Direct OfflineExplorer::AddNewQueries contract.
// ---------------------------------------------------------------------------

TEST(AddNewQueriesTest, PreservesObservationsAndStartsRowsFresh) {
  ScenarioSpec spec;
  spec.num_queries = 30;
  spec.equivalence_class_size = 3;  // default class spans hints {0, 1, 2}
  spec.seed = 21;
  SyntheticBackend backend(spec);
  core::RandomPolicy policy;
  core::ExplorerOptions options;
  options.initial_queries = 20;
  options.seed = 5;
  core::OfflineExplorer explorer(&backend, &policy, options);
  explorer.Explore(0.3 * backend.DefaultWorkloadLatency());

  const core::WorkloadMatrix& m = explorer.matrix();
  ASSERT_EQ(m.num_queries(), 20);
  const linalg::Matrix values = m.values();
  std::vector<core::CellState> states;
  for (int q = 0; q < 20; ++q) {
    for (int j = 0; j < spec.num_hints; ++j) states.push_back(m.state(q, j));
  }

  explorer.AddNewQueries(10);
  ASSERT_EQ(m.num_queries(), 30);
  for (int q = 0; q < 20; ++q) {
    for (int j = 0; j < spec.num_hints; ++j) {
      EXPECT_EQ(m.values()(q, j), values(q, j));
      EXPECT_EQ(m.state(q, j),
                states[static_cast<size_t>(q) * spec.num_hints + j]);
    }
  }
  for (int q = 20; q < 30; ++q) {
    for (int j = 0; j < spec.num_hints; ++j) {
      const bool default_class = j < spec.equivalence_class_size;
      EXPECT_EQ(m.state(q, j), default_class
                                   ? core::CellState::kComplete
                                   : core::CellState::kUnobserved)
          << "row " << q << " hint " << j;
    }
  }
}

TEST(AddNewQueriesTest, PostArrivalExplorationStaysMonotone) {
  ScenarioSpec spec;
  spec.num_queries = 40;
  spec.seed = 22;
  SyntheticBackend backend(spec);
  core::GreedyPolicy policy;
  core::ExplorerOptions options;
  options.initial_queries = 28;
  options.seed = 6;
  core::OfflineExplorer explorer(&backend, &policy, options);
  const double budget = 0.5 * backend.DefaultWorkloadLatency();
  explorer.Explore(0.5 * budget);
  explorer.AddNewQueries(12);
  const std::vector<core::TrajectoryPoint> after =
      explorer.Explore(0.5 * budget);
  for (size_t t = 1; t < after.size(); ++t) {
    EXPECT_LE(after[t].workload_latency,
              after[t - 1].workload_latency + 1e-9)
        << "post-arrival step " << t;
  }
}

// ---------------------------------------------------------------------------
// Full-driver property: random arrival schedules over random worlds, every
// policy — all invariants (including the arrival-integrity checks the
// driver performs at each event) must hold.
// ---------------------------------------------------------------------------

TEST(ArrivalPropertyTest, RandomArrivalSchedulesKeepAllInvariants) {
  proptest::Config config;
  config.runs = 10;
  proptest::Check(
      "arrival schedules keep scenario invariants",
      [](proptest::Params& p) {
        ScenarioSpec spec;
        spec.name = "arrival-prop";
        spec.num_queries = static_cast<int>(p.Int(12, 50));
        spec.num_hints = static_cast<int>(p.Int(4, 12));
        spec.latent_rank = static_cast<int>(p.Int(1, 4));
        spec.noise_sigma = p.Double(0.0, 0.2);
        spec.equivalence_class_size = static_cast<int>(p.Int(0, 3));
        spec.use_timeouts = p.Bool(0.8);
        spec.budget_fraction = p.Double(0.2, 0.7);
        spec.online_servings = static_cast<int>(p.Int(0, 120));
        spec.seed = static_cast<uint64_t>(p.Int(1, 1 << 30));

        // 1-3 arrival batches, jointly leaving at least 4 initial queries.
        const int batches = static_cast<int>(p.Int(1, 3));
        int remaining = spec.num_queries - 4;
        int scheduled = 0;
        for (int b = 0; b < batches && remaining > 0; ++b) {
          ArrivalEvent a;
          a.after_budget_fraction = p.Double(0.1, 0.95);
          a.count = static_cast<int>(p.Int(1, std::max(1, remaining / 2)));
          remaining -= a.count;
          scheduled += a.count;
          spec.arrivals.push_back(a);
        }
        // Half the cases also drift, interleaving both shift kinds.
        if (p.Bool(0.5)) {
          spec.drift.push_back({p.Double(0.1, 0.9), p.Double(0.1, 0.8)});
        }
        const PolicyKind policy = static_cast<PolicyKind>(p.Int(0, 2));

        const SimulationResult result =
            SimulationDriver(spec).Run(policy, CompleterKind::kAls);
        if (!result.ok()) {
          std::fprintf(stderr, "spec {%s}\n%s\n", Describe(spec).c_str(),
                       result.Summary().c_str());
          return false;
        }
        if (result.arrivals != scheduled) {
          // All scheduled batches must have been applied.
          std::fprintf(stderr, "expected %d arrivals, driver applied %d\n",
                       scheduled, result.arrivals);
          return false;
        }
        return true;
      },
      config);
}

// The grid's arrival worlds must be present and cover the Fig. 9 shape,
// plus the cold-start fleet world where the arrival schedule *is* the
// whole workload.
TEST(ArrivalGridTest, GridContainsArrivalWorlds) {
  int with_arrivals = 0;
  int with_both_shifts = 0;
  int cold_starts = 0;
  for (const ScenarioSpec& s : ScenarioGrid()) {
    if (s.arrivals.empty()) continue;
    ++with_arrivals;
    int arriving = 0;
    for (const ArrivalEvent& a : s.arrivals) arriving += a.count;
    EXPECT_LE(arriving, s.num_queries) << s.name;
    if (arriving == s.num_queries) ++cold_starts;
    if (!s.drift.empty()) ++with_both_shifts;
  }
  EXPECT_GE(with_arrivals, 3);
  EXPECT_GE(with_both_shifts, 1)
      << "need a world where drift and arrivals interleave";
  EXPECT_GE(cold_starts, 1)
      << "need a cold-start fleet world (arrivals cover every query)";
}

// ---------------------------------------------------------------------------
// Cold start: an explorer stood up over an empty workload (zero rows) must
// be fully functional — nothing to explore, nothing observed — and must
// grow into a complete grid world through AddNewQueries alone.
// ---------------------------------------------------------------------------

TEST(ColdStartTest, EmptyExplorerGrowsToFullWorldViaArrivalsAlone) {
  ScenarioSpec spec;
  spec.num_queries = 24;
  spec.equivalence_class_size = 2;
  spec.seed = 23;
  SyntheticBackend backend(spec);
  core::GreedyPolicy policy;
  core::ExplorerOptions options;
  options.initial_queries = 0;  // fleet bring-up: no traffic attached yet
  options.seed = 7;
  core::OfflineExplorer explorer(&backend, &policy, options);

  // The empty engine is legal and inert: no rows, no observations, and an
  // Explore call finds nothing to do (and charges nothing).
  EXPECT_EQ(explorer.matrix().num_queries(), 0);
  explorer.Explore(backend.DefaultWorkloadLatency());
  EXPECT_EQ(explorer.offline_seconds(), 0.0);
  EXPECT_EQ(explorer.num_executions(), 0);

  // Traffic attaches in bursts; every burst joins with exactly its default
  // plan class observed, like any other arrival.
  explorer.AddNewQueries(10);
  explorer.AddNewQueries(14);
  ASSERT_EQ(explorer.matrix().num_queries(), spec.num_queries);
  for (int q = 0; q < spec.num_queries; ++q) {
    EXPECT_TRUE(explorer.matrix().IsComplete(q, 0)) << "row " << q;
  }

  // From here the grown engine explores exactly like a warm-started one.
  const std::vector<core::TrajectoryPoint> trajectory =
      explorer.Explore(0.4 * backend.DefaultWorkloadLatency());
  EXPECT_GT(explorer.num_executions(), 0);
  for (size_t t = 1; t < trajectory.size(); ++t) {
    EXPECT_LE(trajectory[t].workload_latency,
              trajectory[t - 1].workload_latency + 1e-9);
  }
  EXPECT_LT(explorer.WorkloadLatency(), backend.DefaultWorkloadLatency());
}

// The full driver runs the cold-start grid world end to end (offline +
// online serving) with every invariant intact.
TEST(ColdStartTest, ColdStartFleetWorldRunsCleanThroughTheDriver) {
  const std::vector<ScenarioSpec> grid = ScenarioGrid();
  const auto it =
      std::find_if(grid.begin(), grid.end(), [](const ScenarioSpec& s) {
        return s.name == "cold-start-fleet";
      });
  ASSERT_NE(it, grid.end());
  const SimulationResult result =
      SimulationDriver(*it).Run(PolicyKind::kModelGuided, CompleterKind::kAls);
  EXPECT_TRUE(result.ok()) << result.Summary();
  EXPECT_EQ(result.arrivals, it->num_queries);
  EXPECT_LT(result.final_latency, result.default_latency);
}

}  // namespace
}  // namespace limeqo::scenarios
