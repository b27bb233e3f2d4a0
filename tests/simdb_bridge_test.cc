// The scenario -> simdb bridge: compiling a ScenarioSpec into a
// SimulatedDatabase must preserve the planted surface bitwise, realize
// plan-equivalence classes as identical plan trees, and carry the neural
// arms (TCNN / LimeQO+) through the same grid invariants as the matrix
// policies — bitwise-deterministically across thread counts.

#include <cctype>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "plan/plan_node.h"
#include "scenarios/scenario.h"
#include "scenarios/simdb_bridge.h"
#include "scenarios/simulation.h"
#include "simdb/database.h"

namespace limeqo::scenarios {
namespace {

ScenarioSpec GridSpec(const std::string& name) {
  for (const ScenarioSpec& spec : ScenarioGrid()) {
    if (spec.name == name) return spec;
  }
  ADD_FAILURE() << "no grid scenario named " << name;
  return ScenarioSpec{};
}

// ---------------------------------------------------------------------------
// Compilation: the database must be a faithful realization of the spec.
// ---------------------------------------------------------------------------

TEST(SimDbBridgeTest, PlantedTruthMatchesSurfaceBitwise) {
  ScenarioSpec spec;
  spec.seed = 7;
  SimDbScenarioBackend bridge(spec);
  SyntheticBackend surface(spec);  // the same spec without the bridge
  const simdb::SimulatedDatabase& db = bridge.database();
  ASSERT_EQ(db.num_queries(), spec.num_queries);
  ASSERT_EQ(db.num_hints(), spec.num_hints);
  for (int q = 0; q < spec.num_queries; ++q) {
    for (int j = 0; j < spec.num_hints; ++j) {
      ASSERT_EQ(bridge.TrueLatency(q, j), surface.TrueLatency(q, j));
      ASSERT_EQ(db.TrueLatency(q, j), surface.TrueLatency(q, j));
    }
  }
}

TEST(SimDbBridgeTest, ProvidesPlansAndCosts) {
  ScenarioSpec spec;
  spec.seed = 8;
  SimDbScenarioBackend bridge(spec);
  for (int q = 0; q < spec.num_queries; ++q) {
    for (int j = 0; j < spec.num_hints; ++j) {
      const plan::PlanNode* plan = bridge.Plan(q, j);
      ASSERT_NE(plan, nullptr);
      EXPECT_GT(plan->est_cost, 0.0);
      EXPECT_GT(bridge.OptimizerCost(q, j), 0.0);
    }
  }
}

TEST(SimDbBridgeTest, EquivalenceClassesShareIdenticalPlans) {
  ScenarioSpec spec = GridSpec("plan-equivalence");
  SimDbScenarioBackend bridge(spec);
  for (int q = 0; q < spec.num_queries; ++q) {
    for (int j = 0; j < spec.num_hints; ++j) {
      const uint64_t hash = plan::StructuralHash(*bridge.Plan(q, j));
      for (int other : bridge.EquivalentHints(q, j)) {
        EXPECT_EQ(plan::StructuralHash(*bridge.Plan(q, other)), hash)
            << "plan-equivalent hints " << j << " and " << other
            << " built different plans for query " << q;
        EXPECT_EQ(bridge.OptimizerCost(q, other), bridge.OptimizerCost(q, j));
        EXPECT_EQ(bridge.TrueLatency(q, other), bridge.TrueLatency(q, j));
      }
    }
  }
  // Distinct classes got distinct optimizer configurations.
  const simdb::SimulatedDatabase& db = bridge.database();
  std::set<int> configs;
  for (int j = 0; j < spec.num_hints; ++j) configs.insert(db.HintConfigId(j));
  const int classes =
      (spec.num_hints + spec.equivalence_class_size - 1) /
      spec.equivalence_class_size;
  EXPECT_EQ(static_cast<int>(configs.size()), classes);
}

TEST(SimDbBridgeTest, DriftKeepsDatabaseInSyncWithSurface) {
  ScenarioSpec spec;
  spec.seed = 9;
  SimDbScenarioBackend bridge(spec);
  const double cost_before = bridge.OptimizerCost(0, 1);
  (void)cost_before;
  bridge.ApplyDrift(1.0);
  const simdb::SimulatedDatabase& db = bridge.database();
  for (int q = 0; q < spec.num_queries; ++q) {
    for (int j = 0; j < spec.num_hints; ++j) {
      ASSERT_EQ(db.TrueLatency(q, j), bridge.TrueLatency(q, j))
          << "database truth stale after drift at (" << q << "," << j << ")";
    }
  }
  // Plans rebuild against the new surface (cost anchors move with truth).
  for (int q = 0; q < spec.num_queries; ++q) {
    EXPECT_GT(bridge.Plan(q, 1)->est_cost, 0.0);
  }
}

TEST(SimDbBridgeTest, CreateFromPlantedRejectsInconsistentClasses) {
  ScenarioSpec spec;
  spec.num_queries = 4;
  spec.num_hints = 4;
  SyntheticBackend surface(spec);

  simdb::PlantedDatabaseSpec planted;
  Rng rng(1);
  planted.catalog = simdb::Catalog::Random(6, &rng);
  simdb::QueryGenerator qgen(&planted.catalog, 2, 3);
  for (int i = 0; i < 4; ++i) planted.queries.push_back(qgen.Generate(&rng));
  planted.hint_configs = {0, 1, 2, 3};
  planted.truth = surface.truth();
  // Claim hints 2 and 3 are one class but leave their configs (and planted
  // latencies) different: the factory must reject the contradiction.
  planted.representative.assign(static_cast<size_t>(4) * 4, 0);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      planted.representative[static_cast<size_t>(i) * 4 + j] =
          j == 3 ? 2 : j;
    }
  }
  StatusOr<simdb::SimulatedDatabase> db =
      simdb::SimulatedDatabase::CreateFromPlanted(std::move(planted));
  EXPECT_FALSE(db.ok());
}

// ---------------------------------------------------------------------------
// The acceptance bar: grid scenarios end-to-end through the bridge with the
// neural arms, under the full invariant checks.
// ---------------------------------------------------------------------------

// How the online phase serves through the one-shard tier (so the neural
// arms' plan features index global rows): one serving thread in epochs, or
// two serving threads in epochs or free-running.
enum class Serving { kOneThread, kEpoch, kFreeRunning };

using BridgeParam = std::tuple<std::string, PredictorArm, Serving>;

class BridgeGridTest : public ::testing::TestWithParam<BridgeParam> {};

TEST_P(BridgeGridTest, NeuralArmInvariantsHold) {
  const ScenarioSpec spec = GridSpec(std::get<0>(GetParam()));
  RunConfig config;
  config.world = WorldKind::kSimDb;
  config.arm = std::get<1>(GetParam());
  const Serving serving = std::get<2>(GetParam());
  config.serve_threads = serving == Serving::kOneThread ? 1 : 2;
  config.free_running = serving == Serving::kFreeRunning;
  SimulationDriver driver(spec);
  const SimulationResult result = driver.Run(config);
  EXPECT_TRUE(result.ok())
      << "invariants violated; reproduce with spec {" << Describe(spec)
      << "} arm=" << PredictorArmName(config.arm)
      << " serve_threads=" << config.serve_threads
      << " free_running=" << config.free_running << "\n"
      << result.Summary();
  EXPECT_GT(result.executions, 0) << Describe(spec);
  if (spec.online_servings > 0) {
    EXPECT_GT(result.servings, 0) << Describe(spec);
  }
}

std::string BridgeParamName(const ::testing::TestParamInfo<BridgeParam>& info) {
  std::string name = std::get<0>(info.param) + "_" +
                     PredictorArmName(std::get<1>(info.param));
  switch (std::get<2>(info.param)) {
    case Serving::kOneThread:
      break;
    case Serving::kEpoch:
      name += "_epoch";
      break;
    case Serving::kFreeRunning:
      name += "_free_running";
      break;
  }
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

// Six grid worlds through the bridge, alternating the two neural arms so
// both TCNN (plain, no embeddings) and LimeQO+ (transductive) see timeout,
// heavy-tail, plan-equivalence, drift, and arrival regimes.
// "arrival-midstream" under LimeQO+ exercises TcnnModel::GrowQueries (the
// embedding table must grow when rows arrive mid-run). "baseline" under
// LimeQO+ also serves concurrently, in both modes.
INSTANTIATE_TEST_SUITE_P(
    Grid, BridgeGridTest,
    ::testing::Values(
        std::make_tuple(std::string("baseline"), PredictorArm::kLimeQoPlus,
                        Serving::kOneThread),
        std::make_tuple(std::string("plan-equivalence"),
                        PredictorArm::kLimeQoPlus, Serving::kOneThread),
        std::make_tuple(std::string("arrival-midstream"),
                        PredictorArm::kLimeQoPlus, Serving::kOneThread),
        std::make_tuple(std::string("heavy-tail-mild"), PredictorArm::kTcnn,
                        Serving::kOneThread),
        std::make_tuple(std::string("tight-timeouts"), PredictorArm::kTcnn,
                        Serving::kOneThread),
        std::make_tuple(std::string("drift-single"), PredictorArm::kTcnn,
                        Serving::kOneThread),
        std::make_tuple(std::string("baseline"), PredictorArm::kLimeQoPlus,
                        Serving::kEpoch),
        std::make_tuple(std::string("baseline"), PredictorArm::kLimeQoPlus,
                        Serving::kFreeRunning)),
    BridgeParamName);

// The matrix arms must run unchanged behind the bridge too: the bridge is a
// strict superset of the synthetic surface.
TEST(BridgeGridTest, CompleterArmRunsThroughBridge) {
  const ScenarioSpec spec = GridSpec("baseline");
  RunConfig config;
  config.world = WorldKind::kSimDb;
  SimulationDriver driver(spec);
  const SimulationResult result = driver.Run(config);
  EXPECT_TRUE(result.ok()) << result.Summary();
}

// ---------------------------------------------------------------------------
// Whole-pipeline determinism through the bridge: world compilation, TCNN
// training, and the serving loops must be bitwise identical across thread
// counts (the TCNN is scalar by design; the linalg core is
// thread-count-invariant by contract).
// ---------------------------------------------------------------------------

TEST(BridgeGridTest, BridgeRunIsBitwiseDeterministicAcrossThreadCounts) {
  const ScenarioSpec spec = GridSpec("baseline");
  RunConfig config;
  config.world = WorldKind::kSimDb;
  config.arm = PredictorArm::kLimeQoPlus;
  SetNumThreads(1);
  const SimulationResult single = SimulationDriver(spec).Run(config);
  SetNumThreads(8);
  const SimulationResult multi = SimulationDriver(spec).Run(config);
  SetNumThreads(1);
  ASSERT_TRUE(single.ok()) << single.Summary();
  ASSERT_TRUE(multi.ok()) << multi.Summary();
  EXPECT_EQ(single.final_latency, multi.final_latency);
  EXPECT_EQ(single.offline_seconds, multi.offline_seconds);
  EXPECT_EQ(single.executions, multi.executions);
  EXPECT_EQ(single.timeouts, multi.timeouts);
  EXPECT_EQ(single.explorations, multi.explorations);
  EXPECT_EQ(single.regret_spent, multi.regret_spent);
}

}  // namespace
}  // namespace limeqo::scenarios
