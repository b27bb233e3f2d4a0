#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/als.h"
#include "core/engine.h"
#include "core/shard_router.h"
#include "proptest.h"
#include "scenarios/scenario.h"
#include "scenarios/simulation.h"
#include "tier_serving.h"

namespace limeqo::scenarios {
namespace {

/// Draws a random — but always valid — ScenarioSpec. Sizes are kept small
/// enough that a full property run stays in CI-friendly time.
ScenarioSpec DrawSpec(proptest::Params& p) {
  ScenarioSpec spec;
  spec.name = "prop";
  spec.num_queries = static_cast<int>(p.Int(4, 40));
  spec.num_hints = static_cast<int>(p.Int(2, 10));
  spec.latent_rank = static_cast<int>(p.Int(1, 4));
  spec.base_sigma = p.Double(0.2, 1.6);
  spec.structure_strength = p.Double(0.0, 1.0);
  spec.noise_sigma = p.Bool(0.5) ? p.Double(0.0, 0.3) : 0.0;
  if (p.Bool(0.4)) {
    spec.tail = TailModel::kParetoMix;
    spec.heavy_tail_prob = p.Double(0.0, 0.2);
    spec.heavy_tail_scale = p.Double(2.0, 50.0);
  }
  if (p.Bool(0.3)) {
    spec.equivalence_class_size = static_cast<int>(p.Int(2, 4));
  }
  spec.use_timeouts = !p.Bool(0.25);
  spec.timeout_alpha = p.Double(1.05, 3.0);
  spec.batch_size = static_cast<int>(p.Int(1, 12));
  spec.budget_fraction = p.Double(0.05, 0.8);
  if (p.Bool(0.35)) {
    const int events = static_cast<int>(p.Int(1, 2));
    for (int e = 0; e < events; ++e) {
      spec.drift.push_back(
          {p.Double(0.1, 0.9), p.Double(0.1, 1.0)});
    }
  }
  spec.online_servings = static_cast<int>(p.Int(0, 250));
  spec.epsilon = p.Double(0.0, 0.5);
  spec.online_regret_budget_seconds = p.Double(0.0, 10.0);
  spec.seed = p.case_seed();
  return spec;
}

/// Every invariant the driver checks must hold on *arbitrary* generated
/// worlds, not just the curated grid — any policy, any regime.
TEST(PolicyInvariantsTest, InvariantsHoldOnRandomScenarios) {
  proptest::Config config;
  config.runs = 12;
  proptest::Check(
      "scenario invariants hold under a random policy",
      [](proptest::Params& p) {
        const PolicyKind policy =
            static_cast<PolicyKind>(p.Int(0, 2));
        const ScenarioSpec spec = DrawSpec(p);
        const SimulationResult result = SimulationDriver(spec).Run(policy);
        if (!result.ok()) {
          std::cerr << "spec {" << Describe(spec) << "}\n"
                    << result.Summary() << "\n";
        }
        return result.ok();
      },
      config);
}

/// Algorithm 1's model slot is pluggable: every completer behind the
/// model-guided policy must satisfy the same invariants.
TEST(PolicyInvariantsTest, InvariantsHoldForEveryCompleter) {
  for (CompleterKind completer :
       {CompleterKind::kAls, CompleterKind::kSvt,
        CompleterKind::kNuclearNorm}) {
    ScenarioSpec spec;
    spec.name = "completer-sweep";
    spec.seed = 31337;
    const SimulationResult result =
        SimulationDriver(spec).Run(PolicyKind::kModelGuided, completer);
    EXPECT_TRUE(result.ok())
        << CompleterKindName(completer) << ": " << result.Summary();
  }
}

/// The whole scenario pipeline — world generation, exploration, online
/// serving — must not depend on the linalg thread count.
TEST(PolicyInvariantsTest, RandomScenariosAreThreadCountInvariant) {
  proptest::Config config;
  config.runs = 4;
  proptest::Check(
      "simulation results are identical at 1 and 7 threads",
      [](proptest::Params& p) {
        const PolicyKind policy =
            static_cast<PolicyKind>(p.Int(0, 2));
        ScenarioSpec spec = DrawSpec(p);
        SetNumThreads(1);
        const SimulationResult single = SimulationDriver(spec).Run(policy);
        SetNumThreads(7);
        const SimulationResult multi = SimulationDriver(spec).Run(policy);
        SetNumThreads(1);
        const bool identical =
            single.final_latency == multi.final_latency &&
            single.offline_seconds == multi.offline_seconds &&
            single.executions == multi.executions &&
            single.timeouts == multi.timeouts &&
            single.servings == multi.servings &&
            single.explorations == multi.explorations &&
            single.regret_spent == multi.regret_spent;
        if (!identical) {
          std::cerr << "thread-count divergence on {" << Describe(spec)
                    << "}\n1 thread: " << single.Summary()
                    << "\n7 threads: " << multi.Summary() << "\n";
        }
        return identical && single.ok() && multi.ok();
      },
      config);
}

// ---------------------------------------------------------------------------
// Targeted online-optimizer properties against a planted serving loop
// (tighter bounds than the driver's, on a harness where the worst-case
// serving latency is known exactly).
// ---------------------------------------------------------------------------

struct OnlineHarness {
  int num_queries;
  int num_hints;
  linalg::Matrix truth;
  core::WorkloadMatrix matrix;
  std::unique_ptr<core::CompleterPredictor> predictor;
  std::unique_ptr<core::ShardedServingTier> tier;
  double worst_latency = 0.0;

  /// A one-shard tier over a random planted world. The options' epoch is
  /// one serving (publish_every = 1): every decision's snapshot has drained
  /// every earlier serving, so the gate reads the live regret ledger.
  OnlineHarness(proptest::Params& p, core::OnlineExplorationOptions options)
      : num_queries(static_cast<int>(p.Int(2, 30))),
        num_hints(static_cast<int>(p.Int(2, 8))),
        truth(num_queries, num_hints),
        matrix(num_queries, num_hints) {
    Rng rng(p.case_seed() ^ 0x4841524EULL);
    for (int i = 0; i < num_queries; ++i) {
      const double base = rng.LogNormal(0.0, 1.0);
      for (int j = 0; j < num_hints; ++j) {
        truth(i, j) = base * (j == 0 ? 1.0 : rng.Uniform(0.3, 2.5));
        worst_latency = std::max(worst_latency, truth(i, j));
      }
      matrix.Observe(i, 0, truth(i, 0));
    }
    predictor = std::make_unique<core::CompleterPredictor>(
        std::make_unique<core::AlsCompleter>());
    options.publish_every = 1;
    core::ShardedTierOptions tier_options;
    tier_options.online = options;
    tier = std::make_unique<core::ShardedServingTier>(
        matrix, std::vector<core::Predictor*>{predictor.get()}, tier_options);
    tier->RefreshAll(/*force=*/true);
    tier->PublishAll();
  }

  void Serve(int count) { tests::ServeTruth(*tier, truth, count); }
};

TEST(PolicyInvariantsTest, OnlineRegretNeverExceedsBudgetPlusOneServing) {
  proptest::Check(
      "cumulative regret <= budget + one serving",
      [](proptest::Params& p) {
        core::OnlineExplorationOptions options;
        options.epsilon = p.Double(0.0, 1.0);
        options.min_predicted_ratio = p.Double(0.0, 0.5);
        options.regret_budget_seconds = p.Double(0.0, 5.0);
        options.max_baseline_budget_fraction = p.Double(0.05, 1e18);
        options.seed = p.case_seed();
        const int servings = static_cast<int>(p.Int(0, 600));
        OnlineHarness h(p, options);
        h.Serve(servings);
        const double bound =
            options.regret_budget_seconds + h.worst_latency + 1e-9;
        if (h.tier->regret_spent() > bound) {
          std::cerr << "regret " << h.tier->regret_spent() << " > bound "
                    << bound << "\n";
          return false;
        }
        return true;
      });
}

TEST(PolicyInvariantsTest, OnlineExplorationStaysUnderEpsilonCap) {
  proptest::Check(
      "explorations are epsilon-capped",
      [](proptest::Params& p) {
        core::OnlineExplorationOptions options;
        options.epsilon = p.Double(0.0, 1.0);
        options.regret_budget_seconds = 1e9;
        options.seed = p.case_seed();
        const int servings = static_cast<int>(p.Int(1, 800));
        OnlineHarness h(p, options);
        h.Serve(servings);
        if (h.tier->scheduled_servings() !=
            static_cast<uint64_t>(servings)) {
          return false;
        }
        const double n = static_cast<double>(servings);
        const double cap =
            n * options.epsilon +
            4.0 * std::sqrt(n * options.epsilon * (1.0 - options.epsilon)) +
            2.0;
        if (h.tier->explorations() > cap) {
          std::cerr << h.tier->explorations() << " explorations in "
                    << servings << " servings with epsilon "
                    << options.epsilon << "\n";
          return false;
        }
        if (options.epsilon == 0.0 && h.tier->explorations() != 0) {
          return false;
        }
        return true;
      });
}

TEST(PolicyInvariantsTest, ExhaustedBudgetFreezesExploration) {
  proptest::Check(
      "no exploration after the regret budget is gone",
      [](proptest::Params& p) {
        core::OnlineExplorationOptions options;
        options.epsilon = p.Double(0.5, 1.0);
        options.min_predicted_ratio = 0.0;
        options.regret_budget_seconds = p.Double(0.0, 0.5);
        options.max_baseline_budget_fraction = 1e18;  // gate off: drain fast
        options.seed = p.case_seed();
        OnlineHarness h(p, options);
        h.Serve(800);
        if (!h.tier->budget_exhausted()) return true;  // nothing to check
        const int frozen = h.tier->explorations();
        h.Serve(200);
        return h.tier->explorations() == frozen;
      });
}

}  // namespace
}  // namespace limeqo::scenarios
