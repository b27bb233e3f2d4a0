// Online exploration over a one-shard ShardedServingTier (the paper's
// Sec. 6 direction): epsilon-gated, regret-budgeted servings that fill the
// workload matrix from production traffic. Unless a test says otherwise,
// every ServeSchedule epoch is one serving long (publish_every = 1), so each
// decision's snapshot has drained every earlier serving and the gate reads
// the live regret ledger.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/als.h"
#include "core/online.h"
#include "core/shard_router.h"
#include "tier_serving.h"

namespace limeqo::core {
namespace {

using tests::ServeTruth;

/// A small synthetic serving loop: true latencies follow a planted pattern
/// (hint t is the winner for every query), defaults are observed, and a
/// one-shard tier serves a stream of repetitive queries.
struct Harness {
  static constexpr int kQueries = 30;
  static constexpr int kHints = 8;
  static constexpr int kBestHint = 5;

  linalg::Matrix truth{kQueries, kHints};
  std::unique_ptr<CompleterPredictor> predictor;
  std::unique_ptr<ShardedServingTier> tier;

  Harness(uint64_t seed, OnlineExplorationOptions options) {
    WorkloadMatrix initial{kQueries, kHints};
    Rng rng(seed);
    for (int i = 0; i < kQueries; ++i) {
      const double base = rng.LogNormal(0.0, 1.0);
      for (int j = 0; j < kHints; ++j) {
        const double factor = j == kBestHint ? 0.4 : rng.Uniform(0.9, 2.0);
        truth(i, j) = base * factor;
      }
      initial.Observe(i, 0, truth(i, 0));
    }
    predictor = std::make_unique<CompleterPredictor>(
        std::make_unique<AlsCompleter>());
    options.publish_every = 1;
    ShardedTierOptions tier_options;
    tier_options.online = options;
    tier = std::make_unique<ShardedServingTier>(
        initial, std::vector<Predictor*>{predictor.get()}, tier_options);
    tier->RefreshAll(/*force=*/true);
    tier->PublishAll();
  }

  const WorkloadMatrix& matrix() const {
    return tier->shard_engine(0).matrix();
  }

  /// Serves `count` round-robin queries; returns total time.
  double Serve(int count) { return ServeTruth(*tier, truth, count); }
};

TEST(OnlineExplorationTest, EpsilonZeroNeverExplores) {
  OnlineExplorationOptions options;
  options.epsilon = 0.0;
  Harness h(1, options);
  h.Serve(300);
  EXPECT_EQ(h.tier->explorations(), 0);
  EXPECT_DOUBLE_EQ(h.tier->regret_spent(), 0.0);
  // With no exploration, only hint 0 is ever observed.
  for (int i = 0; i < Harness::kQueries; ++i) {
    for (int j = 1; j < Harness::kHints; ++j) {
      EXPECT_TRUE(h.matrix().IsUnobserved(i, j));
    }
  }
}

TEST(OnlineExplorationTest, ExplorationFillsCellsAndFindsFasterPlans) {
  OnlineExplorationOptions options;
  options.epsilon = 0.3;
  options.min_predicted_ratio = 0.05;
  options.regret_budget_seconds = 1e9;  // effectively unlimited
  Harness h(2, options);
  h.Serve(1500);
  EXPECT_GT(h.tier->explorations(), 0);
  // Exploration should have verified faster-than-default plans for a good
  // share of the workload, purely from production traffic.
  OnlineOptimizer verified(&h.matrix());
  int improved = 0;
  for (int i = 0; i < Harness::kQueries; ++i) {
    if (verified.HasVerifiedPlan(i)) ++improved;
  }
  EXPECT_GE(improved, Harness::kQueries / 2);
}

TEST(OnlineExplorationTest, RegretNeverExceedsBudgetByOneServing) {
  OnlineExplorationOptions options;
  options.epsilon = 0.5;
  options.min_predicted_ratio = 0.0;
  options.regret_budget_seconds = 2.0;
  Harness h(3, options);
  h.Serve(2000);
  // One-serving epochs: the gate sees every earlier serving's regret, so
  // at most one exploratory serving can overshoot; its regret is bounded by
  // one plan's latency.
  double worst = 0.0;
  for (size_t i = 0; i < h.truth.size(); ++i) {
    worst = std::max(worst, h.truth.data()[i]);
  }
  EXPECT_LE(h.tier->regret_spent(), 2.0 + worst);
}

TEST(OnlineExplorationTest, NoExplorationAfterBudgetExhausted) {
  OnlineExplorationOptions options;
  options.epsilon = 1.0;
  options.min_predicted_ratio = 0.0;
  options.regret_budget_seconds = 0.5;
  // Disable the per-serving risk gate so the budget actually exhausts
  // (with the gate, exploration just tapers off as the budget shrinks).
  options.max_baseline_budget_fraction = 1e18;
  Harness h(4, options);
  h.Serve(1000);
  ASSERT_TRUE(h.tier->budget_exhausted());
  // The freeze is only observable while cells are left to explore.
  ASSERT_GT(h.matrix().NumUnobserved(), 0);
  const int explorations_at_exhaustion = h.tier->explorations();
  h.Serve(500);
  EXPECT_EQ(h.tier->explorations(), explorations_at_exhaustion);
}

TEST(OnlineExplorationTest, ServedPlansConvergeTowardOptimal) {
  OnlineExplorationOptions options;
  options.epsilon = 0.25;
  options.min_predicted_ratio = 0.05;
  options.regret_budget_seconds = 1e9;
  Harness h(5, options);
  const double early = h.Serve(300);
  for (int warm = 0; warm < 4; ++warm) h.Serve(300);
  const double late = h.Serve(300);
  // Same number of servings, strictly less total time after exploration.
  EXPECT_LT(late, 0.9 * early);
}

TEST(OnlineExplorationTest, MinRatioGateBlocksModelCandidates) {
  OnlineExplorationOptions options;
  options.epsilon = 1.0;
  options.min_predicted_ratio = 1e9;  // nothing is ever promising enough
  options.random_fallback = false;    // and no bootstrap fallback either
  Harness h(6, options);
  h.Serve(200);
  EXPECT_EQ(h.tier->explorations(), 0);
}

TEST(OnlineExplorationTest, RandomFallbackBootstrapsFromColdStart) {
  OnlineExplorationOptions options;
  options.epsilon = 1.0;
  options.min_predicted_ratio = 1e9;  // model candidates always rejected
  options.random_fallback = true;
  options.regret_budget_seconds = 1e9;
  Harness h(7, options);
  h.Serve(200);
  EXPECT_GT(h.tier->explorations(), 100);
}

/// The online analogue of the completer determinism tests: a serving trace
/// is a pure function of (options.seed, serving stream). Two tiers with the
/// same seed must produce bitwise-identical traces even when the completion
/// model runs on different thread counts, and when the epochs are served by
/// different numbers of serving threads — the gate and fallback-pick
/// streams are keyed by serving index, and the threaded linalg core is
/// thread-count-invariant by contract.
TEST(OnlineExplorationTest, TraceIsBitwiseIdenticalAcrossThreadCounts) {
  OnlineExplorationOptions options;
  options.epsilon = 0.3;
  options.min_predicted_ratio = 0.05;
  options.regret_budget_seconds = 50.0;
  options.seed = 12345;

  auto run_trace = [&](int linalg_threads, int epoch, int serve_threads,
                       std::vector<int>* hints, double* regret) {
    SetNumThreads(linalg_threads);
    Harness h(42, options);
    ServeTruth(*h.tier, h.truth, 800, epoch, serve_threads, hints);
    *regret = h.tier->regret_spent();
    EXPECT_EQ(h.tier->scheduled_servings(), 800u);
  };

  std::vector<int> hints_single, hints_multi;
  double regret_single = 0.0, regret_multi = 0.0;
  run_trace(1, 1, 1, &hints_single, &regret_single);
  run_trace(8, 1, 1, &hints_multi, &regret_multi);
  ASSERT_EQ(hints_single.size(), hints_multi.size());
  EXPECT_EQ(hints_single, hints_multi)
      << "online serving trace depends on the linalg thread count";
  EXPECT_EQ(regret_single, regret_multi);

  // Epochs of 8 servings: one serving thread vs three.
  std::vector<int> epoch_single, epoch_multi;
  run_trace(1, 8, 1, &epoch_single, &regret_single);
  run_trace(8, 8, 3, &epoch_multi, &regret_multi);
  SetNumThreads(1);
  EXPECT_EQ(epoch_single, epoch_multi)
      << "online serving trace depends on the serving thread count";
  EXPECT_EQ(regret_single, regret_multi);
}

TEST(OnlineExplorationTest, SameSeedSameTraceDifferentSeedDifferentTrace) {
  auto run_trace = [](uint64_t seed) {
    OnlineExplorationOptions options;
    options.epsilon = 0.4;
    options.regret_budget_seconds = 1e9;
    options.seed = seed;
    Harness h(9, options);
    std::vector<int> hints;
    ServeTruth(*h.tier, h.truth, 400, /*epoch=*/1, /*threads=*/1, &hints);
    return hints;
  };
  EXPECT_EQ(run_trace(7), run_trace(7));
  EXPECT_NE(run_trace(7), run_trace(8));
}

TEST(OnlineExplorationTest, RiskGateTapersExplorationNearBudget) {
  OnlineExplorationOptions options;
  options.epsilon = 1.0;
  options.min_predicted_ratio = 0.0;
  options.regret_budget_seconds = 10.0;
  options.max_baseline_budget_fraction = 0.125;
  Harness h(8, options);
  h.Serve(3000);
  // With the gate, a probe is only allowed when its baseline is <= 12.5%
  // of the remaining budget, and in this harness a probe's regret is at
  // most 1x its baseline (worst factor 2.0 vs baseline 1.0) — so the
  // budget can be overshot by at most one gated probe.
  EXPECT_LE(h.tier->regret_spent(), 10.0 * 1.125 + 1e-9);
  // Exploration tapered off rather than dying at once.
  EXPECT_GT(h.tier->explorations(), 3);
}

}  // namespace
}  // namespace limeqo::core
