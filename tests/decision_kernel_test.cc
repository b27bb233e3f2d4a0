// Tests for the shared serving decision kernel (src/core/decision_kernel.h):
//
//  * pinned grid traces: the epoch-synchronized serving traces of a set of
//    grid worlds, hashed and compared against constants captured from the
//    PR 6 build (the last one with the duplicated ChooseHint copies). The
//    snapshot decision rule is bitwise-pinned by these hashes: the kernel
//    refactor and every layout/batching optimization behind it must not
//    change a single served hint.
//
//  * differential properties: random published snapshots (incl.
//    no-predictions, all-observed, overshot-ledger, and infinite-baseline
//    rows) x serving indices, asserting ServingSnapshot::ChooseHint equals
//    an independent reimplementation of the PR 6 legacy rule, and that the
//    batched ChooseHints equals the scalar calls decision-for-decision.
//
//  * the two fixed divergences: a tier with no predictor bootstraps via
//    the random fallback (instead of the old silent verified-only bailout),
//    and the unified risk gate clamps the remaining budget at zero on an
//    overshot ledger.
//
//  * the FirstDraw RNG fast path is bitwise-equal to the full generator.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/als.h"
#include "core/decision_kernel.h"
#include "core/engine.h"
#include "core/predictor.h"
#include "core/shard_router.h"
#include "core/workload_matrix.h"
#include "scenarios/scenario.h"
#include "scenarios/simulation.h"
#include "tier_serving.h"
#include "trace_hash.h"

namespace limeqo {
namespace {

using core::CellState;
using core::ExplorationEngine;
using core::OnlineExplorationOptions;
using core::ServingSnapshot;
using core::WorkloadMatrix;
using scenarios::RunConfig;
using scenarios::ScenarioGrid;
using scenarios::ScenarioSpec;
using scenarios::SimulationDriver;
using scenarios::SimulationResult;
using tests::TraceHash;

struct PinnedWorld {
  const char* name;
  uint64_t expected_hash;
};

// Captured from the PR 6 build (epoch-synchronized mode, serve_threads=2,
// ModelGuided/ALS on the synthetic world). Regenerate by running this test
// with LIMEQO_PRINT_TRACE_HASHES=1 — but only when a PR *intends* to change
// the snapshot serving rule, which the decision-kernel unification
// deliberately does not.
constexpr PinnedWorld kPinnedWorlds[] = {
    {"baseline", 0xD1C5B3DF04A4BE3FULL},
    {"heavy-tail-mild", 0x4E1490E898AF2198ULL},
    {"drift-single", 0xFB2411B2DA8C811EULL},
    {"online-tight-budget", 0x8FC42901F2BF3462ULL},
    {"arrival-midstream", 0x49B9AA5698923DE9ULL},
    {"cold-start-fleet", 0x9A3E7220732AE7CBULL},
};

const ScenarioSpec* FindWorld(const std::vector<ScenarioSpec>& grid,
                              const char* name) {
  for (const ScenarioSpec& s : grid) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

TEST(PinnedGridTraces, EpochServingTracesMatchPr6Baseline) {
  const bool print_mode =
      std::getenv("LIMEQO_PRINT_TRACE_HASHES") != nullptr;
  const std::vector<ScenarioSpec> grid = ScenarioGrid();
  for (const PinnedWorld& world : kPinnedWorlds) {
    const ScenarioSpec* spec = FindWorld(grid, world.name);
    ASSERT_NE(spec, nullptr) << world.name;
    RunConfig config;
    config.serve_threads = 2;
    SimulationDriver driver(*spec);
    const SimulationResult result = driver.Run(config);
    ASSERT_TRUE(result.ok()) << result.Summary();
    const uint64_t hash = TraceHash(result);
    if (print_mode) {
      std::printf("    {\"%s\", 0x%016llXULL},\n", world.name,
                  static_cast<unsigned long long>(hash));
      continue;
    }
    EXPECT_EQ(hash, world.expected_hash)
        << world.name << ": the snapshot serving rule changed a served "
        << "hint/latency vs the PR 6 baseline. " << result.Summary();
  }
}

// ---------------------------------------------------------------------------
// RNG fast path
// ---------------------------------------------------------------------------

TEST(RngFastPath, FirstDrawMatchesFullGenerator) {
  Rng seeds(0xFEEDu);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t seed = seeds.NextUint64();
    EXPECT_EQ(FirstDraw(seed), Rng(seed).NextUint64()) << "seed " << seed;
    EXPECT_EQ(FirstUniform(seed), Rng(seed).NextDouble()) << "seed " << seed;
  }
  // The gate comparison the serving path actually runs.
  for (const double p : {0.0, 0.05, 0.5, 1.0}) {
    for (uint64_t seed = 0; seed < 500; ++seed) {
      EXPECT_EQ(FirstUniform(seed) < p, Rng(seed).Bernoulli(p));
    }
  }
}

// ---------------------------------------------------------------------------
// Differential properties: kernel vs an independent reimplementation of the
// PR 6 legacy snapshot rule, and batched vs scalar decisions.
// ---------------------------------------------------------------------------

// The PR 6 ServingSnapshot::ChooseHint, reimplemented verbatim against the
// snapshot's *public* row accessors (per-hint state lookups, no precompute)
// and the published gate/pick stream contract. Any drift between the
// shared kernel (or the drain-time row precompute behind it) and this
// reference is a decision change.
int LegacyChooseHint(const ServingSnapshot& snap,
                     const linalg::Matrix* predictions, int query,
                     uint64_t serving_index) {
  const int k = snap.num_hints();
  const int verified = snap.VerifiedHint(query);
  const OnlineExplorationOptions& opt = snap.options();
  if (opt.epsilon <= 0.0 ||
      snap.regret_spent() >= opt.regret_budget_seconds) {
    return verified;
  }
  Rng gate(
      MixSeed(MixSeed(opt.seed, core::kGateStreamTag), serving_index));
  if (!gate.Bernoulli(opt.epsilon)) return verified;
  const double remaining =
      std::max(opt.regret_budget_seconds - snap.regret_spent(), 0.0);
  const double baseline = snap.VerifiedLatency(query);
  if (std::isfinite(baseline) &&
      baseline > opt.max_baseline_budget_fraction * remaining) {
    return verified;
  }
  if (snap.has_predictions()) {
    int best_j = -1;
    double best_pred = std::numeric_limits<double>::infinity();
    for (int j = 0; j < k; ++j) {
      if (snap.state(query, j) != CellState::kUnobserved) continue;
      if ((*predictions)(query, j) < best_pred) {
        best_pred = (*predictions)(query, j);
        best_j = j;
      }
    }
    if (best_j >= 0 && std::isfinite(baseline)) {
      const double ratio =
          (baseline - best_pred) / std::max(best_pred, 1e-9);
      if (ratio >= opt.min_predicted_ratio) return best_j;
    }
  }
  if (!opt.random_fallback) return verified;
  int unobserved = 0;
  for (int j = 0; j < k; ++j) {
    if (snap.state(query, j) == CellState::kUnobserved) ++unobserved;
  }
  if (unobserved == 0) return verified;
  Rng pick_rng(
      MixSeed(MixSeed(opt.seed, core::kPickStreamTag), serving_index));
  int pick = static_cast<int>(pick_rng.NextUint64Below(unobserved));
  for (int j = 0; j < k; ++j) {
    if (snap.state(query, j) != CellState::kUnobserved) continue;
    if (pick-- == 0) return j;
  }
  return verified;
}

// Checks kernel-vs-legacy and batched-vs-scalar over every query of the
// engine's current snapshot across a range of serving indices.
void CheckSnapshotDifferential(ExplorationEngine& engine, const char* context,
                               int* snapshots_with_predictions) {
  std::shared_ptr<const core::ServingSnapshot> snap = engine.snapshot();
  const linalg::Matrix* preds =
      snap->has_predictions() ? &engine.predictions() : nullptr;
  if (preds != nullptr) ++*snapshots_with_predictions;
  const int n = snap->num_queries();
  for (uint64_t s = 0; s < 300; ++s) {
    const int q = static_cast<int>(s % static_cast<uint64_t>(n));
    ASSERT_EQ(snap->ChooseHint(q, s), LegacyChooseHint(*snap, preds, q, s))
        << context << ": query " << q << " serving " << s;
  }
  for (const size_t batch : {size_t{1}, size_t{5}, size_t{16}, size_t{100}}) {
    for (const uint64_t first : {uint64_t{0}, uint64_t{1234}}) {
      std::vector<int> queries(batch);
      std::vector<int> batched(batch);
      for (size_t i = 0; i < batch; ++i) {
        queries[i] = static_cast<int>(i % static_cast<size_t>(n));
      }
      snap->ChooseHints(std::span<const int>(queries), first,
                        std::span<int>(batched));
      for (size_t i = 0; i < batch; ++i) {
        ASSERT_EQ(batched[i],
                  snap->ChooseHint(queries[i], first + i))
            << context << ": batch " << batch << " first_seq " << first
            << " lane " << i;
      }
    }
  }
}

TEST(DecisionKernelDifferential, RandomSnapshotsMatchLegacyRule) {
  Rng rng(0xD1FFu);
  int snapshots_with_predictions = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 8 + static_cast<int>(rng.NextUint64Below(33));  // 8..40
    const int k = 2 + static_cast<int>(rng.NextUint64Below(9));   // 2..10
    WorkloadMatrix w(n, k);
    for (int q = 0; q < n; ++q) {
      if (q == n - 1) continue;  // row n-1: all-unobserved, infinite baseline
      for (int j = 0; j < k; ++j) {
        const double r = rng.NextDouble();
        if (q == 0 || r < 0.4) {
          // Row 0 is fully observed (all-observed edge: the fallback has
          // zero candidates there).
          w.Observe(q, j, rng.Uniform(0.05, 10.0));
        } else if (r < 0.5) {
          w.ObserveCensored(q, j, rng.Uniform(0.05, 10.0));
        }
      }
    }

    core::AlsOptions als;
    als.rank = 2;
    als.convergence_tol = 1e-2;
    als.seed = 7 + trial;
    core::CompleterPredictor predictor(
        std::make_unique<core::AlsCompleter>(als));
    core::EngineOptions options;
    options.online.epsilon = (trial % 4 == 0) ? 1.0 : 0.35;
    options.online.min_predicted_ratio =
        (trial % 3 == 0) ? 0.0 : ((trial % 3 == 1) ? 0.2 : 50.0);
    options.online.regret_budget_seconds = 50.0;
    options.online.random_fallback = trial % 5 != 0;
    options.online.seed = 1000 + static_cast<uint64_t>(trial);
    // Every third trial serves without a model (no-predictions edge).
    const bool with_predictor = trial % 3 != 2;
    ExplorationEngine engine(std::move(w),
                             with_predictor ? &predictor : nullptr, options);
    if (with_predictor) engine.RefreshPredictions(/*force=*/true);
    // Every fourth trial freezes at an overshot ledger (the documented
    // one-epoch overshoot): the frozen snapshot must serve verified-only,
    // identically in legacy, kernel, and batched form.
    if (trial % 4 == 1) {
      core::ServingObservation overshoot;
      overshoot.seq = engine.AcquireServingIndices(1);
      overshoot.latency = 1.0;
      overshoot.exploratory = true;
      overshoot.regret_delta = 60.0;
      engine.Report(overshoot);
      engine.Drain();
    }
    engine.Publish();
    CheckSnapshotDifferential(engine, "base snapshot",
                              &snapshots_with_predictions);

    // Touch a few rows and republish: the next snapshot serves them from
    // chunks folded at drain time rather than rebuilt, which is the other
    // row-maintenance path.
    engine.Observe(1 % n, 1 % k, 0.42);
    engine.Observe(n - 1, k - 1, 0.17);
    engine.Publish();
    CheckSnapshotDifferential(engine, "folded snapshot",
                              &snapshots_with_predictions);
  }
  // The sweep must cover the model step, not just the fallback: a
  // substantial share of trials run with a fitted predictor.
  EXPECT_GE(snapshots_with_predictions, 20);
}

// ---------------------------------------------------------------------------
// The two fixed divergences
// ---------------------------------------------------------------------------

// Divergence #1 (fixed): the pre-kernel synchronous serving path returned
// the verified hint whenever RefreshPredictions() failed, silently skipping
// the random-fallback bootstrap the snapshot path takes, so with no
// predictor at all it could never explore. A one-shard tier with no
// predictor, serving in one-serving epochs, must bootstrap through the
// fallback.
TEST(DecisionKernelDivergences, TierBootstrapsWithoutPredictions) {
  WorkloadMatrix w(8, 8);
  for (int q = 0; q < 8; ++q) w.Observe(q, 0, 0.5);  // finite baselines
  core::ShardedTierOptions topt;
  topt.online.epsilon = 1.0;  // every serving is exploration-eligible
  topt.online.min_predicted_ratio = 0.2;
  topt.online.regret_budget_seconds = 1e9;
  topt.online.max_baseline_budget_fraction = 1.0;
  topt.online.random_fallback = true;
  topt.online.publish_every = 1;
  topt.online.seed = 99;
  core::ShardedServingTier tier(w, /*predictors=*/{}, topt);
  ASSERT_FALSE(tier.shard_engine(0).snapshot()->has_predictions());
  linalg::Matrix truth(8, 8);
  for (size_t i = 0; i < truth.size(); ++i) truth.data()[i] = 0.5;
  std::vector<int> hints;
  tests::ServeTruth(tier, truth, 64, /*epoch=*/1, /*threads=*/1, &hints);
  int explored = 0;
  for (const int hint : hints) explored += hint != 0;
  // 64 eligible servings over rows with 7 unobserved hints each: the
  // fallback must fire essentially always (a hint-0 pick is impossible
  // once hint 0 is complete — the pick runs over *unobserved* cells).
  EXPECT_GT(explored, 0)
      << "the tier bails out instead of bootstrapping when no predictions "
         "exist";
  EXPECT_GT(tier.explorations(), 0);
}

// Divergence #2 (fixed): the risk gate now runs on a remaining budget
// clamped at zero everywhere. At an overshot ledger (regret past the
// budget — reachable through the documented one-epoch overshoot) the
// snapshot path must be frozen outright: no exploration, no gate draws,
// remaining budget reported as zero — rather than an unclamped negative
// remainder flipping the `baseline > fraction * remaining` comparison.
TEST(DecisionKernelDivergences, OvershotLedgerFreezesSnapshotAndKernel) {
  WorkloadMatrix w(4, 6);
  for (int q = 0; q < 4; ++q) w.Observe(q, 0, 2.0);
  OnlineExplorationOptions opt;
  opt.epsilon = 1.0;
  opt.regret_budget_seconds = 10.0;
  opt.max_baseline_budget_fraction = 0.125;
  opt.random_fallback = true;
  opt.seed = 7;
  core::EngineOptions eopt;
  eopt.online = opt;
  ExplorationEngine engine(std::move(w), nullptr, eopt);
  // Overshoot the ledger in one charge: 13.5s of regret against a 10s
  // budget, as a single slow exploratory serving would.
  core::ServingObservation slow;
  slow.seq = engine.AcquireServingIndices(1);
  slow.hint = 1;
  slow.latency = 15.5;
  slow.exploratory = true;
  slow.regret_delta = 13.5;
  engine.Report(slow);
  engine.Drain();
  ASSERT_GT(engine.regret_spent(), opt.regret_budget_seconds);
  EXPECT_EQ(engine.remaining_regret_budget(), 0.0);
  engine.Publish();
  std::shared_ptr<const core::ServingSnapshot> snap = engine.snapshot();
  ASSERT_TRUE(snap->budget_exhausted());
  for (uint64_t s = 0; s < 40; ++s) {
    EXPECT_EQ(snap->ChooseHint(static_cast<int>(s % 4), s), 0)
        << "snapshot path explored at an overshot ledger";
  }
  // The kernel's clamp directly: even if a caller hands it an overshot
  // ledger with the exhaustion check somehow bypassed, the risk gate must
  // treat the remainder as zero (blocking every finite baseline), not as
  // a negative number that un-blocks arbitrarily slow baselines.
  core::DecisionInputs in;
  const CellState states[3] = {CellState::kComplete, CellState::kUnobserved,
                               CellState::kUnobserved};
  in.verified_best = 0;
  in.verified_latency = 2.0;
  in.states = states;
  in.num_hints = 3;
  in.regret_spent = 9.999999;  // remaining ~1e-6: every baseline blocked
  const int decided = core::DecideServingHint(
      opt, in, [] { return true; },
      [] {
        ADD_FAILURE() << "risk gate failed to block: scan was invoked";
        return core::HintScan{};
      },
      [](uint64_t) -> uint64_t {
        ADD_FAILURE() << "risk gate failed to block: pick was drawn";
        return 0;
      });
  EXPECT_EQ(decided, 0);
}

}  // namespace
}  // namespace limeqo
