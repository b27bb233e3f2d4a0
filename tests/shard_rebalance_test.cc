// Rebalance/migration property test for the sharded serving tier: under
// random serving traffic and random migration schedules, a migrated row
// carries its observations, censoring state, and ledger charges bitwise;
// no serving is double-counted or lost across the fleet; and the
// migration-touched shards' post-migration refits are bitwise equal to a
// never-migrated twin fitted cold on the same cells. Seeded and
// shrinkable via tests/proptest.h (LIMEQO_PROPTEST_SEED replays).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/als.h"
#include "core/engine.h"
#include "core/predictor.h"
#include "core/shard_router.h"
#include "core/workload_matrix.h"
#include "proptest.h"
#include "scenarios/scenario.h"
#include "scenarios/synthetic_backend.h"

namespace limeqo::scenarios {
namespace {

// The cell payload + ledger slice a migration must move bitwise.
struct RowCapture {
  std::vector<core::CellState> states;
  std::vector<double> values;
  double regret = 0.0;
  int explorations = 0;
  uint64_t servings = 0;
};

RowCapture CaptureRow(const core::ExplorationEngine& e, int local) {
  RowCapture cap;
  const core::WorkloadMatrix& m = e.matrix();
  for (int h = 0; h < m.num_hints(); ++h) {
    cap.states.push_back(m.state(local, h));
    cap.values.push_back(m.values()(local, h));
  }
  cap.regret = e.row_regret(local);
  cap.explorations = e.row_explorations(local);
  cap.servings = e.row_servings(local);
  return cap;
}

bool RowMatches(const core::ExplorationEngine& e, int local,
                const RowCapture& cap) {
  const core::WorkloadMatrix& m = e.matrix();
  for (int h = 0; h < m.num_hints(); ++h) {
    if (m.state(local, h) != cap.states[h] ||
        m.values()(local, h) != cap.values[h]) {
      std::fprintf(stderr, "cell (%d,%d) payload diverged after migration\n",
                   local, h);
      return false;
    }
  }
  if (e.row_regret(local) != cap.regret ||
      e.row_explorations(local) != cap.explorations) {
    std::fprintf(stderr,
                 "ledger slice diverged: (%.17g, %d) vs (%.17g, %d)\n",
                 e.row_regret(local), e.row_explorations(local), cap.regret,
                 cap.explorations);
    return false;
  }
  if (e.row_servings(local) != cap.servings) {
    std::fprintf(stderr, "servings count diverged: %llu vs %llu\n",
                 static_cast<unsigned long long>(e.row_servings(local)),
                 static_cast<unsigned long long>(cap.servings));
    return false;
  }
  return true;
}

// A never-migrated twin of one shard: the same cells replayed into a fresh
// matrix (complete observations supersede censored ones exactly as the
// migration replay does).
core::WorkloadMatrix TwinMatrix(const core::ExplorationEngine& e) {
  const core::WorkloadMatrix& src = e.matrix();
  core::WorkloadMatrix out(src.num_queries(), src.num_hints());
  for (int q = 0; q < src.num_queries(); ++q) {
    for (int h = 0; h < src.num_hints(); ++h) {
      switch (src.state(q, h)) {
        case core::CellState::kComplete:
          out.Observe(q, h, src.values()(q, h));
          break;
        case core::CellState::kCensored:
          out.ObserveCensored(q, h, src.timeout(q, h));
          break;
        case core::CellState::kUnobserved:
          break;
      }
    }
  }
  return out;
}

// Cold-refits a fresh engine on the twin matrix and compares its
// predictions bitwise to the (just force-refitted) live shard.
bool RefitMatchesTwin(const core::ExplorationEngine& live,
                      const core::AlsOptions& als,
                      const core::EngineOptions& opts, int shard) {
  if (live.matrix().num_queries() == 0) return true;
  auto completer = std::make_unique<core::AlsCompleter>(als);
  core::CompleterPredictor pred(std::move(completer));
  core::ExplorationEngine twin(TwinMatrix(live), &pred, opts);
  twin.RefreshPredictions(/*force=*/true);
  if (live.have_predictions() != twin.have_predictions()) {
    std::fprintf(stderr, "shard %d: refit availability diverged\n", shard);
    return false;
  }
  if (!live.have_predictions()) return true;
  const linalg::Matrix& a = live.predictions();
  const linalg::Matrix& b = twin.predictions();
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      if (a(i, j) != b(i, j)) {
        std::fprintf(stderr,
                     "shard %d: prediction (%zu,%zu) diverged from the "
                     "never-migrated twin: %.17g vs %.17g\n",
                     shard, i, j, a(i, j), b(i, j));
        return false;
      }
    }
  }
  return true;
}

TEST(ShardRebalanceTest, MigrationMovesRowsBitwiseAndLosesNothing) {
  proptest::Config config;
  config.runs = 8;
  proptest::Check(
      "migrated rows carry payload+ledger bitwise; fleet loses nothing",
      [](proptest::Params& p) {
        const int hints = static_cast<int>(p.Int(3, 6));
        const int rows = static_cast<int>(p.Int(8, 16));
        const int shards = static_cast<int>(p.Int(2, 4));
        const int growth = static_cast<int>(p.Int(0, 3));
        ScenarioSpec spec;
        spec.name = "rebalance-prop";
        spec.num_queries = rows + growth;
        spec.num_hints = hints;
        spec.latent_rank = static_cast<int>(p.Int(1, 3));
        spec.noise_sigma = p.Double(0.0, 0.2);
        spec.seed = static_cast<uint64_t>(p.Int(1, 1 << 30));
        const SyntheticBackend backend(spec);

        core::WorkloadMatrix matrix(rows, hints);
        for (int q = 0; q < rows; ++q) {
          matrix.Observe(q, 0, backend.TrueLatency(q, 0));
          // Sprinkle censored cells so migration has censoring state to
          // carry (a timeout below the true latency stays censored).
          if (hints > 1 && p.Bool(0.4)) {
            const int h = 1 + static_cast<int>(p.Int(0, hints - 2));
            matrix.ObserveCensored(q, h, 0.5 * backend.TrueLatency(q, h));
          }
        }

        core::AlsOptions als;
        als.rank = static_cast<int>(p.Int(1, 2));
        als.iterations = 8;
        als.seed = static_cast<uint64_t>(p.Int(1, 1 << 30));

        core::ShardedTierOptions options;
        options.num_shards = shards;
        options.online.epsilon = p.Double(0.1, 0.4);
        options.online.min_predicted_ratio = 0.05;
        options.online.regret_budget_seconds = p.Double(5.0, 50.0);
        options.online.refresh_every = static_cast<int>(p.Int(6, 16));
        options.online.publish_every = static_cast<int>(p.Int(3, 8));
        options.online.seed = static_cast<uint64_t>(p.Int(1, 1 << 30));

        std::vector<std::unique_ptr<core::Predictor>> preds;
        std::vector<core::Predictor*> pred_ptrs;
        for (int i = 0; i < shards; ++i) {
          preds.push_back(std::make_unique<core::CompleterPredictor>(
              std::make_unique<core::AlsCompleter>(als)));
          pred_ptrs.push_back(preds.back().get());
        }
        core::ShardedServingTier tier(matrix, pred_ptrs, options);
        tier.RefreshAll(/*force=*/true);
        tier.PublishAll();

        const auto resolve = [&backend](int q, int chosen, uint64_t seq) {
          core::ServedOutcome out;
          out.hint = chosen;
          out.latency = backend.ServeLatency(q, chosen, seq);
          return out;
        };

        uint64_t served = 0;
        int grown = 0;
        const int rounds = static_cast<int>(p.Int(2, 5));
        for (int round = 0; round < rounds; ++round) {
          const uint64_t cnt = static_cast<uint64_t>(p.Int(8, 30));
          const int threads = static_cast<int>(p.Int(1, 3));
          tier.ServeSchedule(served, served + cnt, threads, resolve);
          served += cnt;

          // Occasional growth: appended rows route by the same hash and
          // get their default hint observed (driver bring-up shape).
          if (grown < growth && p.Bool(0.4)) {
            const int g = tier.AppendQueries(1);
            ++grown;
            tier.shard_engine(tier.ShardOfRow(g))
                .Observe(tier.LocalRowOf(g), 0, backend.TrueLatency(g, 0));
            tier.RefreshAll(true);
            tier.PublishAll();
          }

          // A migration (targeted, or the hot-shard rebalancer) with the
          // bitwise payload capture around it.
          const int g = static_cast<int>(p.Int(0, tier.num_queries() - 1));
          const int dest = static_cast<int>(p.Int(0, shards - 1));
          const int src_shard = tier.ShardOfRow(g);
          const RowCapture cap =
              CaptureRow(tier.shard_engine(src_shard), tier.LocalRowOf(g));
          const double fleet_regret = tier.regret_spent();
          const int fleet_expl = tier.explorations();
          const bool used_rebalancer = p.Bool(0.3);
          if (used_rebalancer) {
            tier.RebalanceHotShards();
          } else {
            tier.MigrateRow(g, dest);
          }
          // Wherever row g lives now, its payload and ledger slice moved
          // bitwise, and the fleet totals did not drift.
          if (!RowMatches(tier.shard_engine(tier.ShardOfRow(g)),
                          tier.LocalRowOf(g), cap)) {
            return false;
          }
          if (std::abs(tier.regret_spent() - fleet_regret) > 1e-9) {
            std::fprintf(stderr, "fleet regret drifted: %.17g -> %.17g\n",
                         fleet_regret, tier.regret_spent());
            return false;
          }
          if (tier.explorations() != fleet_expl) {
            std::fprintf(stderr, "fleet explorations drifted: %d -> %d\n",
                         fleet_expl, tier.explorations());
            return false;
          }
          // The router maps stay a bijection.
          for (int row = 0; row < tier.num_queries(); ++row) {
            if (tier.GlobalRowOf(tier.ShardOfRow(row),
                                 tier.LocalRowOf(row)) != row) {
              std::fprintf(stderr, "router maps broke at row %d\n", row);
              return false;
            }
          }
          // Post-migration refits on the touched shards equal the
          // never-migrated twin. Migration invalidates the factor model on
          // the source and destination, so their next refit is cold on
          // exactly the replayed cells — only those shards are comparable
          // (the rebalancer doesn't report which shards it touched, and an
          // untouched shard may warm-start).
          if (!used_rebalancer && src_shard != dest) {
            tier.RefreshAll(true);
            tier.PublishAll();
            core::EngineOptions eopts = options.engine;
            eopts.online = options.online;
            for (int touched : {src_shard, dest}) {
              if (!RefitMatchesTwin(tier.shard_engine(touched), als, eopts,
                                    touched)) {
                return false;
              }
            }
          }
        }

        // No serving lost or double-counted across the fleet.
        uint64_t drained = 0;
        for (int i = 0; i < shards; ++i) {
          drained += tier.shard_engine(i).drained_servings();
        }
        if (drained != served || tier.scheduled_servings() != served) {
          std::fprintf(
              stderr,
              "serving accounting: %llu drained / %llu scheduled of %llu\n",
              static_cast<unsigned long long>(drained),
              static_cast<unsigned long long>(tier.scheduled_servings()),
              static_cast<unsigned long long>(served));
          return false;
        }
        return true;
      },
      config);
}

}  // namespace
}  // namespace limeqo::scenarios
