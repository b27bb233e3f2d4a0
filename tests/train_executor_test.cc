// Shared-train-plane tests. The centerpiece is the differential twin
// property: a sharded tier driven by the shared TrainExecutor produces a
// merged serving trace, matrices, predictions, and ledgers *bitwise
// identical* to the thread-per-shard tier over random op schedules
// (epochs x growth) at every shard count x
// serving-thread count — the executor may only change when train steps
// run and on which thread, never what they compute. Around it: executor
// scheduling smoke (free-running drains everything, idle shards park),
// the prioritized SyncEpochAll barrier vs the serial loop, and the
// manifest's per-row servings roundtrip.
// Seeded and shrinkable via tests/proptest.h (LIMEQO_PROPTEST_SEED).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/als.h"
#include "core/engine.h"
#include "core/predictor.h"
#include "core/shard_router.h"
#include "core/train_executor.h"
#include "core/workload_matrix.h"
#include "proptest.h"
#include "scenarios/scenario.h"
#include "scenarios/synthetic_backend.h"

namespace limeqo::scenarios {
namespace {

// One recorded serving of the merged trace (indexed by global seq).
struct TraceEntry {
  int query = -1;
  int hint = -1;
  double latency = 0.0;
};

// The op schedule is generated *before* either tier runs, so both twins
// replay exactly the same operations.
struct Round {
  uint64_t servings = 0;
  bool grow = false;
};

core::ShardedTierOptions TierOptions(int shards, bool shared,
                                     proptest::Params& p) {
  core::ShardedTierOptions options;
  options.num_shards = shards;
  options.online.epsilon = 0.2;
  options.online.min_predicted_ratio = 0.05;
  options.online.regret_budget_seconds = 25.0;
  options.online.refresh_every = static_cast<int>(p.Int(6, 16));
  options.online.publish_every = static_cast<int>(p.Int(3, 8));
  options.online.seed = static_cast<uint64_t>(p.Int(1, 1 << 30));
  options.shared_train_plane = shared;
  options.executor.workers = 2;
  return options;
}

// Runs the op schedule against a fresh tier and returns its merged trace;
// the tier itself is returned through *tier_out for state comparison.
std::vector<TraceEntry> RunSchedule(
    const core::WorkloadMatrix& matrix, const SyntheticBackend& backend,
    const core::AlsOptions& als, const core::ShardedTierOptions& options,
    const std::vector<Round>& rounds, int threads,
    std::vector<std::unique_ptr<core::Predictor>>* preds_out,
    std::unique_ptr<core::ShardedServingTier>* tier_out) {
  preds_out->clear();
  std::vector<core::Predictor*> pred_ptrs;
  for (int i = 0; i < options.num_shards; ++i) {
    preds_out->push_back(std::make_unique<core::CompleterPredictor>(
        std::make_unique<core::AlsCompleter>(als)));
    pred_ptrs.push_back(preds_out->back().get());
  }
  auto tier = std::make_unique<core::ShardedServingTier>(matrix, pred_ptrs,
                                                         options);
  tier->RefreshAll(/*force=*/true);
  tier->PublishAll();

  uint64_t total = 0;
  for (const Round& r : rounds) total += r.servings;
  std::vector<TraceEntry> trace(static_cast<size_t>(total));

  const auto resolve = [&backend](int q, int chosen, uint64_t seq) {
    core::ServedOutcome out;
    out.hint = chosen;
    out.latency = backend.ServeLatency(q, chosen, seq);
    return out;
  };
  const auto record = [&trace](const core::TierServing& s) {
    TraceEntry& e = trace[static_cast<size_t>(s.seq)];
    e.query = s.query;
    e.hint = s.observation.hint;
    e.latency = s.observation.latency;
  };

  uint64_t served = 0;
  for (const Round& r : rounds) {
    tier->ServeSchedule(served, served + r.servings, threads, resolve,
                        record);
    served += r.servings;
    if (r.grow) {
      const int g = tier->AppendQueries(1);
      tier->shard_engine(tier->ShardOfRow(g))
          .Observe(tier->LocalRowOf(g), 0, backend.TrueLatency(g, 0));
      tier->RefreshAll(true);
      tier->PublishAll();
    }
  }
  *tier_out = std::move(tier);
  return trace;
}

bool TiersMatchBitwise(const core::ShardedServingTier& a,
                       const core::ShardedServingTier& b) {
  if (a.num_queries() != b.num_queries() ||
      a.num_shards() != b.num_shards()) {
    std::fprintf(stderr, "tier shapes diverged\n");
    return false;
  }
  if (a.regret_spent() != b.regret_spent() ||
      a.explorations() != b.explorations() ||
      a.scheduled_servings() != b.scheduled_servings()) {
    std::fprintf(stderr, "fleet ledgers diverged: (%.17g, %d, %llu) vs "
                 "(%.17g, %d, %llu)\n",
                 a.regret_spent(), a.explorations(),
                 static_cast<unsigned long long>(a.scheduled_servings()),
                 b.regret_spent(), b.explorations(),
                 static_cast<unsigned long long>(b.scheduled_servings()));
    return false;
  }
  for (int row = 0; row < a.num_queries(); ++row) {
    if (a.ShardOfRow(row) != b.ShardOfRow(row) ||
        a.LocalRowOf(row) != b.LocalRowOf(row)) {
      std::fprintf(stderr, "row %d placement diverged\n", row);
      return false;
    }
  }
  for (int s = 0; s < a.num_shards(); ++s) {
    const core::ExplorationEngine& ea = a.shard_engine(s);
    const core::ExplorationEngine& eb = b.shard_engine(s);
    const core::WorkloadMatrix& ma = ea.matrix();
    const core::WorkloadMatrix& mb = eb.matrix();
    if (ma.num_queries() != mb.num_queries()) {
      std::fprintf(stderr, "shard %d row count diverged\n", s);
      return false;
    }
    for (int q = 0; q < ma.num_queries(); ++q) {
      for (int h = 0; h < ma.num_hints(); ++h) {
        if (ma.state(q, h) != mb.state(q, h) ||
            ma.values()(q, h) != mb.values()(q, h)) {
          std::fprintf(stderr, "shard %d cell (%d,%d) diverged\n", s, q, h);
          return false;
        }
      }
      if (ea.row_servings(q) != eb.row_servings(q)) {
        std::fprintf(stderr, "shard %d row %d servings diverged\n", s, q);
        return false;
      }
    }
    if (ea.have_predictions() != eb.have_predictions()) {
      std::fprintf(stderr, "shard %d refit availability diverged\n", s);
      return false;
    }
    if (ea.have_predictions()) {
      const linalg::Matrix& pa = ea.predictions();
      const linalg::Matrix& pb = eb.predictions();
      for (size_t i = 0; i < pa.rows(); ++i) {
        for (size_t j = 0; j < pa.cols(); ++j) {
          if (pa(i, j) != pb(i, j)) {
            std::fprintf(stderr,
                         "shard %d prediction (%zu,%zu) diverged: %.17g vs "
                         "%.17g\n",
                         s, i, j, pa(i, j), pb(i, j));
            return false;
          }
        }
      }
    }
  }
  return true;
}

TEST(TrainExecutorTest, SharedPlaneIsBitwiseIdenticalToPerShardPlane) {
  proptest::Config config;
  config.runs = 6;
  proptest::Check(
      "shared-executor tier == thread-per-shard tier, bitwise, at every "
      "shard x thread count",
      [](proptest::Params& p) {
        const int shard_grid[] = {1, 2, 4};
        const int shards = shard_grid[p.Int(0, 2)];
        const int hints = static_cast<int>(p.Int(3, 6));
        const int rows = static_cast<int>(p.Int(8, 16));
        ScenarioSpec spec;
        spec.name = "shared-train-prop";
        spec.num_queries = rows + 4;
        spec.num_hints = hints;
        spec.latent_rank = static_cast<int>(p.Int(1, 3));
        spec.noise_sigma = p.Double(0.0, 0.2);
        spec.seed = static_cast<uint64_t>(p.Int(1, 1 << 30));
        const SyntheticBackend backend(spec);

        core::WorkloadMatrix matrix(rows, hints);
        for (int q = 0; q < rows; ++q) {
          matrix.Observe(q, 0, backend.TrueLatency(q, 0));
          if (hints > 1 && p.Bool(0.4)) {
            const int h = 1 + static_cast<int>(p.Int(0, hints - 2));
            matrix.ObserveCensored(q, h, 0.5 * backend.TrueLatency(q, h));
          }
        }

        core::AlsOptions als;
        als.rank = static_cast<int>(p.Int(1, 2));
        als.iterations = 8;
        als.seed = static_cast<uint64_t>(p.Int(1, 1 << 30));

        // One option draw used for both twins: identical in everything
        // except who drives the train plane.
        core::ShardedTierOptions base = TierOptions(shards, false, p);
        core::ShardedTierOptions shared = base;
        shared.shared_train_plane = true;

        // The op schedule, fixed up front.
        std::vector<Round> rounds(static_cast<size_t>(p.Int(2, 4)));
        int growths = 0;
        for (Round& r : rounds) {
          r.servings = static_cast<uint64_t>(p.Int(8, 30));
          r.grow = growths < 4 && p.Bool(0.3);
          if (r.grow) ++growths;
        }

        std::vector<TraceEntry> reference;
        for (int threads : {1, 2, 4}) {
          std::vector<std::unique_ptr<core::Predictor>> preds_a, preds_b;
          std::unique_ptr<core::ShardedServingTier> tier_a, tier_b;
          const std::vector<TraceEntry> trace_a = RunSchedule(
              matrix, backend, als, base, rounds, threads, &preds_a,
              &tier_a);
          const std::vector<TraceEntry> trace_b = RunSchedule(
              matrix, backend, als, shared, rounds, threads, &preds_b,
              &tier_b);
          if (trace_a.size() != trace_b.size()) return false;
          for (size_t i = 0; i < trace_a.size(); ++i) {
            if (trace_a[i].query != trace_b[i].query ||
                trace_a[i].hint != trace_b[i].hint ||
                trace_a[i].latency != trace_b[i].latency) {
              std::fprintf(stderr,
                           "trace diverged at seq %zu (threads=%d): "
                           "(%d,%d,%.17g) vs (%d,%d,%.17g)\n",
                           i, threads, trace_a[i].query, trace_a[i].hint,
                           trace_a[i].latency, trace_b[i].query,
                           trace_b[i].hint, trace_b[i].latency);
              return false;
            }
          }
          if (!TiersMatchBitwise(*tier_a, *tier_b)) return false;
          // Thread-count invariance holds through the executor too: every
          // (threads, plane) run yields the one reference trace.
          if (reference.empty()) {
            reference = trace_a;
          } else {
            for (size_t i = 0; i < reference.size(); ++i) {
              if (reference[i].hint != trace_b[i].hint ||
                  reference[i].latency != trace_b[i].latency) {
                std::fprintf(stderr,
                             "thread-count variance at seq %zu "
                             "(threads=%d)\n",
                             i, threads);
                return false;
              }
            }
          }
        }
        return true;
      },
      config);
}

// Free-running smoke: the executor drains every reported observation,
// publishes, and stops cleanly; an idle shard parks (its queue drained,
// no further steps burned on it) while loaded shards keep their steps.
TEST(TrainExecutorTest, FreeRunningExecutorDrainsAndParksIdleShards) {
  constexpr int kRows = 8;
  constexpr int kHints = 4;
  constexpr uint64_t kServings = 3000;
  std::vector<std::unique_ptr<core::ExplorationEngine>> engines;
  std::vector<core::ExplorationEngine*> fleet;
  for (int i = 0; i < 3; ++i) {
    core::WorkloadMatrix m(kRows, kHints);
    for (int q = 0; q < kRows; ++q) m.Observe(q, 0, 1.0 + q);
    engines.push_back(std::make_unique<core::ExplorationEngine>(
        std::move(m), nullptr));
    engines.back()->Publish();
    fleet.push_back(engines.back().get());
  }

  core::TrainExecutorOptions options;
  options.workers = 2;
  core::TrainExecutor executor(options);
  executor.Start(fleet);
  EXPECT_TRUE(executor.running());

  // Shards 0 and 1 get traffic; shard 2 stays idle (parks after its first
  // no-progress probe).
  std::vector<std::thread> servers;
  for (int s = 0; s < 2; ++s) {
    servers.emplace_back([&fleet, s] {
      core::ExplorationEngine& e = *fleet[s];
      std::shared_ptr<const core::ServingSnapshot> snap = e.snapshot();
      for (uint64_t i = 0; i < kServings; ++i) {
        if (e.snapshot_version() != snap->version()) snap = e.snapshot();
        const uint64_t seq = e.AcquireServingIndex();
        const int q = static_cast<int>(seq % kRows);
        const int hint = snap->ChooseHint(q, seq);
        e.Report(snap->MakeObservation(seq, q, hint, 0.5 + q));
      }
    });
  }
  for (std::thread& t : servers) t.join();
  // The servers can finish before a loaded box schedules any worker; the
  // undrained backlog guarantees a step, so wait for one (bounded) rather
  // than letting Stop's serial finish race the workers.
  for (int waited_ms = 0;
       executor.steps_executed() == 0 && waited_ms < 10000; ++waited_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  executor.Stop();
  EXPECT_FALSE(executor.running());
  EXPECT_GT(executor.steps_executed(), 0u);

  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(fleet[s]->drained_servings(), kServings) << "shard " << s;
    EXPECT_EQ(fleet[s]->queue_backlog(), 0u) << "shard " << s;
  }
  EXPECT_EQ(fleet[2]->drained_servings(), 0u);
}

// The prioritized parallel epoch barrier equals the serial SyncEpoch loop
// bitwise: disjoint shards, chunk-count-invariant kernels, bitwise-neutral
// arena and budget.
TEST(TrainExecutorTest, SyncEpochAllMatchesSerialLoopBitwise) {
  constexpr int kRows = 10;
  constexpr int kHints = 5;
  core::AlsOptions als;
  als.rank = 2;
  als.iterations = 8;
  als.seed = 91;

  const auto build = [&als](std::vector<std::unique_ptr<core::Predictor>>*
                                preds,
                            std::vector<std::unique_ptr<
                                core::ExplorationEngine>>* engines) {
    for (int i = 0; i < 3; ++i) {
      core::WorkloadMatrix m(kRows, kHints);
      for (int q = 0; q < kRows; ++q) {
        m.Observe(q, 0, 1.0 + q);
        m.Observe(q, 1 + (q % (kHints - 1)), 0.5 + 0.1 * q);
      }
      preds->push_back(std::make_unique<core::CompleterPredictor>(
          std::make_unique<core::AlsCompleter>(als)));
      engines->push_back(std::make_unique<core::ExplorationEngine>(
          std::move(m), preds->back().get()));
      core::ExplorationEngine& e = *engines->back();
      e.Publish();
      // Uneven queued traffic so the priority sort has something to sort.
      auto snap = e.snapshot();
      const int reports = 4 + 9 * i;
      for (int r = 0; r < reports; ++r) {
        const uint64_t seq = e.AcquireServingIndex();
        const int q = static_cast<int>(seq % kRows);
        e.Report(snap->MakeObservation(seq, q, 1 + (r % (kHints - 1)),
                                       0.25 + 0.01 * r));
      }
    }
  };

  std::vector<std::unique_ptr<core::Predictor>> preds_a, preds_b;
  std::vector<std::unique_ptr<core::ExplorationEngine>> engines_a, engines_b;
  build(&preds_a, &engines_a);
  build(&preds_b, &engines_b);

  core::TrainExecutorOptions options;
  options.workers = 3;
  core::TrainExecutor executor(options);
  std::vector<core::ExplorationEngine*> fleet;
  for (auto& e : engines_a) fleet.push_back(e.get());
  executor.SyncEpochAll(fleet);
  for (auto& e : engines_b) e->SyncEpoch();

  for (size_t i = 0; i < engines_a.size(); ++i) {
    const core::ExplorationEngine& ea = *engines_a[i];
    const core::ExplorationEngine& eb = *engines_b[i];
    EXPECT_EQ(ea.drained_servings(), eb.drained_servings());
    ASSERT_EQ(ea.have_predictions(), eb.have_predictions());
    if (!ea.have_predictions()) continue;
    const linalg::Matrix& pa = ea.predictions();
    const linalg::Matrix& pb = eb.predictions();
    for (size_t r = 0; r < pa.rows(); ++r) {
      for (size_t c = 0; c < pa.cols(); ++c) {
        ASSERT_EQ(pa(r, c), pb(r, c))
            << "shard " << i << " prediction (" << r << "," << c << ")";
      }
    }
  }
}

// Manifest roundtrip: per-row servings survive SaveCheckpoints /
// RestoreFromDirectory, and the fleet ledgers come back through the shard
// checkpoints.
TEST(TrainExecutorTest, ManifestRoundTripsRowServings) {
  constexpr int kRows = 9;
  constexpr int kHints = 4;
  core::WorkloadMatrix matrix(kRows, kHints);
  for (int q = 0; q < kRows; ++q) matrix.Observe(q, 0, 1.0 + q);

  core::ShardedTierOptions options;
  options.num_shards = 3;
  options.online.regret_budget_seconds = 100.0;
  core::ShardedServingTier tier(matrix, {}, options);

  for (int row = 0; row < kRows; ++row) {
    const int s = tier.ShardOfRow(row);
    const int l = tier.LocalRowOf(row);
    core::ExplorationEngine& engine = tier.shard_engine(s);
    for (int r = 0; r < 1 + row; ++r) {
      core::ServingObservation obs;
      obs.seq = engine.AcquireServingIndices(1);
      obs.query = l;
      obs.latency = 1.0;
      obs.exploratory = true;
      obs.regret_delta = 0.125;
      engine.Report(obs);
    }
    engine.Drain();
  }

  static std::atomic<int> counter{0};
  const std::string dir = ::testing::TempDir() + "limeqo_servings_rt_" +
                          std::to_string(counter.fetch_add(1));
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(tier.SaveCheckpoints(dir).ok());

  auto restored =
      core::ShardedServingTier::RestoreFromDirectory(dir, {}, options);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  const core::ShardedServingTier& twin = **restored;
  for (int row = 0; row < kRows; ++row) {
    const core::ExplorationEngine& ea =
        tier.shard_engine(tier.ShardOfRow(row));
    const core::ExplorationEngine& eb =
        twin.shard_engine(twin.ShardOfRow(row));
    EXPECT_EQ(ea.row_servings(tier.LocalRowOf(row)),
              eb.row_servings(twin.LocalRowOf(row)))
        << "row " << row;
  }
  EXPECT_EQ(tier.regret_spent(), twin.regret_spent());
  EXPECT_EQ(tier.explorations(), twin.explorations());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace limeqo::scenarios
