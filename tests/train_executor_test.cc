// Train-plane tests. Every ShardedServingTier trains through one
// TrainExecutor; the centerpiece pins that plane against frozen outputs of
// the thread-per-shard plane it replaced: twelve fixed op schedules
// (epochs x growth, over 1/2/4 shards) must reproduce that plane's merged
// serving trace, matrix, per-row serving counts, predictions, and ledgers
// bitwise at 1, 2 and 4 serving threads. Around it: executor scheduling
// smoke (free-running drains everything, idle shards park), the
// prioritized SyncEpochAll barrier vs the serial loop, and the manifest's
// per-row servings roundtrip.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/als.h"
#include "core/engine.h"
#include "core/predictor.h"
#include "core/shard_router.h"
#include "core/train_executor.h"
#include "core/workload_matrix.h"
#include "scenarios/scenario.h"
#include "scenarios/simulation.h"
#include "scenarios/synthetic_backend.h"
#include "trace_hash.h"

namespace limeqo::scenarios {
namespace {

// One epoch of the op schedule: serve `servings` through ServeSchedule,
// then optionally append one query row.
struct Round {
  uint64_t servings = 0;
  bool grow = false;
};

// A fixed op schedule over a synthetic world. Everything but the shard
// count is drawn from `seed`, so (seed, shards) reproduces the case.
struct PlaneCase {
  PlaneCase(int rows, int hints) : matrix(rows, hints) {}
  ScenarioSpec spec;
  core::WorkloadMatrix matrix;
  core::AlsOptions als;
  core::ShardedTierOptions options;
  std::vector<Round> rounds;
};

PlaneCase BuildCase(uint64_t seed, int shards) {
  Rng rng(seed);
  const int hints = static_cast<int>(rng.UniformInt(3, 6));
  const int rows = static_cast<int>(rng.UniformInt(8, 16));
  PlaneCase c(rows, hints);
  c.spec.name = "train-plane-golden";
  c.spec.num_queries = rows + 4;
  c.spec.num_hints = hints;
  c.spec.latent_rank = static_cast<int>(rng.UniformInt(1, 3));
  c.spec.noise_sigma = rng.Uniform(0.0, 0.2);
  c.spec.seed = rng.NextUint64();
  const SyntheticBackend backend(c.spec);

  for (int q = 0; q < rows; ++q) {
    c.matrix.Observe(q, 0, backend.TrueLatency(q, 0));
    if (rng.Bernoulli(0.4)) {
      const int h = static_cast<int>(rng.UniformInt(1, hints - 1));
      c.matrix.ObserveCensored(q, h, 0.5 * backend.TrueLatency(q, h));
    }
  }

  c.als.rank = static_cast<int>(rng.UniformInt(1, 2));
  c.als.iterations = 8;
  c.als.seed = rng.NextUint64();

  c.options.num_shards = shards;
  c.options.online.epsilon = 0.2;
  c.options.online.min_predicted_ratio = 0.05;
  c.options.online.regret_budget_seconds = 25.0;
  c.options.online.refresh_every = static_cast<int>(rng.UniformInt(6, 16));
  c.options.online.publish_every = static_cast<int>(rng.UniformInt(3, 8));
  c.options.online.seed = rng.NextUint64();
  // Two workers: the epoch barrier spreads over a transient helper thread.
  c.options.executor.workers = 2;

  c.rounds.resize(static_cast<size_t>(rng.UniformInt(2, 4)));
  for (Round& r : c.rounds) {
    r.servings = static_cast<uint64_t>(rng.UniformInt(8, 30));
    r.grow = rng.Bernoulli(0.5);
  }
  return c;
}

// What a run of a case leaves behind, reduced to comparable values.
struct PlaneFingerprint {
  uint64_t trace_hash = 0;       // tests::TraceHash of the merged trace
  uint64_t matrix_hash = 0;      // merged cells + per-row serving counts
  uint64_t prediction_hash = 0;  // every shard's prediction matrix
  double regret_spent = 0.0;
  int explorations = 0;
  int rows = 0;                  // global rows after growth
};

// Serves the case's schedule at `threads` serving threads on a fresh tier.
PlaneFingerprint RunCase(const PlaneCase& c, int threads) {
  const SyntheticBackend backend(c.spec);
  std::vector<std::unique_ptr<core::Predictor>> predictors;
  std::vector<core::Predictor*> predictor_ptrs;
  for (int i = 0; i < c.options.num_shards; ++i) {
    predictors.push_back(std::make_unique<core::CompleterPredictor>(
        std::make_unique<core::AlsCompleter>(c.als)));
    predictor_ptrs.push_back(predictors.back().get());
  }
  core::ShardedServingTier tier(c.matrix, predictor_ptrs, c.options);
  tier.RefreshAll(/*force=*/true);
  tier.PublishAll();

  uint64_t total = 0;
  for (const Round& r : c.rounds) total += r.servings;
  SimulationResult trace;
  trace.serving_trace.resize(static_cast<size_t>(total));
  const auto resolve = [&backend](int q, int chosen, uint64_t seq) {
    return core::ServedOutcome{chosen, backend.ServeLatency(q, chosen, seq)};
  };
  const auto record = [&trace](const core::TierServing& s) {
    trace.serving_trace[static_cast<size_t>(s.seq)] = ServingRecord{
        s.query, s.observation.hint, s.observation.latency};
  };

  uint64_t served = 0;
  for (const Round& r : c.rounds) {
    tier.ServeSchedule(served, served + r.servings, threads, resolve, record);
    served += r.servings;
    if (r.grow) {
      const int g = tier.AppendQueries(1);
      tier.shard_engine(tier.ShardOfRow(g))
          .Observe(tier.LocalRowOf(g), 0, backend.TrueLatency(g, 0));
      tier.RefreshAll(/*force=*/true);
      tier.PublishAll();
    }
  }
  EXPECT_EQ(tier.scheduled_servings(), total);

  PlaneFingerprint f;
  f.trace_hash = tests::TraceHash(trace);
  const core::WorkloadMatrix merged = tier.MergedMatrix();
  tests::Fnv1a cells;
  for (int q = 0; q < merged.num_queries(); ++q) {
    for (int h = 0; h < merged.num_hints(); ++h) {
      cells.Mix(merged.state(q, h));
      cells.Mix(merged.values()(q, h));
    }
    cells.Mix(tier.shard_engine(tier.ShardOfRow(q))
                  .row_servings(tier.LocalRowOf(q)));
  }
  f.matrix_hash = cells.value();
  tests::Fnv1a predictions;
  for (int s = 0; s < tier.num_shards(); ++s) {
    const core::ExplorationEngine& engine = tier.shard_engine(s);
    predictions.Mix(engine.have_predictions());
    if (!engine.have_predictions()) continue;
    const linalg::Matrix& p = engine.predictions();
    for (size_t i = 0; i < p.rows(); ++i) {
      for (size_t j = 0; j < p.cols(); ++j) predictions.Mix(p(i, j));
    }
  }
  f.prediction_hash = predictions.value();
  f.regret_spent = tier.regret_spent();
  f.explorations = tier.explorations();
  f.rows = tier.num_queries();
  return f;
}

struct PlaneGolden {
  uint64_t seed;
  int shards;
  PlaneFingerprint expected;
};

// Captured from the last build whose tier trained one thread per shard
// (its epoch barrier was a serial per-engine SyncEpoch loop), at one
// serving thread; that build's differential twin test held the executor
// bitwise equal to it. Never regenerate these from the executor: they are
// the reference it is checked against.
// Every case appends at least one row.
constexpr PlaneGolden kPerShardPlaneGoldens[] = {
    {11, 1, {0xEF3C2EAEF83995E6ULL, 0x0E7CF96C2F6B2A41ULL,
             0x605CAC0F76EF65CCULL, 0x1.cd16b7ba887a4p+2, 7, 16}},
    {11, 2, {0xE246A8F29504DEC8ULL, 0x0BF6D6BA9DD1B09FULL,
             0x4504517D550B61EBULL, 0x1.5ede15b02e1fap+1, 5, 16}},
    {11, 4, {0x4734F7F122B6C487ULL, 0x2BA67D4285F686A2ULL,
             0x2BFD5D2ABA479903ULL, 0x1.d7a72409c13e8p-3, 3, 16}},
    {23, 1, {0x0796F654C7053EB4ULL, 0x62720F0A4114BE8FULL,
             0xABB0F255D21D5AA1ULL, 0x1.98a1065507441p-1, 10, 11}},
    {23, 2, {0x5FA7DE4EB0A8E359ULL, 0x20FE1B0017597453ULL,
             0x99386FF24BDF3DF1ULL, 0x1.21808cafa12fdp+2, 9, 11}},
    {23, 4, {0x347DDD66D7E60D48ULL, 0xCB4367C724A8BFFAULL,
             0x749D89F31AD284E8ULL, 0x1.2a089acc4c7eap+0, 5, 11}},
    {71, 1, {0x6878B6EE26A78091ULL, 0x3A5D81288C96410CULL,
             0x1D6692C21C5A0420ULL, 0x1.c290c1b14d9eap+2, 8, 13}},
    {71, 2, {0x97C62E4025FB0501ULL, 0xAC8BB0D548819725ULL,
             0x5EE86BD0C1AC7C40ULL, 0x1.02ac7de6f24b1p+2, 5, 13}},
    {71, 4, {0x97C62E4025FB0501ULL, 0xAC8BB0D548819725ULL,
             0x7C55BA964A92A557ULL, 0x1.02ac7de6f24b1p+2, 5, 13}},
    {83, 1, {0x19CB6D36DFD0CE1CULL, 0x3C0E7753E07797C2ULL,
             0xABB60C143862A97FULL, 0x1.53067b0db23fp+3, 9, 17}},
    {83, 2, {0x96646FBAC4C9BB17ULL, 0x0D51C9291FE8DE3EULL,
             0x24E11B5516615BE3ULL, 0x1.672118db84d37p+2, 6, 17}},
    {83, 4, {0x8ADE0A548D4D2729ULL, 0x66D46593947EEB36ULL,
             0xD3C67B77B79558F0ULL, 0x1.12c9fce7a338p+1, 4, 17}},
};

TEST(TrainExecutorTest, TierReproducesPerShardPlaneGoldens) {
  for (const PlaneGolden& g : kPerShardPlaneGoldens) {
    const PlaneCase c = BuildCase(g.seed, g.shards);
    for (int threads : {1, 2, 4}) {
      const PlaneFingerprint f = RunCase(c, threads);
      const std::string where = "seed " + std::to_string(g.seed) + ", " +
                                std::to_string(g.shards) + " shard(s), " +
                                std::to_string(threads) + " thread(s)";
      EXPECT_EQ(f.trace_hash, g.expected.trace_hash) << where;
      EXPECT_EQ(f.matrix_hash, g.expected.matrix_hash) << where;
      EXPECT_EQ(f.prediction_hash, g.expected.prediction_hash) << where;
      EXPECT_EQ(f.regret_spent, g.expected.regret_spent) << where;
      EXPECT_EQ(f.explorations, g.expected.explorations) << where;
      EXPECT_EQ(f.rows, g.expected.rows) << where;
    }
  }
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
