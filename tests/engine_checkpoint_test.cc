// Crash-consistent checkpoints of the exploration engine and of the serving
// tier built from it. The contract under test: a tier checkpointed at an op
// boundary (epoch / observe / append / refit) through the real on-disk
// format (per-shard engine checkpoints plus the tier manifest) restores
// into a fleet whose remaining serving trace — at any thread count — is
// bitwise identical to the fleet that never died, whose regret ledger and
// matrix agree exactly; and a restored engine's next refit warm-starts from
// the checkpointed factors. Plus the failure half: corrupted or truncated
// checkpoints are rejected loudly and the caller falls back to a cold
// start, and the free-running train loop's checkpoint cadence never
// exposes a torn file to a concurrent reader.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/als.h"
#include "core/engine.h"
#include "core/predictor.h"
#include "core/serialization.h"
#include "core/shard_router.h"
#include "core/workload_matrix.h"
#include "proptest.h"
#include "scenarios/scenario.h"
#include "scenarios/synthetic_backend.h"

namespace limeqo::scenarios {
namespace {

// A unique checkpoint path per call, so proptest runs never collide.
std::string UniqueCheckpointPath(const char* tag) {
  static std::atomic<int> counter{0};
  std::ostringstream os;
  os << ::testing::TempDir() << "limeqo_" << tag << "_"
     << counter.fetch_add(1) << ".ckpt";
  return os.str();
}

// A unique, existing tier checkpoint directory per call.
std::string UniqueCheckpointDir(const char* tag) {
  const std::string dir = UniqueCheckpointPath(tag) + ".d";
  std::filesystem::create_directories(dir);
  return dir;
}

// Serves every chosen hint at the backend's latency for that serving.
auto ServeFrom(const SyntheticBackend& backend) {
  return [&backend](int q, int h, uint64_t s) {
    return core::ServedOutcome{h, backend.ServeLatency(q, h, s)};
  };
}

// Bitwise matrix equality (states and values; a censored cell's value is
// its threshold).
::testing::AssertionResult MatricesIdentical(const core::WorkloadMatrix& a,
                                             const core::WorkloadMatrix& b) {
  if (a.num_queries() != b.num_queries() || a.num_hints() != b.num_hints()) {
    return ::testing::AssertionFailure()
           << "shape " << a.num_queries() << "x" << a.num_hints() << " vs "
           << b.num_queries() << "x" << b.num_hints();
  }
  for (int q = 0; q < a.num_queries(); ++q) {
    for (int j = 0; j < a.num_hints(); ++j) {
      if (a.values()(q, j) != b.values()(q, j) ||
          a.state(q, j) != b.state(q, j)) {
        return ::testing::AssertionFailure()
               << "cell (" << q << "," << j << ") differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// A matrix of `rows` queries of `backend` with the default plan of every
// row observed (the normal bring-up state).
core::WorkloadMatrix SeedMatrix(const SyntheticBackend& backend, int rows,
                                int hints) {
  core::WorkloadMatrix m(rows, hints);
  for (int q = 0; q < rows; ++q) m.Observe(q, 0, backend.TrueLatency(q, 0));
  return m;
}

// ---------------------------------------------------------------------------
// The twin schedule: a random interleaving of the train-plane op kinds a
// live fleet performs between serving epochs. Every op ends in a
// publication — exactly what the train plane does after mutating state — so
// every op boundary is a legal kill point: the live snapshots, the drained
// matrices, and the ledgers all agree there, which is the consistency a
// checkpoint captures.
// ---------------------------------------------------------------------------

enum class OpKind { kEpoch, kObserve, kAppend, kRefit };
struct Op {
  OpKind kind;
  int arg = 0;
};

struct TraceEntry {
  int query = -1;
  int hint = -1;
  double latency = 0.0;
  bool valid = false;
};

void ApplyOp(core::ShardedServingTier& tier, const SyntheticBackend& backend,
             const Op& op, int threads, uint64_t* next_seq,
             std::vector<TraceEntry>* trace) {
  switch (op.kind) {
    case OpKind::kEpoch: {
      const uint64_t begin = *next_seq;
      const uint64_t end = begin + static_cast<uint64_t>(op.arg);
      tier.ServeSchedule(begin, end, threads, ServeFrom(backend),
                         [trace](const core::TierServing& s) {
                           (*trace)[s.seq] = {s.query, s.observation.hint,
                                              s.observation.latency, true};
                         });
      *next_seq = end;
      break;
    }
    case OpKind::kObserve: {
      // One direct train-plane observation (the offline exploration path)
      // on the row's shard, then republish so the serving plane sees it.
      const int n = tier.num_queries();
      const int k = tier.num_hints();
      const int q = op.arg % n;
      const int h = 1 + (op.arg / n) % (k - 1);
      core::ExplorationEngine& shard = tier.shard_engine(tier.ShardOfRow(q));
      shard.Observe(tier.LocalRowOf(q), h, backend.TrueLatency(q, h));
      shard.Publish();
      break;
    }
    case OpKind::kAppend: {
      const int first = tier.AppendQueries(op.arg);
      for (int q = first; q < first + op.arg; ++q) {
        tier.shard_engine(tier.ShardOfRow(q))
            .Observe(tier.LocalRowOf(q), 0, backend.TrueLatency(q, 0));
      }
      tier.PublishAll();
      break;
    }
    case OpKind::kRefit:
      tier.SyncEpochAll();
      break;
  }
}

// Per-shard predictors of one ALS configuration (fresh fitted state).
struct Predictors {
  std::vector<std::unique_ptr<core::Predictor>> owned;
  std::vector<core::Predictor*> ptrs;
  Predictors(int shards, const core::AlsOptions& als) {
    for (int i = 0; i < shards; ++i) {
      owned.push_back(std::make_unique<core::CompleterPredictor>(
          std::make_unique<core::AlsCompleter>(als)));
      ptrs.push_back(owned.back().get());
    }
  }
};

// ---------------------------------------------------------------------------
// Kill-and-restore twins: the headline property.
// ---------------------------------------------------------------------------

TEST(KillRestoreTest, RestoredTwinReplaysBitwiseAtEveryThreadCount) {
  proptest::Config config;
  config.runs = 8;
  proptest::Check(
      "kill-and-restore twin fleet serves bitwise-identically",
      [](proptest::Params& p) {
        const int hints = static_cast<int>(p.Int(4, 8));
        const int init_rows = static_cast<int>(p.Int(6, 12));
        int append_budget = static_cast<int>(p.Int(0, 10));
        const int shards = static_cast<int>(p.Int(1, 3));
        ScenarioSpec spec;
        spec.name = "kill-restore";
        spec.num_queries = init_rows + append_budget;
        spec.num_hints = hints;
        spec.latent_rank = static_cast<int>(p.Int(1, 3));
        spec.noise_sigma = p.Double(0.0, 0.2);
        spec.seed = static_cast<uint64_t>(p.Int(1, 1 << 30));
        const SyntheticBackend backend(spec);

        core::ShardedTierOptions opts;
        opts.num_shards = shards;
        opts.online.epsilon = p.Double(0.1, 0.4);
        opts.online.min_predicted_ratio = 0.05;
        opts.online.regret_budget_seconds = p.Double(0.5, 10.0);
        opts.online.refresh_every = static_cast<int>(p.Int(6, 24));
        opts.online.publish_every = static_cast<int>(p.Int(4, 12));
        opts.online.seed = static_cast<uint64_t>(p.Int(1, 1 << 30));

        core::AlsOptions als;
        als.rank = static_cast<int>(p.Int(1, 3));
        als.iterations = 12;
        als.seed = static_cast<uint64_t>(p.Int(1, 1 << 30));

        // Random op schedule, and a random op boundary to die at. The
        // remaining schedule must serve at least one epoch or the property
        // is vacuous.
        const int num_ops = static_cast<int>(p.Int(3, 7));
        std::vector<Op> ops;
        uint64_t total = 0;
        for (int i = 0; i < num_ops; ++i) {
          switch (p.Int(0, 3)) {
            case 0: {
              const int len = static_cast<int>(p.Int(6, 30));
              ops.push_back({OpKind::kEpoch, len});
              total += static_cast<uint64_t>(len);
              break;
            }
            case 1:
              ops.push_back({OpKind::kObserve, static_cast<int>(p.Int(0, 999))});
              break;
            case 2:
              if (append_budget > 0) {
                const int c = static_cast<int>(p.Int(1, append_budget));
                append_budget -= c;
                ops.push_back({OpKind::kAppend, c});
                break;
              }
              [[fallthrough]];
            default:
              ops.push_back({OpKind::kRefit, 0});
              break;
          }
        }
        const int kill_after = static_cast<int>(p.Int(0, num_ops - 1));
        bool tail_epoch = false;
        for (size_t i = static_cast<size_t>(kill_after) + 1; i < ops.size();
             ++i) {
          tail_epoch |= ops[i].kind == OpKind::kEpoch;
        }
        if (!tail_epoch) {
          ops.push_back({OpKind::kEpoch, 16});
          total += 16;
        }

        // Reference fleet A: lives through the whole schedule, but writes
        // its checkpoints through the real file formats at the kill
        // boundary.
        Predictors pred_a(shards, als);
        core::ShardedServingTier a(SeedMatrix(backend, init_rows, hints),
                                   pred_a.ptrs, opts);
        a.SyncEpochAll();

        const std::string dir = UniqueCheckpointDir("kill_restore");
        std::vector<TraceEntry> trace_a(total);
        uint64_t seq_a = 0;
        uint64_t kill_seq = 0;
        for (size_t i = 0; i < ops.size(); ++i) {
          ApplyOp(a, backend, ops[i], /*threads=*/1, &seq_a, &trace_a);
          if (i == static_cast<size_t>(kill_after)) {
            const Status saved = a.SaveCheckpoints(dir);
            if (!saved.ok()) {
              std::fprintf(stderr, "save failed: %s\n",
                           saved.message().c_str());
              return false;
            }
            kill_seq = seq_a;
          }
        }

        // Twins: a fresh fleet + fresh completers restored from the
        // directory, replaying the post-kill schedule at several thread
        // counts.
        for (const int threads : {1, 2, 4}) {
          Predictors pred_b(shards, als);
          StatusOr<std::unique_ptr<core::ShardedServingTier>> restored =
              core::ShardedServingTier::RestoreFromDirectory(dir, pred_b.ptrs,
                                                             opts);
          if (!restored.ok()) {
            std::fprintf(stderr, "restore failed: %s\n",
                         restored.status().message().c_str());
            return false;
          }
          core::ShardedServingTier& b = **restored;
          if (b.scheduled_servings() != kill_seq) {
            std::fprintf(stderr, "twin resumes at %llu, killed at %llu\n",
                         static_cast<unsigned long long>(
                             b.scheduled_servings()),
                         static_cast<unsigned long long>(kill_seq));
            return false;
          }

          std::vector<TraceEntry> trace_b(total);
          uint64_t seq_b = kill_seq;
          for (size_t i = static_cast<size_t>(kill_after) + 1; i < ops.size();
               ++i) {
            ApplyOp(b, backend, ops[i], threads, &seq_b, &trace_b);
          }
          if (seq_b != seq_a) {
            std::fprintf(stderr, "twin served to %llu, reference to %llu\n",
                         static_cast<unsigned long long>(seq_b),
                         static_cast<unsigned long long>(seq_a));
            return false;
          }
          for (uint64_t s = kill_seq; s < seq_a; ++s) {
            const TraceEntry& ea = trace_a[s];
            const TraceEntry& eb = trace_b[s];
            if (ea.valid != eb.valid || ea.query != eb.query ||
                ea.hint != eb.hint || ea.latency != eb.latency) {
              std::fprintf(
                  stderr,
                  "trace diverges at seq %llu (%d shards, threads=%d): "
                  "ref (q=%d h=%d lat=%.17g) twin (q=%d h=%d lat=%.17g)\n",
                  static_cast<unsigned long long>(s), shards, threads,
                  ea.query, ea.hint, ea.latency, eb.query, eb.hint,
                  eb.latency);
              return false;
            }
          }
          if (!MatricesIdentical(a.MergedMatrix(), b.MergedMatrix())) {
            return false;
          }
          if (a.regret_spent() != b.regret_spent() ||
              a.explorations() != b.explorations()) {
            std::fprintf(stderr,
                         "ledger diverges: ref (%.17g, %d) twin (%.17g, %d)\n",
                         a.regret_spent(), a.explorations(), b.regret_spent(),
                         b.explorations());
            return false;
          }
        }
        std::filesystem::remove_all(dir);
        return true;
      },
      config);
}

// ---------------------------------------------------------------------------
// Restore mechanics: rewind, republication, and the save/load/save format
// fixed point.
// ---------------------------------------------------------------------------

TEST(CheckpointFormatTest, SaveLoadSaveIsByteIdentical) {
  ScenarioSpec spec;
  spec.num_queries = 14;
  spec.num_hints = 6;
  spec.seed = 41;
  const SyntheticBackend backend(spec);
  core::AlsOptions als;
  als.rank = 2;
  auto completer = std::make_unique<core::AlsCompleter>(als);
  core::CompleterPredictor pred(std::move(completer));
  core::ShardedTierOptions opts;
  opts.online.epsilon = 0.25;
  opts.online.regret_budget_seconds = 4.0;
  core::ShardedServingTier tier(SeedMatrix(backend, 14, 6), {&pred}, opts);
  core::ExplorationEngine& engine = tier.shard_engine(0);
  engine.Observe(3, 2, backend.TrueLatency(3, 2));
  engine.ObserveCensored(5, 4, 0.75);
  tier.SyncEpochAll();
  tier.ServeSchedule(0, 32, 2, ServeFrom(backend));

  const core::EngineCheckpoint original = engine.MakeCheckpoint();
  std::ostringstream first;
  ASSERT_TRUE(core::SaveEngineCheckpoint(original, first).ok());
  std::istringstream in(first.str());
  StatusOr<core::EngineCheckpoint> loaded = core::LoadEngineCheckpoint(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  std::ostringstream second;
  ASSERT_TRUE(core::SaveEngineCheckpoint(*loaded, second).ok());
  EXPECT_EQ(first.str(), second.str());

  EXPECT_EQ(loaded->serving_seq, 32u);
  EXPECT_EQ(loaded->regret_spent, original.regret_spent);
  EXPECT_EQ(loaded->explorations, original.explorations);
  EXPECT_EQ(loaded->have_predictions, original.have_predictions);
  EXPECT_TRUE(MatricesIdentical(loaded->matrix, original.matrix));
}

TEST(CheckpointRestoreTest, RestoreRewindsServingPlaneAndRepublishes) {
  ScenarioSpec spec;
  spec.num_queries = 10;
  spec.num_hints = 5;
  spec.seed = 42;
  const SyntheticBackend backend(spec);
  core::ShardedTierOptions opts;
  opts.online.epsilon = 0.2;
  core::ShardedServingTier tier(SeedMatrix(backend, 10, 5), {}, opts);
  tier.SyncEpochAll();
  tier.ServeSchedule(0, 24, 1, ServeFrom(backend));
  const core::ExplorationEngine& a = tier.shard_engine(0);

  core::EngineOptions engine_opts;
  engine_opts.online = opts.online;
  core::ExplorationEngine b(core::WorkloadMatrix(1, 5), nullptr, engine_opts);
  b.RestoreFromCheckpoint(a.MakeCheckpoint());
  // The serving plane resumes exactly where the drained prefix ended...
  EXPECT_EQ(b.AcquireServingIndex(), 24u);
  // ...and a fresh snapshot of the restored state is already published.
  const std::shared_ptr<const core::ServingSnapshot> snap = b.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->published_seq(), 24u);
  EXPECT_EQ(snap->num_queries(), 10);
  EXPECT_TRUE(MatricesIdentical(a.matrix(), b.matrix()));
  EXPECT_EQ(a.regret_spent(), b.regret_spent());
}

// ---------------------------------------------------------------------------
// Warm restart vs cold start: the checkpointed factors must make the first
// post-restore refit converge in measurably fewer ALS sweeps.
// ---------------------------------------------------------------------------

TEST(WarmRestartTest, WarmRestartConvergesInFewerSweepsThanColdStart) {
  ScenarioSpec spec;
  spec.num_queries = 40;
  spec.num_hints = 10;
  spec.latent_rank = 2;
  spec.seed = 77;
  const SyntheticBackend backend(spec);
  core::WorkloadMatrix matrix(40, 10);
  for (int q = 0; q < 40; ++q) {
    matrix.Observe(q, 0, backend.TrueLatency(q, 0));
    for (int j = 1; j < 10; ++j) {
      if ((q * 3 + j) % 2 == 0) {
        matrix.Observe(q, j, backend.TrueLatency(q, j));
      }
    }
  }
  core::AlsOptions als;
  als.rank = 2;
  als.iterations = 80;
  als.convergence_tol = 1e-3;
  als.seed = 9;

  core::EngineOptions opts;
  auto als_fit = std::make_unique<core::AlsCompleter>(als);
  core::CompleterPredictor pred_fit(std::move(als_fit));
  core::ExplorationEngine fitted(std::move(matrix), &pred_fit, opts);
  ASSERT_TRUE(fitted.RefreshPredictions(/*force=*/true));
  const core::EngineCheckpoint warm = fitted.MakeCheckpoint();
  ASSERT_FALSE(warm.factors.empty());

  // Warm twin: restore factors + predictions, then force a refit.
  auto als_warm_owned = std::make_unique<core::AlsCompleter>(als);
  const core::AlsCompleter* als_warm = als_warm_owned.get();
  core::CompleterPredictor pred_warm(std::move(als_warm_owned));
  core::ExplorationEngine warm_engine(core::WorkloadMatrix(1, 10), &pred_warm,
                                      opts);
  warm_engine.RestoreFromCheckpoint(warm);
  ASSERT_TRUE(warm_engine.RefreshPredictions(/*force=*/true));

  // Cold twin: same matrix, but the factor state is gone (the situation
  // after a crash with no checkpoint — or a rejected one).
  core::EngineCheckpoint cold = warm;
  cold.factors.clear();
  cold.predictions = linalg::Matrix();
  cold.have_predictions = false;
  auto als_cold_owned = std::make_unique<core::AlsCompleter>(als);
  const core::AlsCompleter* als_cold = als_cold_owned.get();
  core::CompleterPredictor pred_cold(std::move(als_cold_owned));
  core::ExplorationEngine cold_engine(core::WorkloadMatrix(1, 10), &pred_cold,
                                      opts);
  cold_engine.RestoreFromCheckpoint(cold);
  ASSERT_TRUE(cold_engine.RefreshPredictions(/*force=*/true));

  EXPECT_LT(als_warm->last_iterations(), als_cold->last_iterations())
      << "warm restart should resume at (or near) the ALS fixed point";
}

// ---------------------------------------------------------------------------
// Rejection + fallback: a damaged checkpoint must fail loudly, and the
// caller's recovery is a legal cold start.
// ---------------------------------------------------------------------------

TEST(CheckpointRecoveryTest, CorruptedCheckpointIsRejectedWithColdFallback) {
  ScenarioSpec spec;
  spec.num_queries = 8;
  spec.num_hints = 4;
  spec.seed = 55;
  const SyntheticBackend backend(spec);
  core::EngineOptions opts;
  core::ExplorationEngine engine(SeedMatrix(backend, 8, 4), nullptr, opts);
  engine.SyncEpoch();
  const std::string path = UniqueCheckpointPath("corrupt");
  ASSERT_TRUE(core::SaveEngineCheckpointToFile(engine.MakeCheckpoint(), path)
                  .ok());

  // Flip one payload byte: the CRC must catch it.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    bytes = os.str();
  }
  ASSERT_GT(bytes.size(), 64u);
  std::string corrupted = bytes;
  corrupted[bytes.size() / 2] ^= 0x5a;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << corrupted;
  }
  const StatusOr<core::EngineCheckpoint> flipped =
      core::LoadEngineCheckpointFromFile(path);
  EXPECT_FALSE(flipped.ok());
  EXPECT_FALSE(flipped.status().message().empty());

  // Truncation (the torn write a non-atomic writer would leave behind).
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() / 3);
  }
  const StatusOr<core::EngineCheckpoint> truncated =
      core::LoadEngineCheckpointFromFile(path);
  EXPECT_FALSE(truncated.ok());

  // The documented recovery: treat "no usable checkpoint" as a cold start.
  // An empty-backend bring-up is legal and grows through AppendQueries.
  if (!truncated.ok()) {
    core::ShardedServingTier cold(core::WorkloadMatrix(0, 4), {},
                                  core::ShardedTierOptions{});
    EXPECT_EQ(cold.AppendQueries(8), 0);
    for (int q = 0; q < 8; ++q) {
      cold.shard_engine(0).Observe(cold.LocalRowOf(q), 0,
                                   backend.TrueLatency(q, 0));
    }
    cold.SyncEpochAll();
    cold.ServeSchedule(0, 16, 2, ServeFrom(backend));
    EXPECT_EQ(cold.shard_engine(0).drained_servings(), 16u);
  }
  std::remove(path.c_str());
}

// A +Inf latency can reach an engine's matrix, and the loader refuses it,
// so the writer must too: the refused save is an error, it is not counted,
// and the last good checkpoint on disk stays untouched and loadable.
TEST(CheckpointRecoveryTest, RefusedSaveKeepsTheLastGoodCheckpoint) {
  ScenarioSpec spec;
  spec.num_queries = 8;
  spec.num_hints = 4;
  spec.seed = 57;
  const SyntheticBackend backend(spec);
  core::EngineOptions opts;
  opts.checkpoint_path = UniqueCheckpointPath("refused");
  core::ExplorationEngine engine(SeedMatrix(backend, 8, 4), nullptr, opts);
  engine.SyncEpoch();
  ASSERT_TRUE(engine.SaveCheckpoint().ok());
  ASSERT_EQ(engine.checkpoints_written(), 1u);
  const auto read_file = [&] {
    std::ifstream in(opts.checkpoint_path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  };
  const std::string good = read_file();

  engine.Observe(2, 1, std::numeric_limits<double>::infinity());
  const Status refused = engine.SaveCheckpoint();
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.checkpoints_written(), 1u);
  EXPECT_EQ(read_file(), good);
  EXPECT_TRUE(core::LoadEngineCheckpointFromFile(opts.checkpoint_path).ok());
  std::remove(opts.checkpoint_path.c_str());
}

// ---------------------------------------------------------------------------
// Free-running cadence: the train loop writes checkpoints while serving
// threads keep running, every write is crash-atomic (a concurrent reader
// never sees a torn file), and the final checkpoint agrees exactly with
// the engine that wrote it.
// ---------------------------------------------------------------------------

TEST(CheckpointCadenceTest, FreeRunningTrainLoopWritesConsistentCheckpoints) {
  constexpr uint64_t kTotal = 1500;
  constexpr int kRows = 16;
  constexpr int kHints = 6;
  ScenarioSpec spec;
  spec.num_queries = kRows;
  spec.num_hints = kHints;
  spec.seed = 99;
  const SyntheticBackend backend(spec);

  const std::string path = UniqueCheckpointPath("cadence");
  core::EngineOptions opts;
  opts.online.epsilon = 0.2;
  opts.online.regret_budget_seconds = 5.0;
  opts.online.publish_every = 8;
  opts.online.seed = 11;
  opts.queue_capacity = 64;
  opts.checkpoint_path = path;
  opts.checkpoint_every = 25;
  core::ExplorationEngine engine(SeedMatrix(backend, kRows, kHints), nullptr,
                                 opts);
  engine.StartTraining();

  // A concurrent reader plays the post-crash restart: every checkpoint it
  // manages to open must parse — rename atomicity means it sees either the
  // previous complete file or the current complete one, never a torn mix.
  std::atomic<bool> done{false};
  std::atomic<int> reads_ok{0};
  std::atomic<int> torn_reads{0};
  std::thread reader([&] {
    bool last_pass = false;
    while (true) {
      const StatusOr<core::EngineCheckpoint> c =
          core::LoadEngineCheckpointFromFile(path);
      if (c.ok()) {
        reads_ok.fetch_add(1);
        if (c->serving_seq > kTotal || c->matrix.num_queries() != kRows ||
            c->matrix.num_hints() != kHints) {
          torn_reads.fetch_add(1);
        }
      } else if (reads_ok.load() > 0) {
        // Once one checkpoint exists, a reader must never fail again.
        torn_reads.fetch_add(1);
      }
      if (last_pass) break;
      if (done.load()) last_pass = true;  // one final read after shutdown
      std::this_thread::yield();
    }
  });

  // Combining producers can drain the whole run before the train thread
  // takes a single step, and only train steps write cadence checkpoints.
  // So the serving thread that claims index kTotal / 2 holds it unreported
  // until the train plane has written one: the drain front cannot pass the
  // hole, and the run cannot finish without a step. The wait is bounded so
  // a train plane that never checkpoints fails the test instead of hanging.
  std::atomic<bool> cadence_checkpoint{false};
  std::vector<std::thread> servers;
  for (int t = 0; t < 2; ++t) {
    servers.emplace_back([&] {
      std::shared_ptr<const core::ServingSnapshot> snap = engine.snapshot();
      uint64_t version = snap->version();
      while (true) {
        const uint64_t s = engine.AcquireServingIndex();
        if (s >= kTotal) break;
        if (s == kTotal / 2) {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(60);
          while (engine.checkpoints_written() == 0 &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
          cadence_checkpoint.store(engine.checkpoints_written() > 0);
        }
        if (engine.snapshot_version() != version) {
          snap = engine.snapshot();
          version = snap->version();
        }
        const int q = static_cast<int>(s % kRows);
        const int h = snap->ChooseHint(q, s);
        engine.Report(
            snap->MakeObservation(s, q, h, backend.ServeLatency(q, h, s)));
      }
    });
  }
  for (std::thread& t : servers) t.join();
  engine.StopTraining();
  done.store(true);
  reader.join();

  EXPECT_TRUE(cadence_checkpoint.load())
      << "no cadence checkpoint within 60 s of the train plane running";
  EXPECT_GE(engine.checkpoints_written(), 2u)
      << "the cadence plus the final StopTraining write";
  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_GT(reads_ok.load(), 0);

  // The final checkpoint is exactly the engine that wrote it.
  const StatusOr<core::EngineCheckpoint> final_ckpt =
      core::LoadEngineCheckpointFromFile(path);
  ASSERT_TRUE(final_ckpt.ok()) << final_ckpt.status().message();
  EXPECT_EQ(final_ckpt->serving_seq, kTotal);
  EXPECT_TRUE(MatricesIdentical(final_ckpt->matrix, engine.matrix()));
  EXPECT_EQ(final_ckpt->regret_spent, engine.regret_spent());
  EXPECT_EQ(final_ckpt->explorations, engine.explorations());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace limeqo::scenarios
