// Drain-time snapshot maintenance must be bitwise-equivalent to a full
// recompute at every publication point. The engine folds each observation
// into its row's snapshot chunk in O(1) (rescanning only when the row's
// verified best or predicted-best unobserved hint may have moved; a best
// that gets slower but stays under the row's runner-up bound keeps its
// place without a rescan), copies a chunk on its first write after a
// publication, rescans only each row's model half after a refit, and
// rebuilds every chunk only on restore or a shape change. The twin
// property below drives random operation sequences through that machinery
// and, after every Publish, compares each row of the snapshot with a
// test-only full-rebuild reference computed from the live matrix: the
// OnlineOptimizer rule for the verified best and ScanHintRow for the model
// precompute. Two smaller tests pin the copy-on-write contract (an
// unpublished write never changes a published snapshot) and chunk
// recycling (steady-state publication runs on recycled storage).

#include <cmath>
#include <iostream>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/als.h"
#include "core/decision_kernel.h"
#include "core/engine.h"
#include "core/online.h"
#include "proptest.h"

namespace limeqo::core {
namespace {

WorkloadMatrix RandomMatrix(int n, int k, double fill, uint64_t seed) {
  WorkloadMatrix w(n, k);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    // Most rows start with a complete default; some do not, so the
    // "default becomes complete" transition is reachable.
    if (rng.Bernoulli(0.85)) w.Observe(i, 0, rng.Uniform(0.1, 10.0));
    for (int j = 1; j < k; ++j) {
      if (rng.Bernoulli(fill)) w.Observe(i, j, rng.Uniform(0.01, 10.0));
    }
  }
  return w;
}

bool SameDouble(double a, double b) {
  return a == b || (std::isinf(a) && std::isinf(b) && (a > 0) == (b > 0));
}

/// The full-rebuild reference: every row of `snap` must equal what a
/// from-scratch scan of the live matrix computes. Returns false (with a
/// diagnostic on stderr) at the first divergence.
bool MatchesFullRebuild(const ExplorationEngine& engine,
                        const ServingSnapshot& snap) {
  const WorkloadMatrix& m = engine.matrix();
  const int n = m.num_queries();
  const int k = m.num_hints();
  if (snap.num_queries() != n || snap.num_hints() != k) {
    std::cerr << "snapshot shape " << snap.num_queries() << "x"
              << snap.num_hints() << " vs matrix " << n << "x" << k << "\n";
    return false;
  }
  const bool serve_predictions =
      engine.have_predictions() &&
      engine.predictions().rows() == static_cast<size_t>(n) &&
      engine.predictions().cols() == static_cast<size_t>(k);
  if (snap.has_predictions() != serve_predictions) {
    std::cerr << "has_predictions " << snap.has_predictions() << " vs "
              << serve_predictions << "\n";
    return false;
  }
  if (snap.published_seq() != engine.drained_servings() ||
      snap.regret_spent() != engine.regret_spent()) {
    std::cerr << "snapshot header diverges from the engine\n";
    return false;
  }
  const OnlineOptimizer rule(&m);
  for (int q = 0; q < n; ++q) {
    const CellState* states = m.row_states(q);
    const int best = rule.ChooseHint(q);
    const double best_latency = states[best] == CellState::kComplete
                                    ? m.row_values(q)[best]
                                    : std::numeric_limits<double>::infinity();
    if (snap.VerifiedHint(q) != best ||
        !SameDouble(snap.VerifiedLatency(q), best_latency)) {
      std::cerr << "verified best of row " << q << ": snapshot "
                << snap.VerifiedHint(q) << " @ " << snap.VerifiedLatency(q)
                << ", reference " << best << " @ " << best_latency << "\n";
      return false;
    }
    for (int j = 0; j < k; ++j) {
      if (snap.state(q, j) != states[j]) {
        std::cerr << "cell state diverges at (" << q << "," << j << ")\n";
        return false;
      }
    }
    const HintScan want = ScanHintRow(
        states,
        serve_predictions
            ? engine.predictions().data() + static_cast<size_t>(q) * k
            : nullptr,
        k);
    const HintScan got = snap.RowScan(q);
    if (got.have_predictions != want.have_predictions ||
        got.best_unobserved != want.best_unobserved ||
        !SameDouble(got.best_unobserved_pred, want.best_unobserved_pred) ||
        got.unobserved_count != want.unobserved_count) {
      std::cerr << "model scan of row " << q << ": snapshot "
                << got.best_unobserved << " @ " << got.best_unobserved_pred
                << " (" << got.unobserved_count << " unobserved), reference "
                << want.best_unobserved << " @ " << want.best_unobserved_pred
                << " (" << want.unobserved_count << ")\n";
      return false;
    }
  }
  return true;
}

/// The row's runner-up: the lowest-index complete cell other than `best`
/// with the smallest latency, or -1 when there is none.
int RunnerUpHint(const WorkloadMatrix& m, int q, int best) {
  int runner_up = -1;
  for (int j = 0; j < m.num_hints(); ++j) {
    if (j == best || !m.IsComplete(q, j)) continue;
    if (runner_up < 0 || m.observed(q, j) < m.observed(q, runner_up)) {
      runner_up = j;
    }
  }
  return runner_up;
}

/// Random operation sequences against one engine; after every publication
/// the snapshot must equal the full-rebuild reference. The targeted ops
/// aim at each branch of the drain-time fold: re-observing the verified
/// best slower, equal and faster; a slower best inside the runner-up gap
/// and exactly at the runner-up's latency, with the runner-up at a lower
/// and at a higher index; the runner-up getting faster, censored or
/// cleared before the best slows; an equal-latency tie at a lower hint
/// index; a default turning complete (and incomplete again); exploring the
/// predicted-best unobserved hint; censoring; clearing; appends,
/// checkpoint restore, and refits, also published with no shape change so
/// only the model half is rescanned. Observations reach the
/// engine either directly (Observe) or through the queue (Report + Drain),
/// so both fold entry points are covered.
bool FoldMatchesFullRebuildOverRandomOps(proptest::Params& p) {
  // Every third case spans several chunks with a partial last one, so the
  // fold, the copy-on-write and the shape changes also run past a chunk
  // boundary.
  const bool multi_chunk = p.Bool(1.0 / 3.0);
  const int n = static_cast<int>(multi_chunk ? p.Int(SnapshotChunk::kRows + 1,
                                                     600)
                                             : p.Int(3, 40));
  const int k = static_cast<int>(p.Int(2, 8));
  const double fill = p.Double(0.05, 0.5);

  EngineOptions options;
  options.online.epsilon = 0.5;
  options.online.min_predicted_ratio = 0.0;
  options.online.regret_budget_seconds = 50.0;
  options.online.seed = p.case_seed() ^ 0x5EEDu;
  AlsOptions als;
  als.seed = p.case_seed() ^ 0xA15u;
  als.convergence_tol = 1e-3;
  CompleterPredictor predictor(std::make_unique<AlsCompleter>(als));
  ExplorationEngine engine(RandomMatrix(n, k, fill, p.case_seed()),
                           &predictor, options);

  Rng ops(p.case_seed() ^ 0x09Au);
  uint64_t seq = 0;
  EngineCheckpoint saved;
  bool have_saved = false;
  // One observation of (q, j), through the queue or directly.
  const auto observe = [&](int q, int j, double latency) {
    const std::shared_ptr<const ServingSnapshot> snap = engine.snapshot();
    // Rows appended since the last publication are not in the snapshot
    // yet, so they can only be observed directly.
    if (q < snap->num_queries() && ops.Bernoulli(0.5)) {
      engine.Report(snap->MakeObservation(seq++, q, j, latency));
      engine.Drain();
    } else {
      engine.Observe(q, j, latency);
    }
  };
  for (int step = 0; step < 80; ++step) {
    const int rows = engine.matrix().num_queries();
    // Half the ops of a multi-chunk case aim at the last (partial) chunk.
    const int last_chunk = (rows - 1) & ~(SnapshotChunk::kRows - 1);
    const int q =
        multi_chunk && ops.Bernoulli(0.5)
            ? last_chunk + static_cast<int>(
                               ops.NextUint64Below(rows - last_chunk))
            : static_cast<int>(ops.NextUint64Below(rows));
    const int j = static_cast<int>(ops.NextUint64Below(k));
    const WorkloadMatrix& m = engine.matrix();
    const int best = OnlineOptimizer(&m).ChooseHint(q);
    const bool default_complete = m.IsComplete(q, 0);
    const double best_latency = default_complete ? m.observed(q, best) : 1.0;
    const uint64_t op = ops.NextUint64Below(22);
    switch (op) {
      case 0:
      case 1:
        observe(q, j, ops.Uniform(0.01, 10.0));
        break;
      case 2:  // the verified best gets slower: a rescan must find the new one
        observe(q, best, best_latency * ops.Uniform(1.01, 3.0));
        break;
      case 3:  // ... stays equal
        observe(q, best, best_latency);
        break;
      case 4:  // ... gets faster
        observe(q, best, best_latency * ops.Uniform(0.2, 0.99));
        break;
      case 5:  // equal-latency tie at a lower hint index wins
        if (default_complete && best > 0) {
          observe(q, static_cast<int>(ops.NextUint64Below(best)),
                  best_latency);
        }
        break;
      case 6:  // the default turns incomplete, then complete again
        if (ops.Bernoulli(0.5)) {
          engine.Clear(q, 0);
        } else {
          observe(q, 0, ops.Uniform(0.1, 10.0));
        }
        break;
      case 7: {  // explore the predicted-best unobserved hint
        const int target = engine.snapshot()->RowScan(q).best_unobserved;
        if (target >= 0 && engine.snapshot()->num_queries() == rows) {
          observe(q, target, ops.Uniform(0.01, 10.0));
        }
        break;
      }
      case 8:
        engine.ObserveCensored(q, j, ops.Uniform(0.01, 5.0));
        break;
      case 9:
        engine.Clear(q, j);
        break;
      case 10:
        engine.RefreshPredictions(/*force=*/true);
        break;
      case 11:
        engine.AppendQueries(1 + static_cast<int>(ops.NextUint64Below(2)));
        break;
      case 12:  // retired op, kept so the other ops' draws do not shift
        break;
      case 13:
        if (have_saved && ops.Bernoulli(0.5)) {
          engine.RestoreFromCheckpoint(saved);
          seq = saved.serving_seq;
        } else {
          saved = engine.MakeCheckpoint();
          have_saved = true;
        }
        break;
      case 14:  // the best gets slower, likely within the runner-up gap
        observe(q, best, best_latency * ops.Uniform(1.0001, 1.02));
        break;
      case 15: {  // the best gets slower to exactly the runner-up latency
        const int runner_up = RunnerUpHint(m, q, best);
        if (default_complete && runner_up >= 0) {
          observe(q, best, m.observed(q, runner_up));
        }
        break;
      }
      case 16:    // a runner-up at a lower index, then a tie with it ...
      case 17: {  // ... or at a higher index
        const bool lower = op == 16;
        if (!default_complete || (lower ? best == 0 : best == k - 1)) break;
        const int other =
            lower ? static_cast<int>(ops.NextUint64Below(best))
                  : best + 1 +
                        static_cast<int>(ops.NextUint64Below(k - 1 - best));
        const double tie = best_latency * ops.Uniform(1.001, 1.05);
        observe(q, other, tie);
        observe(q, best, tie);
        break;
      }
      case 18: {  // the runner-up gets faster, censored or cleared; then
                  // the (possibly new) best gets slower
        const int runner_up = RunnerUpHint(m, q, best);
        if (!default_complete || runner_up < 0) break;
        switch (ops.NextUint64Below(3)) {
          case 0:
            observe(q, runner_up,
                    m.observed(q, runner_up) * ops.Uniform(0.5, 0.999));
            break;
          case 1:
            engine.ObserveCensored(q, runner_up, ops.Uniform(0.01, 5.0));
            break;
          default:
            engine.Clear(q, runner_up);
            break;
        }
        const WorkloadMatrix& now = engine.matrix();
        if (now.IsComplete(q, 0)) {
          const int next = OnlineOptimizer(&now).ChooseHint(q);
          observe(q, next, now.observed(q, next) * ops.Uniform(1.01, 3.0));
        }
        break;
      }
      case 19:  // a refit published with no shape change: the model-half
                // rescan runs over the folded chunks
        engine.RefreshPredictions(/*force=*/true);
        engine.Publish();
        if (!MatchesFullRebuild(engine, *engine.snapshot())) {
          std::cerr << "divergence after the refit publication of step "
                    << step << "\n";
          return false;
        }
        break;
      default:
        break;  // several folds may accumulate before one publication
    }
    if (ops.Bernoulli(0.6)) {
      engine.Publish();
      if (!MatchesFullRebuild(engine, *engine.snapshot())) {
        std::cerr << "divergence after step " << step << "\n";
        return false;
      }
    }
  }
  return true;
}

TEST(EngineDeltaTest, DrainTimeFoldMatchesAFullRebuildAtEveryPublication) {
  proptest::Config config;
  config.runs = 64;
  proptest::Check("snapshot chunks match a full rebuild over random ops",
                  FoldMatchesFullRebuildOverRandomOps, config);
}

/// Everything a serving decision can read from one snapshot row.
struct RowCopy {
  int verified_best;
  double verified_latency;
  HintScan scan;
  std::vector<CellState> states;

  bool operator==(const RowCopy& o) const {
    return verified_best == o.verified_best &&
           SameDouble(verified_latency, o.verified_latency) &&
           scan.best_unobserved == o.scan.best_unobserved &&
           SameDouble(scan.best_unobserved_pred, o.scan.best_unobserved_pred) &&
           scan.unobserved_count == o.scan.unobserved_count &&
           states == o.states;
  }
};

std::vector<RowCopy> CopyRows(const ServingSnapshot& snap) {
  std::vector<RowCopy> rows;
  for (int q = 0; q < snap.num_queries(); ++q) {
    RowCopy row{snap.VerifiedHint(q), snap.VerifiedLatency(q),
                snap.RowScan(q), {}};
    for (int j = 0; j < snap.num_hints(); ++j) {
      row.states.push_back(snap.state(q, j));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(EngineDeltaTest, UnpublishedWritesNeverChangeAPublishedSnapshot) {
  // 600 rows: three chunks, the last one partial.
  ExplorationEngine engine(RandomMatrix(600, 6, 0.2, 41));
  const std::shared_ptr<const ServingSnapshot> published = engine.snapshot();
  const std::vector<RowCopy> before = CopyRows(*published);

  Rng rng(7);
  uint64_t seq = 0;
  for (int i = 0; i < 2000; ++i) {
    const int q = static_cast<int>(rng.NextUint64Below(600));
    const int j = static_cast<int>(rng.NextUint64Below(6));
    switch (rng.NextUint64Below(4)) {
      case 0:
        engine.Observe(q, j, rng.Uniform(0.01, 10.0));
        break;
      case 1:
        engine.ObserveCensored(q, j, rng.Uniform(0.01, 10.0));
        break;
      case 2:
        engine.Clear(q, j);
        break;
      default:
        engine.Report(published->MakeObservation(seq++, q, j,
                                                 rng.Uniform(0.01, 10.0)));
        engine.Drain();
        break;
    }
  }
  // Nothing was published: the engine still serves the same snapshot, and
  // its rows are exactly as they were.
  EXPECT_EQ(engine.snapshot(), published);
  EXPECT_EQ(engine.snapshot_version(), published->version());
  EXPECT_TRUE(CopyRows(*published) == before);
  EXPECT_EQ(engine.unpublished_updates(), 2000u);

  engine.Publish();
  const std::shared_ptr<const ServingSnapshot> next = engine.snapshot();
  EXPECT_NE(next, published);
  EXPECT_EQ(engine.unpublished_updates(), 0u);
  EXPECT_TRUE(MatchesFullRebuild(engine, *next));
  // The old snapshot still reads the pre-write rows.
  EXPECT_TRUE(CopyRows(*published) == before);
  EXPECT_FALSE(CopyRows(*next) == before);
}

TEST(EngineDeltaTest, SteadyStatePublicationReusesRecycledChunkStorage) {
  // 2048 rows = 8 chunks. Each cycle writes to every chunk, so every
  // chunk is copied once per publication; the copies must come from
  // buffers the previous snapshots released.
  constexpr int kRows = 2048;
  ExplorationEngine engine(RandomMatrix(kRows, 8, 0.1, 42));
  Rng rng(11);
  const auto cycle = [&] {
    for (int c = 0; c < kRows / SnapshotChunk::kRows; ++c) {
      const int q = c * SnapshotChunk::kRows +
                    static_cast<int>(rng.NextUint64Below(SnapshotChunk::kRows));
      engine.Observe(q, 1 + static_cast<int>(rng.NextUint64Below(7)),
                     rng.Uniform(0.01, 10.0));
    }
    engine.Publish();
  };
  for (int i = 0; i < 4; ++i) cycle();  // warm the free list
  const uint64_t warm = engine.snapshot_chunks_allocated();
  for (int i = 0; i < 200; ++i) cycle();
  EXPECT_EQ(engine.snapshot_chunks_allocated(), warm)
      << "steady-state publications allocated new chunk storage";
  // Two chunk sets at most: the published one and the one being written.
  EXPECT_LE(warm, 2u * kRows / SnapshotChunk::kRows + 8u);
  EXPECT_TRUE(MatchesFullRebuild(engine, *engine.snapshot()));

  // A reader holding a snapshot pins its chunks: the engine must allocate
  // around them rather than reuse them, and they stay intact.
  const std::shared_ptr<const ServingSnapshot> held = engine.snapshot();
  const std::vector<RowCopy> held_rows = CopyRows(*held);
  for (int i = 0; i < 20; ++i) cycle();
  EXPECT_TRUE(CopyRows(*held) == held_rows);
}

}  // namespace
}  // namespace limeqo::core
