// Serving-plane bench: servings/sec through the two-plane exploration
// engine as a function of serving-thread count, plus snapshot staleness
// (how many servings old the snapshot a decision used was). The serving
// threads run the real lock-free protocol — version probe, cached
// snapshot, ChooseHint, ServeLatency, Report — while the background train
// plane drains the observation queue, refits the (warm-started) completion
// model, and republishes snapshots. The sharded sweeps serve through the
// tier's own loop (ShardedServingTier::ServeFreeRunning); the bare-engine
// sweep keeps its loop written out as the router-free reference.
//
// Results are written as machine-readable JSON (default BENCH_serving.json,
// override with --json=<path>) and uploaded by CI next to the other bench
// artifacts, so the serving-path throughput trajectory is tracked commit
// to commit. Note the CI/container caveat: on a single hardware core the
// serving threads time-slice, so throughput holds roughly flat rather than
// scaling; the interesting regressions are collapses (lock contention
// would show as superlinear slowdown) and staleness blow-ups.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/als.h"
#include "core/engine.h"
#include "core/explorer.h"
#include "core/policy.h"
#include "core/predictor.h"
#include "core/serialization.h"
#include "core/shard_router.h"
#include "scenarios/scenario.h"
#include "scenarios/synthetic_backend.h"

namespace limeqo::bench {
namespace {

constexpr int kServingsPerConfig = 60000;

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A warm serving world: matrix seeded the way deployment would (defaults
/// known, a short offline exploration pass), ALS predictor attached and
/// refitted, serving options configured, first snapshot published. Shared
/// by the end-to-end throughput measurement and the pure decision-cost
/// sweeps so both run over the same snapshot shape.
struct WarmServingWorld {
  explicit WarmServingWorld(const scenarios::ScenarioSpec& spec)
      : backend(spec),
        explorer(&backend, &policy, MakeExplorerOptions()),
        predictor(std::make_unique<core::AlsCompleter>(MakeAlsOptions())) {
    explorer.Explore(0.2 * backend.DefaultWorkloadLatency());
    core::ExplorationEngine& e = explorer.engine();
    e.SetPredictor(&predictor);
    core::OnlineExplorationOptions online;
    online.epsilon = 0.1;
    online.min_predicted_ratio = 0.05;
    online.regret_budget_seconds = 1e9;
    online.seed = 31;
    e.ConfigureServing(online);
    e.RefreshPredictions(/*force=*/true);
    e.Publish();
  }
  core::ExplorationEngine& engine() { return explorer.engine(); }

  static core::ExplorerOptions MakeExplorerOptions() {
    core::ExplorerOptions options;
    options.seed = 42;
    return options;
  }
  static core::AlsOptions MakeAlsOptions() {
    core::AlsOptions als;
    als.convergence_tol = 1e-3;
    als.seed = 7;
    return als;
  }

  scenarios::SyntheticBackend backend;
  core::RandomPolicy policy;
  core::OfflineExplorer explorer;
  core::CompleterPredictor predictor;
};

/// One throughput measurement: `threads` serving threads push
/// kServingsPerConfig servings through a fresh bare engine while the train
/// plane free-runs. The loop is the batched protocol written out against
/// one engine (claim 16 indices per atomic RMW, one version probe and one
/// ChooseHints call per batch, execute + report per serving): the
/// router-free reference the tier's ServeFreeRunning is measured against.
/// Returns ns/serving; *staleness_out receives the mean snapshot age (in
/// servings) at decision time.
double MeasureServing(const scenarios::ScenarioSpec& spec, int threads,
                      double* staleness_out) {
  WarmServingWorld world(spec);
  core::ExplorationEngine& engine = world.engine();
  scenarios::SyntheticBackend& backend = world.backend;

  const int n = backend.num_queries();
  std::vector<double> staleness_sums(threads, 0.0);
  std::vector<long> served_counts(threads, 0);

  engine.StartTraining();
  const double t0 = WallSeconds();
  std::vector<std::thread> servers;
  servers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    servers.emplace_back([&, t] {
      std::shared_ptr<const core::ServingSnapshot> snap = engine.snapshot();
      uint64_t version = snap->version();
      double stale = 0.0;
      long count = 0;
      constexpr size_t kBatch = 16;
      std::array<int, kBatch> queries;
      std::array<int, kBatch> hints;
      while (true) {
        const uint64_t first =
            engine.AcquireServingIndices(static_cast<uint64_t>(kBatch));
        if (first >= static_cast<uint64_t>(kServingsPerConfig)) break;
        const size_t cnt = static_cast<size_t>(
            std::min<uint64_t>(kBatch, static_cast<uint64_t>(
                                           kServingsPerConfig) -
                                           first));
        // Steady-state read path: one relaxed version probe per batch;
        // the shared_ptr swap only happens when the train plane published.
        if (engine.snapshot_version() != version) {
          snap = engine.snapshot();
          version = snap->version();
        }
        if (first > snap->published_seq()) {
          stale += static_cast<double>(first - snap->published_seq()) *
                   static_cast<double>(cnt);
        }
        for (size_t i = 0; i < cnt; ++i) {
          queries[i] = static_cast<int>((first + i) % n);
        }
        snap->ChooseHints(std::span<const int>(queries.data(), cnt), first,
                          std::span<int>(hints.data(), cnt));
        for (size_t i = 0; i < cnt; ++i) {
          const uint64_t seq = first + i;
          const double latency =
              backend.ServeLatency(queries[i], hints[i], seq);
          engine.Report(
              snap->MakeObservation(seq, queries[i], hints[i], latency));
          ++count;
        }
      }
      staleness_sums[t] = stale;
      served_counts[t] = count;
    });
  }
  for (std::thread& t : servers) t.join();
  const double elapsed = WallSeconds() - t0;
  engine.StopTraining();

  double stale_total = 0.0;
  long served_total = 0;
  for (int t = 0; t < threads; ++t) {
    stale_total += staleness_sums[t];
    served_total += served_counts[t];
  }
  if (staleness_out != nullptr) {
    *staleness_out = served_total > 0 ? stale_total / served_total : 0.0;
  }
  return elapsed / kServingsPerConfig * 1e9;
}

/// Sharded tier throughput: one serving thread runs the production
/// free-running loop, ShardedServingTier::ServeFreeRunning (claim a global
/// batch, route it, claim its shard-local indices, then per serving probe
/// the shard's snapshot, decide, execute, report), against `shards`
/// engines whose train plane — one TrainExecutor with 2 workers — splits
/// `refit_threads` linalg threads between its jobs. At shards == 1 this
/// measures the pure router tax over the bare MeasureServing loop — the
/// <1.3x guard in tools/check_bench_regression.py; s4r4 against s1r1 is
/// the fleet tax, the train plane's serving-path cost at full fan-out.
/// *refit_ns_out receives the fleet-mean fitting time per completed refit
/// (ExplorationEngine::refit_nanos),
/// *refits_out the fleet refit count.
double MeasureShardedServing(const scenarios::ScenarioSpec& spec, int shards,
                             int refit_threads,
                             double* refit_ns_out, long* refits_out) {
  WarmServingWorld seed_world(spec);
  core::OnlineExplorationOptions online;
  online.epsilon = 0.1;
  online.min_predicted_ratio = 0.05;
  online.regret_budget_seconds = 1e9;
  online.seed = 31;
  core::ShardedTierOptions options;
  options.num_shards = shards;
  options.online = online;
  options.executor.workers = 2;
  options.executor.linalg_threads = refit_threads;
  std::vector<std::unique_ptr<core::CompleterPredictor>> predictors;
  std::vector<core::Predictor*> predictor_ptrs;
  for (int i = 0; i < shards; ++i) {
    predictors.push_back(std::make_unique<core::CompleterPredictor>(
        std::make_unique<core::AlsCompleter>(
            WarmServingWorld::MakeAlsOptions())));
    predictor_ptrs.push_back(predictors.back().get());
  }
  core::ShardedServingTier tier(seed_world.engine().matrix(), predictor_ptrs,
                                options);
  tier.RefreshAll(/*force=*/true);
  tier.PublishAll();

  const scenarios::SyntheticBackend& backend = seed_world.backend;
  SetNumThreads(refit_threads);
  tier.StartTraining();
  const double t0 = WallSeconds();
  tier.ServeFreeRunning(kServingsPerConfig, /*threads=*/1,
                        [&backend](int q, int hint, uint64_t seq) {
                          return core::ServedOutcome{
                              hint, backend.ServeLatency(q, hint, seq)};
                        });
  const double elapsed = WallSeconds() - t0;
  tier.StopTraining();
  SetNumThreads(1);
  uint64_t refits = 0;
  uint64_t refit_nanos = 0;
  for (int i = 0; i < shards; ++i) {
    refits += tier.shard_engine(i).refits_completed();
    refit_nanos += tier.shard_engine(i).refit_nanos();
  }
  if (refit_ns_out != nullptr) {
    *refit_ns_out =
        refits > 0 ? static_cast<double>(refit_nanos) /
                         static_cast<double>(refits)
                   : 0.0;
  }
  if (refits_out != nullptr) *refits_out = static_cast<long>(refits);
  return elapsed / kServingsPerConfig * 1e9;
}

/// Pure decision cost over a pinned snapshot: no execution, no reporting,
/// no train thread — just ChooseHint (batch == 1) or ChooseHints
/// (batch > 1) across `threads` threads deciding disjoint contiguous
/// sequence ranges. This isolates the decision-kernel cost the end-to-end
/// loop dilutes with backend execution and queue traffic (and, on a
/// 1-core container, with train-thread time-slicing). Returns ns/decision;
/// *checksum accumulates the chosen hints so the loop cannot be optimized
/// away.
double MeasureDecisionCost(core::ExplorationEngine& engine, int threads,
                           int batch, long decisions_per_thread,
                           long* checksum) {
  std::shared_ptr<const core::ServingSnapshot> snap = engine.snapshot();
  const int n = snap->num_queries();
  std::vector<long> sums(threads, 0);
  const double t0 = WallSeconds();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const uint64_t begin =
          static_cast<uint64_t>(t) * static_cast<uint64_t>(decisions_per_thread);
      const uint64_t end = begin + static_cast<uint64_t>(decisions_per_thread);
      long sum = 0;
      if (batch == 1) {
        for (uint64_t s = begin; s < end; ++s) {
          sum += snap->ChooseHint(static_cast<int>(s % n), s);
        }
      } else {
        std::vector<int> queries(batch);
        std::vector<int> hints(batch);
        for (uint64_t s = begin; s < end; s += static_cast<uint64_t>(batch)) {
          const size_t cnt = static_cast<size_t>(
              std::min<uint64_t>(static_cast<uint64_t>(batch), end - s));
          for (size_t i = 0; i < cnt; ++i) {
            queries[i] = static_cast<int>((s + i) % n);
          }
          snap->ChooseHints(std::span<const int>(queries.data(), cnt), s,
                            std::span<int>(hints.data(), cnt));
          for (size_t i = 0; i < cnt; ++i) sum += hints[i];
        }
      }
      sums[t] = sum;
    });
  }
  for (std::thread& t : workers) t.join();
  const double elapsed = WallSeconds() - t0;
  for (int t = 0; t < threads; ++t) *checksum += sums[t];
  return elapsed /
         (static_cast<double>(decisions_per_thread) * threads) * 1e9;
}

/// Publication cost as a function of matrix rows, in the steady state of
/// the free-running train loop between refits: each cycle folds
/// kObservationsPerPublication observations on random rows into the
/// snapshot chunks (Observe, timed as *fold_ns_out per observation), then
/// publishes (timed as the return value, ns per publication). Nothing is
/// reset between cycles, so every cost that accumulates across
/// publications — chunk copies, recycled-buffer reuse — is in the numbers.
constexpr int kObservationsPerPublication = 32;

double MeasurePublication(int n, int k, double* fold_ns_out) {
  core::WorkloadMatrix w(n, k);
  Rng fill(1234);
  for (int q = 0; q < n; ++q) {
    w.Observe(q, 0, fill.Uniform(0.1, 10.0));
    w.Observe(q, 1 + static_cast<int>(fill.NextUint64Below(k - 1)),
              fill.Uniform(0.05, 10.0));
  }
  core::ExplorationEngine engine(std::move(w), nullptr);

  Rng rng(5678);
  const int reps =
      std::max(64, static_cast<int>(2'000'000 / static_cast<long>(n)));
  double publish_s = 0.0;
  double fold_s = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = WallSeconds();
    for (int d = 0; d < kObservationsPerPublication; ++d) {
      engine.Observe(static_cast<int>(rng.NextUint64Below(n)),
                     1 + static_cast<int>(rng.NextUint64Below(k - 1)),
                     rng.Uniform(0.05, 10.0));
    }
    const double t1 = WallSeconds();
    engine.Publish();
    const double t2 = WallSeconds();
    fold_s += t1 - t0;
    publish_s += t2 - t1;
  }
  *fold_ns_out = fold_s / (static_cast<double>(reps) *
                           kObservationsPerPublication) * 1e9;
  return publish_s / reps * 1e9;
}

/// A predictor returning one canned prediction matrix: the serve-shaped
/// fold micro needs refits that swap predictions in without an ALS fit.
class CannedPredictor : public core::Predictor {
 public:
  CannedPredictor(int n, int k, uint64_t seed)
      : preds_(static_cast<size_t>(n), static_cast<size_t>(k)) {
    Rng rng(seed);
    for (size_t i = 0; i < preds_.size(); ++i) {
      preds_.data()[i] = rng.Uniform(0.05, 10.0);
    }
  }
  StatusOr<linalg::Matrix> Predict(const core::WorkloadMatrix&) override {
    return preds_;
  }
  std::string name() const override { return "Canned"; }

 private:
  linalg::Matrix preds_;
};

/// Serve-shaped drain cost at serve-large's shape (defaults plus 5% fill):
/// 90% of the observations re-observe the row's published verified best
/// with +-2% noise around its true latency, as steady serving does, and
/// 10% first-observe the row's predicted-best unobserved cell, as
/// exploration does. Each block reports kReobserveBlock observations
/// through the queue, then times the Drain that folds them
/// (*fold_ns_out, per observation) and publishes. Every eighth block a
/// refit swaps in new predictions and the publication after it is timed
/// (*refit_publish_ms_out, per publication). The random-cell fold micro
/// above almost never re-observes a best, so it misses the path where
/// noise makes the best "slower" and may force a row rescan.
constexpr int kReobserveBlock = 4096;
constexpr int kReobserveBlocks = 64;
constexpr int kReobserveRefitEvery = 8;

void MeasureReobserve(int n, int k, double* fold_ns_out,
                      double* refit_publish_ms_out) {
  Rng rng(2718);
  std::vector<double> truth(static_cast<size_t>(n) * k);
  for (double& t : truth) t = rng.Uniform(0.05, 10.0);
  core::WorkloadMatrix w(n, k);
  for (int q = 0; q < n; ++q) {
    for (int j = 0; j < k; ++j) {
      if (j == 0 || rng.NextDouble() < 0.05) {
        w.Observe(q, j, truth[static_cast<size_t>(q) * k + j]);
      }
    }
  }
  CannedPredictor predictor(n, k, 3141);
  // A whole block is reported before it is drained, so it must fit the
  // queue: a lapped Report would wait for a drain nobody runs.
  core::EngineOptions options;
  options.queue_capacity = kReobserveBlock;
  core::ExplorationEngine engine(std::move(w), &predictor, options);
  engine.RefreshPredictions(/*force=*/true);
  engine.Publish();

  uint64_t seq = 0;
  double fold_s = 0.0;
  double refit_publish_s = 0.0;
  int refit_publishes = 0;
  for (int block = 0; block < kReobserveBlocks; ++block) {
    const std::shared_ptr<const core::ServingSnapshot> snap =
        engine.snapshot();
    for (int i = 0; i < kReobserveBlock; ++i) {
      const int q = static_cast<int>(rng.NextUint64Below(n));
      int hint = snap->VerifiedHint(q);
      if (rng.NextDouble() < 0.1) {
        const int unobserved = snap->RowScan(q).best_unobserved;
        if (unobserved >= 0) hint = unobserved;
      }
      const double latency = truth[static_cast<size_t>(q) * k + hint] *
                             rng.Uniform(0.98, 1.02);
      engine.Report(snap->MakeObservation(seq++, q, hint, latency));
    }
    const double t0 = WallSeconds();
    engine.Drain();
    fold_s += WallSeconds() - t0;
    engine.Publish();
    if ((block + 1) % kReobserveRefitEvery == 0) {
      engine.RefreshPredictions(/*force=*/true);
      const double t1 = WallSeconds();
      engine.Publish();
      refit_publish_s += WallSeconds() - t1;
      ++refit_publishes;
    }
  }
  *fold_ns_out = fold_s /
                 (static_cast<double>(kReobserveBlocks) * kReobserveBlock) *
                 1e9;
  *refit_publish_ms_out = refit_publish_s / refit_publishes * 1e3;
}

/// How long a refit holds the train plane's drain lock: the copy-assign
/// of the live matrix into the engine's train-owned copy, at serve-large's
/// 20000x49. The matrix stores every default plus about 2/3 of the other
/// cells (a quarter of those censored). The copy is kept across refits, so
/// one untimed warm-up assignment grows its buffers first, as the engine's
/// first refit does. Returns the median of kLockedFits copies, in ms.
constexpr int kLockedFits = 7;

double MeasureRefitSetupLocked(int n, int k) {
  Rng rng(4096);
  core::WorkloadMatrix w(n, k);
  for (int q = 0; q < n; ++q) {
    w.Observe(q, 0, rng.Uniform(0.1, 10.0));
    for (int j = 1; j < k; ++j) {
      const double u = rng.NextDouble();
      if (u < 0.5) {
        w.Observe(q, j, rng.Uniform(0.05, 10.0));
      } else if (u < 2.0 / 3.0) {
        w.ObserveCensored(q, j, rng.Uniform(0.05, 10.0));
      }
    }
  }
  core::WorkloadMatrix fit_copy(0, k);
  std::vector<double> locked_ms;
  for (int fit = 0; fit <= kLockedFits; ++fit) {
    const double start = WallSeconds();
    fit_copy = w;
    if (fit > 0) locked_ms.push_back((WallSeconds() - start) * 1e3);
  }
  LIMEQO_CHECK(fit_copy.NumComplete() == w.NumComplete());
  std::sort(locked_ms.begin(), locked_ms.end());
  return locked_ms[locked_ms.size() / 2];
}

/// Checkpoint write cost vs matrix rows: one MakeCheckpoint +
/// crash-atomic SaveCheckpoint (serialize, write temp, fsync, rename).
/// This is what the free-running train loop pays every checkpoint_every
/// drained observations, so it has to stay far below the drain cadence.
double MeasureCheckpointWrite(int n, int k, const std::string& path) {
  core::WorkloadMatrix w(n, k);
  Rng fill(91);
  for (int q = 0; q < n; ++q) {
    w.Observe(q, 0, fill.Uniform(0.1, 10.0));
    w.Observe(q, 1 + static_cast<int>(fill.NextUint64Below(k - 1)),
              fill.Uniform(0.05, 10.0));
  }
  core::EngineOptions options;
  options.checkpoint_path = path;
  core::ExplorationEngine engine(std::move(w), nullptr, options);
  engine.Publish();

  const int reps = std::max(4, static_cast<int>(200'000 / std::max(1, n)));
  double timed = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = WallSeconds();
    if (!engine.SaveCheckpoint().ok()) return -1.0;
    timed += WallSeconds() - t0;
  }
  std::remove(path.c_str());
  return timed / reps * 1e9;
}

/// Warm vs cold restart: wall time from "state on disk" to "engine serving
/// with fresh predictions" after a crash. Both paths restart from disk —
/// the cold one from the matrix-only persistence that predates the
/// checkpoint subsystem (load observations, refit ALS from a random
/// initialization), the warm one from the engine checkpoint (load, restore,
/// refit resuming from the saved factors via CompleteFrom). The gap is the
/// crash-recovery win the checkpoint subsystem exists for: a warm refit
/// re-enters at the fixed point and stops after the patience window.
void MeasureRestore(const std::string& ckpt_path,
                    const std::string& matrix_path, double* warm_ms,
                    double* cold_ms, int* warm_sweeps, int* cold_sweeps) {
  constexpr int kRows = 2000;
  constexpr int kHints = 16;
  scenarios::ScenarioSpec spec;
  spec.num_queries = kRows;
  spec.num_hints = kHints;
  spec.latent_rank = 3;
  spec.structure_strength = 0.9;
  spec.noise_sigma = 0.05;
  spec.seed = 777;
  scenarios::SyntheticBackend backend(spec);
  core::WorkloadMatrix w(kRows, kHints);
  Rng cells(333);
  for (int q = 0; q < kRows; ++q) {
    w.Observe(q, 0, backend.TrueLatency(q, 0));
    for (int j = 1; j < kHints; ++j) {
      if (cells.NextDouble() < 0.3) w.Observe(q, j, backend.TrueLatency(q, j));
    }
  }
  core::AlsOptions als;
  als.rank = 3;
  als.iterations = 200;
  als.convergence_tol = 1e-4;
  als.seed = 7;
  core::CompleterPredictor fitted_predictor(
      std::make_unique<core::AlsCompleter>(als));
  core::ExplorationEngine fitted(w, &fitted_predictor);
  fitted.RefreshPredictions(/*force=*/true);
  if (!core::SaveEngineCheckpointToFile(fitted.MakeCheckpoint(), ckpt_path)
           .ok() ||
      !core::SaveWorkloadMatrixToFile(w, matrix_path).ok()) {
    *warm_ms = *cold_ms = -1.0;
    return;
  }

  constexpr int kReps = 5;
  double warm = 0.0;
  double cold = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    {
      const double t0 = WallSeconds();
      StatusOr<core::EngineCheckpoint> c =
          core::LoadEngineCheckpointFromFile(ckpt_path);
      auto completer = std::make_unique<core::AlsCompleter>(als);
      const core::AlsCompleter* sweeps = completer.get();
      core::CompleterPredictor predictor(std::move(completer));
      core::ExplorationEngine engine(core::WorkloadMatrix(1, kHints),
                                     &predictor);
      engine.RestoreFromCheckpoint(std::move(*c));
      engine.RefreshPredictions(/*force=*/true);
      warm += WallSeconds() - t0;
      *warm_sweeps = sweeps->last_iterations();
    }
    {
      const double t0 = WallSeconds();
      StatusOr<core::WorkloadMatrix> m =
          core::LoadWorkloadMatrixFromFile(matrix_path);
      auto completer = std::make_unique<core::AlsCompleter>(als);
      const core::AlsCompleter* sweeps = completer.get();
      core::CompleterPredictor predictor(std::move(completer));
      core::ExplorationEngine engine(std::move(*m), &predictor);
      engine.RefreshPredictions(/*force=*/true);
      engine.Publish();
      cold += WallSeconds() - t0;
      *cold_sweeps = sweeps->last_iterations();
    }
  }
  std::remove(ckpt_path.c_str());
  std::remove(matrix_path.c_str());
  *warm_ms = warm / kReps * 1e3;
  *cold_ms = cold / kReps * 1e3;
}

int Main(int argc, char** argv) {
  const std::string json_path =
      JsonPathFromArgs(argc, argv, "BENCH_serving.json");
  PrintBanner("bench_serving",
              "lock-free serving plane: servings/sec vs serving threads, "
              "snapshot staleness, steady-state publication and fold cost",
              "200-query synthetic world, warm-started ALS train plane");

  scenarios::ScenarioSpec spec;
  spec.name = "serving-bench";
  spec.num_queries = 200;
  spec.num_hints = 16;
  spec.latent_rank = 4;
  spec.structure_strength = 0.9;
  spec.noise_sigma = 0.02;
  spec.online_servings = 0;
  spec.seed = 4242;

  BenchReporter reporter;
  for (int threads : {1, 2, 4, 8}) {
    double staleness = 0.0;
    const double ns = MeasureServing(spec, threads, &staleness);
    reporter.Report("serving_ns_per_op", ns, kServingsPerConfig, threads);
    // Staleness is reported through the same record shape: the "ns" slot
    // carries the mean snapshot age in servings (see the name).
    reporter.Report("serving_snapshot_staleness_servings", staleness,
                    kServingsPerConfig, threads);
    std::printf("    %d thread(s): %.1f ns/serving (%.2fM servings/s), "
                "mean snapshot staleness %.1f servings\n",
                threads, ns, 1e3 / ns, staleness);
  }

  // Sharded tier sweep: shard count x train-refit linalg threads, one
  // serving thread running ServeFreeRunning, the fleet trained by one
  // 2-worker TrainExecutor. The s1r1 point is the router tax over the bare
  // 1-thread loop above (guarded <1.3x by tools/check_bench_regression.py),
  // s4r4 over s1r1 the fleet tax (guarded <1.6x); the "threads" slot of
  // the record carries the shard count.
  std::printf("\n  sharded tier (1 serving thread, routed protocol):\n");
  for (int shards : {1, 2, 4}) {
    for (int refit_threads : {1, 4}) {
      double refit_ns = 0.0;
      long refits = 0;
      const double ns = MeasureShardedServing(spec, shards, refit_threads,
                                              &refit_ns, &refits);
      char name[64];
      std::snprintf(name, sizeof(name), "sharded_serving_s%dr%d_ns_per_op",
                    shards, refit_threads);
      reporter.Report(name, ns, kServingsPerConfig, shards);
      std::snprintf(name, sizeof(name), "sharded_serving_s%dr%d_refit_ns",
                    shards, refit_threads);
      reporter.Report(name, refit_ns, refits, shards);
      std::printf(
          "    %d shard(s), %d refit thread(s): %.1f ns/serving "
          "(%.2fM servings/s), %ld refits @ %.2f ms\n",
          shards, refit_threads, ns, 1e3 / ns, refits, refit_ns / 1e6);
    }
  }

  // Pure decision cost: the kernel alone, over a pinned published
  // snapshot (no execution, queue traffic, or train thread). The scalar
  // number is the <100 ns ROADMAP target and the perf-smoke regression
  // metric; the batch sweep (choose_hints_b<batch>_ns, batch x threads)
  // shows what the batched entry point amortizes.
  std::printf("\n  pure decision cost (kernel only, pinned snapshot):\n");
  {
    WarmServingWorld world(spec);
    constexpr long kDecisionsPerThread = 2'000'000;
    long checksum = 0;
    for (int threads : {1, 2, 4}) {
      const double scalar_ns =
          MeasureDecisionCost(world.engine(), threads, /*batch=*/1,
                              kDecisionsPerThread, &checksum);
      reporter.Report("choose_hint_scalar_ns", scalar_ns,
                      kDecisionsPerThread, threads);
      std::printf("    scalar   %d thread(s): %6.1f ns/decision\n", threads,
                  scalar_ns);
      for (int batch : {8, 64, 256}) {
        const double batch_ns =
            MeasureDecisionCost(world.engine(), threads, batch,
                                kDecisionsPerThread, &checksum);
        char name[48];
        std::snprintf(name, sizeof(name), "choose_hints_b%d_ns", batch);
        reporter.Report(name, batch_ns, kDecisionsPerThread, threads);
        std::printf("    batch=%-3d %d thread(s): %6.1f ns/decision\n",
                    batch, threads, batch_ns);
      }
    }
    std::printf("    (checksum %ld)\n", checksum);
  }

  // Publication cost vs n (k fixed at 16): a publication copies the
  // chunk-pointer vector (n / 256 entries); the fold keeps each touched
  // row current in O(1), paying a chunk copy on the first write to a chunk
  // after a publication. The "threads" slot of the record carries
  // log10(n) so the sweep is self-describing in the JSON.
  std::printf("\n  publication cost (%d observations per publication, "
              "k=16):\n",
              kObservationsPerPublication);
  for (int n : {1000, 10000, 100000}) {
    double fold_ns = 0.0;
    const double publish_ns = MeasurePublication(n, 16, &fold_ns);
    const int log10n = n >= 100000 ? 5 : (n >= 10000 ? 4 : 3);
    reporter.Report("publish_ns", publish_ns, 1, log10n);
    reporter.Report("fold_ns_per_observation", fold_ns,
                    kObservationsPerPublication, log10n);
    std::printf("    n=%6d: %8.0f ns/publish, %6.1f ns/observation fold\n",
                n, publish_ns, fold_ns);
  }

  // Serve-shaped drain at serve-large's 20000x49: the fold that re-observes
  // verified bests under noise, and the publication after a refit.
  {
    double fold_ns = 0.0;
    double refit_publish_ms = 0.0;
    MeasureReobserve(20000, 49, &fold_ns, &refit_publish_ms);
    reporter.Report("fold_reobserve_ns", fold_ns,
                    kReobserveBlocks * kReobserveBlock, 1);
    reporter.Report("refit_publish_ms", refit_publish_ms,
                    kReobserveBlocks / kReobserveRefitEvery, 1);
    std::printf("\n  serve-shaped drain (20000x49, %d observations per "
                "publication):\n    %6.1f ns/observation fold, %.2f ms "
                "post-refit publish\n",
                kReobserveBlock, fold_ns, refit_publish_ms);
  }

  // The drain lock a refit holds at serve-large's shape: the span the
  // producers of a 20000x49 engine cannot drain.
  {
    const double locked_ms = MeasureRefitSetupLocked(20000, 49);
    reporter.Report("refit_setup_locked_ms", locked_ms, kLockedFits, 1);
    std::printf("\n  refit, drain lock held for the matrix copy "
                "(20000x49, 1 thread): %.2f ms (median of %d)\n",
                locked_ms, kLockedFits);
  }

  // Checkpoint write cost vs n (k=16): the train loop's per-cadence price
  // for crash consistency. Same log10(n) convention as the publication
  // sweep.
  std::printf("\n  checkpoint write cost (serialize + fsync + rename, k=16):\n");
  for (int n : {1000, 10000, 100000}) {
    const double ns =
        MeasureCheckpointWrite(n, 16, "/tmp/limeqo_bench_ckpt.tmp");
    const int log10n = n >= 100000 ? 5 : (n >= 10000 ? 4 : 3);
    reporter.Report("checkpoint_write_ns", ns, 1, log10n);
    std::printf("    n=%6d: %10.0f ns/checkpoint (%.2f ms)\n", n, ns,
                ns / 1e6);
  }

  // Warm vs cold restart from disk on a 2000-query world: checkpoint +
  // CompleteFrom resume vs matrix-only persistence + refit-from-scratch.
  // The "threads" slot carries 1 for warm, 0 for cold.
  double warm_ms = 0.0;
  double cold_ms = 0.0;
  int warm_sweeps = 0;
  int cold_sweeps = 0;
  MeasureRestore("/tmp/limeqo_bench_restore_ckpt.tmp",
                 "/tmp/limeqo_bench_restore_matrix.tmp", &warm_ms, &cold_ms,
                 &warm_sweeps, &cold_sweeps);
  reporter.Report("restore_warm_ms", warm_ms, 1, 1);
  reporter.Report("restore_cold_ms", cold_ms, 1, 0);
  std::printf(
      "\n  restart to serving-ready (2000 queries): warm (checkpoint) "
      "%.2f ms / %d ALS sweeps, cold (matrix-only) %.2f ms / %d sweeps "
      "(%.1fx)\n",
      warm_ms, warm_sweeps, cold_ms, cold_sweeps, cold_ms / warm_ms);

  if (!json_path.empty()) {
    if (reporter.WriteJson(json_path)) {
      std::printf("wrote %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace limeqo::bench

int main(int argc, char** argv) { return limeqo::bench::Main(argc, argv); }
