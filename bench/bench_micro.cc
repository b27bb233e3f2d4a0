// Micro-benchmarks for the per-step costs behind the paper's overhead
// analysis (Figs. 7 and 13): the linalg kernels on the ALS/SVT hot path,
// one full ALS completion at 1 and N threads, one SVD, one TCNN training
// epoch + inference pass, and one GP fit. These are the primitives whose
// cost ratio produces the paper's "linear methods are 360x cheaper"
// headline.
//
// Results are written as machine-readable JSON (default BENCH_micro.json,
// override with --json=<path>) so the perf trajectory is tracked commit to
// commit. The rank-10 ALS completion of a 1000x49 matrix at 10% fill is the
// acceptance workload for the threaded linalg core; the rank-5 1566x49
// completion at ~24% stored cells is offline-ceb's per-round model cost.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bayesqo/gaussian_process.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/als.h"
#include "linalg/solve.h"
#include "linalg/svd.h"
#include "nn/tcnn.h"
#include "plan/featurize.h"
#include "workloads/workloads.h"

namespace limeqo::bench {
namespace {

/// A synthetic 1000x49 workload-shaped matrix: defaults observed plus a 10%
/// random fill, the regime ALS sees during exploration.
core::WorkloadMatrix MakeSyntheticMatrix(int n, int k, double fill) {
  core::WorkloadMatrix w(n, k);
  Rng rng(5);
  for (int i = 0; i < n; ++i) {
    w.Observe(i, 0, rng.Uniform(0.1, 10.0));
    for (int j = 1; j < k; ++j) {
      if (rng.Bernoulli(fill)) w.Observe(i, j, rng.Uniform(0.01, 10.0));
    }
  }
  return w;
}

void LinalgBenches(BenchReporter* reporter) {
  Rng rng(7);
  const linalg::Matrix a = linalg::Matrix::Random(1000, 49, &rng);
  const linalg::Matrix b = linalg::Matrix::Random(49, 200, &rng);
  const linalg::Matrix q = linalg::Matrix::Random(1000, 10, &rng);
  const linalg::Matrix h = linalg::Matrix::Random(49, 10, &rng);
  linalg::Matrix out;
  long iters = 0;
  double ns = TimeNsPerOp([&] { linalg::MultiplyInto(a, b, &out); }, 0.3,
                          &iters);
  reporter->Report("matmul_into_1000x49x200", ns, iters);

  ns = TimeNsPerOp([&] { linalg::MultiplyTransposedInto(q, h, &out); }, 0.3,
                   &iters);
  reporter->Report("multiply_transposed_into_1000x10_49x10", ns, iters);

  linalg::RidgeWorkspace ws;
  linalg::Matrix x;
  ns = TimeNsPerOp([&] { linalg::RidgeSolveInto(a, h, 0.2, &ws, &x); }, 0.3,
                   &iters);
  reporter->Report("ridge_solve_into_1000x49_rank10", ns, iters);

  ns = TimeNsPerOp([&] { linalg::SingularValues(a); }, 0.3, &iters);
  reporter->Report("svd_singular_values_1000x49", ns, iters);
}

void AlsBenches(BenchReporter* reporter) {
  core::WorkloadMatrix w = MakeSyntheticMatrix(1000, 49, 0.1);
  core::AlsOptions options;
  options.rank = 10;
  const int n_threads = std::max(
      4, static_cast<int>(std::thread::hardware_concurrency()));
  for (int threads : {1, n_threads}) {
    SetNumThreads(threads);
    core::AlsCompleter als(options);
    long iters = 0;
    const double ns = TimeNsPerOp([&] { (void)als.Complete(w); }, 1.0, &iters);
    reporter->Report("als_complete_rank10_1000x49", ns, iters, threads);
  }
  SetNumThreads(1);
}

/// offline-ceb's completion shape: the cold fixed-t rank-5 censored ALS
/// that LimeQO runs inside every SelectBatch round on CEB at half scale
/// (1566 queries x 49 hints). The default column is observed on every
/// row; ~20% of the other cells are complete and ~4% censored, so ~24% of
/// the cells are stored, the average density of offline-ceb's
/// completions. Timed at 1 and 3 threads (the offline explorer's pool).
void AlsCebShapeBenches(BenchReporter* reporter) {
  constexpr int n = 1566;
  constexpr int k = 49;
  Rng rng(21);
  core::WorkloadMatrix w(n, k);
  for (int i = 0; i < n; ++i) {
    const double base = rng.LogNormal(0.0, 1.5);
    w.Observe(i, 0, base);
    for (int j = 1; j < k; ++j) {
      const double latency = base * rng.LogNormal(0.0, 0.7);
      if (rng.Bernoulli(0.2)) {
        w.Observe(i, j, latency);
      } else if (rng.Bernoulli(0.05)) {
        w.ObserveCensored(i, j, 0.5 * latency);
      }
    }
  }
  core::AlsOptions options;
  options.rank = 5;
  options.censored_mode = core::CensoredMode::kCensored;
  for (int threads : {1, 3}) {
    SetNumThreads(threads);
    core::AlsCompleter als(options);
    long iters = 0;
    const double ns = TimeNsPerOp([&] { (void)als.Complete(w); }, 1.0, &iters);
    reporter->Report("als_complete_rank5_1566x49_ceb", ns, iters, threads);
  }
  SetNumThreads(1);
}

/// Warm-started vs cold refits on the train plane's refresh path: a
/// structured (planted low-rank) 1000x49 surface at 10% fill, completed
/// with the convergence criterion on. The warm fit starts from the
/// previous factors (the CompleteFrom contract) and exits after the
/// patience window; the cold fit first has to climb out of its random
/// initialization. This is the per-refresh cost the serving engine pays
/// every refresh_every observations.
void AlsRefreshBenches(BenchReporter* reporter) {
  constexpr int n = 1000;
  constexpr int k = 49;
  constexpr int planted_rank = 4;
  Rng rng(11);
  std::vector<double> hint_factor(static_cast<size_t>(k) * planted_rank);
  for (double& v : hint_factor) v = rng.NextGaussian() * 0.5;
  core::WorkloadMatrix w(n, k);
  for (int i = 0; i < n; ++i) {
    const double base = rng.LogNormal(0.0, 1.0);
    std::vector<double> qf(planted_rank);
    for (double& v : qf) v = rng.NextGaussian() * 0.5;
    for (int j = 0; j < k; ++j) {
      double z = 0.0;
      for (int d = 0; d < planted_rank; ++d) {
        z += qf[d] * hint_factor[static_cast<size_t>(j) * planted_rank + d];
      }
      const double latency = std::max(base * std::exp(1.2 * z), 1e-4);
      if (j == 0 || rng.Bernoulli(0.1)) w.Observe(i, j, latency);
    }
  }

  core::AlsOptions options;
  options.rank = 10;
  options.convergence_tol = 1e-3;
  core::AlsCompleter als(options);
  core::CompletionFactors steady;
  (void)als.CompleteFrom(w, &steady);  // reach the steady state once

  long iters = 0;
  double ns = TimeNsPerOp(
      [&] {
        core::CompletionFactors factors = steady;
        (void)als.CompleteFrom(w, &factors);
      },
      0.5, &iters);
  const int warm_sweeps = als.last_iterations();
  reporter->Report("als_refresh_warm_rank10_1000x49", ns, iters);

  ns = TimeNsPerOp([&] { (void)als.CompleteFrom(w, nullptr); }, 0.5, &iters);
  const int cold_sweeps = als.last_iterations();
  reporter->Report("als_refresh_cold_rank10_1000x49", ns, iters);
  std::printf("    (warm refit: %d sweeps, cold refit: %d sweeps)\n",
              warm_sweeps, cold_sweeps);
}

void NeuralAndGpBenches(BenchReporter* reporter) {
  simdb::SimulatedDatabase db(
      std::move(workloads::MakeWorkload(workloads::WorkloadId::kJob, 1.0, 42))
          .value());

  nn::TcnnOptions options = BenchTcnnOptions();
  options.max_epochs = 1;
  nn::TcnnModel model(db.num_queries(), db.num_hints(), options);
  std::vector<std::unique_ptr<plan::FlatPlan>> flats;
  std::vector<nn::TcnnSample> samples;
  Rng rng(9);
  for (int s = 0; s < 128; ++s) {
    const int i = static_cast<int>(rng.NextUint64Below(db.num_queries()));
    const int j = static_cast<int>(rng.NextUint64Below(db.num_hints()));
    flats.push_back(
        std::make_unique<plan::FlatPlan>(plan::FlattenPlan(db.Plan(i, j))));
    samples.push_back(nn::TcnnSample{flats.back().get(), i, j,
                                     std::log1p(db.TrueLatency(i, j)), false});
  }
  long iters = 0;
  double ns = TimeNsPerOp([&] { (void)model.Train(samples); }, 1.0, &iters);
  reporter->Report("tcnn_train_epoch_128_samples", ns, iters);

  plan::FlatPlan flat = plan::FlattenPlan(db.Plan(0, 1));
  ns = TimeNsPerOp([&] { (void)model.Predict(flat, 0, 1); }, 0.3, &iters);
  reporter->Report("tcnn_inference", ns, iters);

  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  for (int i = 0; i < 20; ++i) {
    std::vector<double> xrow(6);
    for (double& vv : xrow) vv = rng.Bernoulli(0.5) ? 1.0 : 0.0;
    xs.push_back(xrow);
    ys.push_back(rng.Uniform(0.1, 10.0));
  }
  ns = TimeNsPerOp(
      [&] {
        bayesqo::GaussianProcess gp{bayesqo::GpOptions{}};
        (void)gp.Fit(xs, ys);
      },
      0.3, &iters);
  reporter->Report("gaussian_process_fit_20x6", ns, iters);
}

int Main(int argc, char** argv) {
  const std::string json_path =
      JsonPathFromArgs(argc, argv, "BENCH_micro.json");
  PrintBanner("bench_micro",
              "per-step costs of the exploration-loop primitives",
              "ALS acceptance workload: rank-10, 1000x49, 10% fill");
  BenchReporter reporter;
  LinalgBenches(&reporter);
  AlsBenches(&reporter);
  AlsCebShapeBenches(&reporter);
  AlsRefreshBenches(&reporter);
  NeuralAndGpBenches(&reporter);
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
