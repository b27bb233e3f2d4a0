// Differential test for the sparse-residual ALS sweep (src/core/als.cc).
//
// AlsCompleter never materializes the filled matrix W-hat of Algorithm 2;
// it runs each half-sweep through W-hat H = Q (H^T H) + S H with a residual
// S that lives on the stored cells only. This file keeps the dense-fill
// formulation as a test-only reference — W-hat filled with
// MultiplyTransposedInto plus an observed/censored scatter, factors updated
// with RidgeSolveInto / RidgeSolveTransposedInto — and checks, on random
// censored matrices across every CensoredMode x FitSpace x non_negative x
// cold/warm x validation on/off x fixed/converging configuration, that:
//   * one sweep from identical factors agrees to 1e-12 (relative);
//   * full completions agree to 1e-9 in log space, with identical sweep
//     counts;
//   * the output is bitwise equal at 1/2/4 threads and with or without a
//     borrowed arena;
// and that a warmed arena leaves the result matrix as the only
// allocation of a completion that scales with the problem.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/als.h"
#include "linalg/solve.h"

// Allocation accounting for the arena test: every global operator new adds
// its size while counting is on. The replacements stay out of line so the
// compiler never pairs an inlined free() with a new-expression.
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<size_t> g_allocated_bytes{0};
}  // namespace

[[gnu::noinline]] void* operator new(size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept {
  std::free(p);
}

namespace limeqo::core {
namespace {

// ---------------------------------------------------------------------------
// Dense-fill reference: Algorithm 2 with W-hat materialized every half-sweep.
// ---------------------------------------------------------------------------

constexpr double kEpsLatency = 1e-6;

double SafeLog(double v) { return std::log(std::max(v, kEpsLatency)); }

/// The fit problem as dense n x k matrices after the censored mode and
/// (optionally) the log-ratio transform.
struct DenseProblem {
  linalg::Matrix values;
  linalg::Matrix mask;
  linalg::Matrix thresholds;
  linalg::Matrix censored;
  std::vector<double> row_bias;
  std::vector<double> col_bias;
};

DenseProblem BuildDenseProblem(const WorkloadMatrix& w, CensoredMode mode) {
  DenseProblem p;
  p.values = w.values();
  p.mask = linalg::Matrix(w.num_queries(), w.num_hints());
  p.thresholds = linalg::Matrix(w.num_queries(), w.num_hints());
  p.censored = linalg::Matrix(w.num_queries(), w.num_hints());
  for (int i = 0; i < w.num_queries(); ++i) {
    for (int j = 0; j < w.num_hints(); ++j) {
      if (w.IsComplete(i, j)) p.mask(i, j) = 1.0;
      p.thresholds(i, j) = w.timeout(i, j);
      if (w.state(i, j) != CellState::kCensored) continue;
      if (mode == CensoredMode::kCensored) {
        p.censored(i, j) = 1.0;
      } else if (mode == CensoredMode::kNaiveObserved) {
        p.mask(i, j) = 1.0;
        p.values(i, j) = p.thresholds(i, j);
      }
    }
  }
  return p;
}

void DenseToLogRatio(DenseProblem* p, double bias_shrinkage) {
  const size_t n = p->values.rows();
  const size_t k = p->values.cols();
  double global_sum = 0.0;
  int global_count = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < k; ++j) {
      if (p->mask(i, j) > 0.0) {
        global_sum += SafeLog(p->values(i, j));
        ++global_count;
      }
    }
  }
  const double global_mean =
      global_count > 0 ? global_sum / global_count : 0.0;
  p->row_bias.assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (p->mask(i, 0) > 0.0) {
      p->row_bias[i] = SafeLog(p->values(i, 0));
      continue;
    }
    double sum = 0.0;
    int count = 0;
    for (size_t j = 0; j < k; ++j) {
      if (p->mask(i, j) > 0.0) {
        sum += SafeLog(p->values(i, j));
        ++count;
      }
    }
    p->row_bias[i] = count > 0 ? sum / count : global_mean;
  }
  p->col_bias.assign(k, 0.0);
  std::vector<double> col_sum(k, 0.0);
  std::vector<int> col_count(k, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < k; ++j) {
      if (p->mask(i, j) > 0.0) {
        col_sum[j] += SafeLog(p->values(i, j)) - p->row_bias[i];
        ++col_count[j];
      } else if (p->censored(i, j) > 0.0) {
        col_sum[j] += SafeLog(p->thresholds(i, j)) - p->row_bias[i];
        ++col_count[j];
      }
    }
  }
  for (size_t j = 0; j < k; ++j) {
    p->col_bias[j] = col_sum[j] / (col_count[j] + bias_shrinkage);
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < k; ++j) {
      p->values(i, j) = p->mask(i, j) > 0.0 ? SafeLog(p->values(i, j)) -
                                                  p->row_bias[i] -
                                                  p->col_bias[j]
                                            : 0.0;
      if (p->censored(i, j) > 0.0) {
        p->thresholds(i, j) =
            SafeLog(p->thresholds(i, j)) - p->row_bias[i] - p->col_bias[j];
      }
    }
  }
}

struct DenseFit {
  linalg::Matrix result;
  linalg::Matrix q;
  linalg::Matrix h;
  int iterations = 0;
};

/// The dense-fill completion: same set-up, initialization, validation
/// split, convergence rule and output as AlsCompleter, with every
/// half-sweep solving against the materialized W-hat.
DenseFit DenseReferenceComplete(const AlsOptions& o, const WorkloadMatrix& w,
                                const CompletionFactors* warm) {
  const size_t n = static_cast<size_t>(w.num_queries());
  const size_t k = static_cast<size_t>(w.num_hints());
  const size_t r = static_cast<size_t>(o.rank);
  const bool log_space = o.fit_space == FitSpace::kLogRatio;
  DenseProblem in = BuildDenseProblem(w, o.censored_mode);
  if (log_space) DenseToLogRatio(&in, o.bias_shrinkage);

  Rng val_rng(o.seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<std::pair<size_t, size_t>> validation;
  if (o.early_stopping && w.NumComplete() >= 20) {
    for (size_t i = 0; i < n; ++i) {
      double first_value = 0.0;
      bool have_first = false;
      bool diverse = false;
      for (size_t j = 0; j < k && !diverse; ++j) {
        if (!w.IsComplete(static_cast<int>(i), static_cast<int>(j))) continue;
        if (!have_first) {
          first_value = w.values()(i, j);
          have_first = true;
        } else if (w.values()(i, j) != first_value) {
          diverse = true;
        }
      }
      if (!diverse) continue;
      for (size_t j = 0; j < k; ++j) {
        if (w.IsComplete(static_cast<int>(i), static_cast<int>(j)) &&
            val_rng.Bernoulli(o.validation_fraction)) {
          validation.emplace_back(i, j);
          in.mask(i, j) = 0.0;
        }
      }
    }
  }

  const bool warm_compatible =
      warm != nullptr && !warm->empty() && warm->query_factors.cols() == r &&
      warm->hint_factors.cols() == r && warm->hint_factors.rows() == k &&
      warm->query_factors.rows() <= n;
  const size_t warm_rows = warm_compatible ? warm->query_factors.rows() : 0;
  auto row_mean = [&](size_t i, double fallback) {
    double sum = 0.0;
    int count = 0;
    for (size_t j = 0; j < k; ++j) {
      if (in.mask(i, j) > 0.0) {
        sum += in.values(i, j);
        ++count;
      }
    }
    return count > 0 ? sum / count : fallback;
  };
  Rng rng(o.seed);
  DenseFit fit;
  linalg::Matrix& q = fit.q;
  linalg::Matrix& h = fit.h;
  q = linalg::Matrix(n, r);
  h = linalg::Matrix(k, r);
  if (warm_compatible) {
    for (size_t i = 0; i < warm_rows; ++i) {
      for (size_t c = 0; c < r; ++c) q(i, c) = warm->query_factors(i, c);
    }
    for (size_t j = 0; j < k; ++j) {
      for (size_t c = 0; c < r; ++c) h(j, c) = warm->hint_factors(j, c);
    }
    for (size_t i = warm_rows; i < n; ++i) {
      if (log_space) {
        for (size_t c = 0; c < r; ++c) q(i, c) = rng.Uniform(-0.1, 0.1);
        continue;
      }
      const double scale = std::max(row_mean(i, 1.0), 1e-6) / r;
      for (size_t c = 0; c < r; ++c) q(i, c) = scale * rng.Uniform(0.6, 1.4);
    }
  } else if (log_space) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < r; ++c) q(i, c) = rng.Uniform(-0.1, 0.1);
    }
    for (size_t j = 0; j < k; ++j) {
      for (size_t c = 0; c < r; ++c) h(j, c) = rng.Uniform(-0.1, 0.1);
    }
  } else {
    double global_mean = 0.0;
    int count_obs = 0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < k; ++j) {
        if (in.mask(i, j) > 0.0) {
          global_mean += in.values(i, j);
          ++count_obs;
        }
      }
    }
    global_mean = std::max(global_mean / std::max(count_obs, 1), 1e-6);
    for (size_t i = 0; i < n; ++i) {
      const double scale = std::max(row_mean(i, global_mean), 1e-6) / r;
      for (size_t c = 0; c < r; ++c) q(i, c) = scale * rng.Uniform(0.6, 1.4);
    }
    for (size_t j = 0; j < k; ++j) {
      for (size_t c = 0; c < r; ++c) h(j, c) = rng.Uniform(0.6, 1.4);
    }
  }

  const bool clamp = o.censored_mode == CensoredMode::kCensored;
  linalg::Matrix w_hat;
  auto fill = [&]() {
    linalg::MultiplyTransposedInto(q, h, &w_hat);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < k; ++j) {
        if (in.mask(i, j) > 0.0) {
          w_hat(i, j) = in.values(i, j);
        } else if (clamp && in.censored(i, j) > 0.0 &&
                   w_hat(i, j) < in.thresholds(i, j)) {
          w_hat(i, j) = in.thresholds(i, j);
        }
      }
    }
  };
  auto validation_rmse = [&]() {
    double se = 0.0;
    for (const auto& [i, j] : validation) {
      double pred = 0.0;
      for (size_t c = 0; c < r; ++c) pred += q(i, c) * h(j, c);
      const double d = pred - in.values(i, j);
      se += d * d;
    }
    return std::sqrt(se / validation.size());
  };
  const bool non_negative = o.non_negative && !log_space;
  const bool converging = o.convergence_tol > 0.0;
  linalg::RidgeWorkspace ws;
  linalg::Matrix q_next, h_next;
  linalg::Matrix best_q = q, best_h = h;
  double best_val_rmse = std::numeric_limits<double>::infinity();
  if (converging && !validation.empty()) best_val_rmse = validation_rmse();
  int stalled_sweeps = 0;
  for (int iter = 0; iter < o.iterations; ++iter) {
    ++fit.iterations;
    fill();
    EXPECT_TRUE(linalg::RidgeSolveInto(w_hat, h, o.lambda, &ws, &q_next).ok());
    std::swap(q, q_next);
    if (non_negative) q.ClampMin(0.0);
    fill();
    EXPECT_TRUE(
        linalg::RidgeSolveTransposedInto(w_hat, q, o.lambda, &ws, &h_next)
            .ok());
    std::swap(h, h_next);
    if (non_negative) h.ClampMin(0.0);
    if (!validation.empty()) {
      const double val_rmse = validation_rmse();
      const bool improved_enough =
          val_rmse < best_val_rmse * (1.0 - o.convergence_tol);
      if (val_rmse < best_val_rmse) {
        best_val_rmse = val_rmse;
        best_q = q;
        best_h = h;
      }
      if (converging) {
        stalled_sweeps = improved_enough ? 0 : stalled_sweeps + 1;
        if (stalled_sweeps >= o.convergence_patience) break;
      }
    } else if (converging) {
      double delta = 0.0, norm = 0.0;
      for (size_t c = 0; c < q.size(); ++c) {
        const double d = q.data()[c] - q_next.data()[c];
        delta += d * d;
        norm += q.data()[c] * q.data()[c];
      }
      for (size_t c = 0; c < h.size(); ++c) {
        const double d = h.data()[c] - h_next.data()[c];
        delta += d * d;
        norm += h.data()[c] * h.data()[c];
      }
      if (std::sqrt(delta) <= o.convergence_tol * std::sqrt(norm) + 1e-30) {
        break;
      }
    }
  }
  if (!validation.empty()) {
    q = best_q;
    h = best_h;
    for (const auto& [i, j] : validation) in.mask(i, j) = 1.0;
  }

  double lo_ratio = 0.0, hi_ratio = 0.0;
  if (log_space) {
    bool any = false;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < k; ++j) {
        if (!w.IsComplete(static_cast<int>(i), static_cast<int>(j))) continue;
        const double x = SafeLog(w.values()(i, j)) - in.row_bias[i];
        if (!any || x < lo_ratio) lo_ratio = x;
        if (!any || x > hi_ratio) hi_ratio = x;
        any = true;
      }
    }
    lo_ratio -= 0.2;
    hi_ratio += 0.2;
  }
  fill();
  fit.result = w_hat;
  if (log_space) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < k; ++j) {
        double& out = fit.result(i, j);
        if (in.mask(i, j) > 0.0) {
          out = w.values()(i, j);
          continue;
        }
        out = std::exp(std::clamp(out + in.col_bias[j], lo_ratio, hi_ratio) +
                       in.row_bias[i]);
        if (clamp && in.censored(i, j) > 0.0) {
          out = std::max(out, w.timeout(i, j));
        }
      }
    }
  }
  return fit;
}

// ---------------------------------------------------------------------------
// Random censored matrices and the configuration grid.
// ---------------------------------------------------------------------------

/// A planted low-rank log-latency surface, observed the way exploration
/// observes it: most defaults, a random fill of complete cells (some
/// sharing the row's default value, as plan-equivalence classes do), and
/// censored cells whose timeout undercuts the true latency. Rows without a
/// default, with only censored cells, and with nothing at all exercise the
/// bias fallbacks.
WorkloadMatrix RandomCensoredMatrix(int n, int k, double fill, uint64_t seed) {
  Rng rng(seed);
  constexpr int kPlanted = 3;
  std::vector<double> hint_factor(static_cast<size_t>(k) * kPlanted);
  for (double& v : hint_factor) v = rng.NextGaussian() * 0.6;
  WorkloadMatrix w(n, k);
  for (int i = 0; i < n; ++i) {
    const double base = rng.LogNormal(0.0, 1.0);
    std::vector<double> query_factor(kPlanted);
    for (double& v : query_factor) v = rng.NextGaussian() * 0.6;
    const bool has_default = i % 17 != 3;
    for (int j = 0; j < k; ++j) {
      double z = 0.0;
      for (int d = 0; d < kPlanted; ++d) {
        z += query_factor[d] * hint_factor[static_cast<size_t>(j) * kPlanted + d];
      }
      const double latency = base * std::exp(z);
      if (j == 0) {
        if (has_default) w.Observe(i, 0, latency);
        continue;
      }
      const double u = rng.Uniform(0.0, 1.0);
      if (u < fill) {
        w.Observe(i, j, rng.Bernoulli(0.2) && has_default ? w.observed(i, 0)
                                                            : latency);
      } else if (u < 1.5 * fill) {
        w.ObserveCensored(i, j, latency * rng.Uniform(0.3, 0.9));
      }
    }
  }
  // Bias fallbacks: a censored-only row and an empty row.
  for (int j = 0; j < k; ++j) w.Clear(n - 1, j);
  for (int j = 0; j < k; ++j) w.Clear(n - 2, j);
  w.ObserveCensored(n - 2, 1, 3.0);
  w.ObserveCensored(n - 2, 2, 0.5);
  return w;
}

struct Config {
  CensoredMode mode;
  FitSpace space;
  bool non_negative;
  bool warm;
  bool validation;
  bool converging;

  AlsOptions Options(int rank) const {
    AlsOptions o;
    o.rank = rank;
    o.censored_mode = mode;
    o.fit_space = space;
    o.non_negative = non_negative;
    o.early_stopping = validation;
    o.convergence_tol = converging ? 1e-3 : 0.0;
    return o;
  }

  std::string Name() const {
    static const char* kModes[] = {"censored", "naive", "ignore"};
    return std::string(kModes[static_cast<int>(mode)]) +
           (space == FitSpace::kLogRatio ? "/log" : "/raw") +
           (non_negative ? "/nonneg" : "/signed") +
           (warm ? "/warm" : "/cold") + (validation ? "/val" : "/noval") +
           (converging ? "/converging" : "/fixed");
  }
};

std::vector<Config> AllConfigs() {
  std::vector<Config> configs;
  for (CensoredMode mode : {CensoredMode::kCensored,
                            CensoredMode::kNaiveObserved,
                            CensoredMode::kIgnore}) {
    for (FitSpace space : {FitSpace::kLogRatio, FitSpace::kRaw}) {
      for (bool non_negative : {true, false}) {
        for (bool warm : {false, true}) {
          for (bool validation : {true, false}) {
            for (bool converging : {false, true}) {
              configs.push_back(
                  {mode, space, non_negative, warm, validation, converging});
            }
          }
        }
      }
    }
  }
  return configs;
}

/// Warm-start factors for `w`: a short dense fit on the matrix, then
/// truncated by `dropped_rows` rows so the warm path also initializes
/// fresh rows.
CompletionFactors WarmFactors(const AlsOptions& base, const WorkloadMatrix& w,
                              size_t dropped_rows) {
  AlsOptions o = base;
  o.iterations = 3;
  o.convergence_tol = 0.0;
  o.seed = base.seed + 1;
  DenseFit fit = DenseReferenceComplete(o, w, nullptr);
  CompletionFactors factors;
  const size_t rows = fit.q.rows() - dropped_rows;
  const size_t r = fit.q.cols();
  factors.query_factors = linalg::Matrix(rows, r);
  std::copy(fit.q.data(), fit.q.data() + rows * r,
            factors.query_factors.data());
  factors.hint_factors = fit.h;
  return factors;
}

/// max |a - b| / max |b|.
double RelativeError(const linalg::Matrix& a, const linalg::Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double diff = 0.0, scale = 0.0;
  for (size_t c = 0; c < b.size(); ++c) {
    diff = std::max(diff, std::fabs(a.data()[c] - b.data()[c]));
    scale = std::max(scale, std::fabs(b.data()[c]));
  }
  return diff / std::max(scale, std::numeric_limits<double>::min());
}

/// max |log a - log b| over the predictions `a` against the reference fit.
/// In raw space a prediction q_i . h_j can be near (or, with signed
/// factors, below) zero, where the log is undefined and relative error
/// meaningless; there the difference is measured against the prediction's
/// own rounding scale, max(|b|, |q_i| |h_j|) with the reference factors'
/// row norms — |Δlog| to first order wherever the prediction is not small
/// against its factors.
double MaxLogError(const linalg::Matrix& a, const DenseFit& ref,
                   FitSpace space) {
  const linalg::Matrix& b = ref.result;
  const size_t r = ref.q.cols();
  auto row_norm = [r](const linalg::Matrix& m, size_t row) {
    return std::sqrt(std::inner_product(m.data() + row * r,
                                        m.data() + (row + 1) * r,
                                        m.data() + row * r, 0.0));
  };
  double worst = 0.0;
  for (size_t i = 0; i < b.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      const double x = a(i, j), y = b(i, j);
      if (x == y) continue;
      const double err =
          space == FitSpace::kLogRatio
              ? std::fabs(std::log(x) - std::log(y))
              : std::fabs(x - y) /
                    std::max(std::fabs(y),
                             row_norm(ref.q, i) * row_norm(ref.h, j));
      worst = std::max(worst, err);
    }
  }
  return worst;
}

bool BitwiseEqual(const linalg::Matrix& a, const linalg::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

constexpr int kRows = 90;
constexpr int kHints = 14;
constexpr int kRank = 4;
constexpr size_t kDroppedRows = 5;

// ---------------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------------

TEST(AlsSparseResidualTest, OneSweepMatchesDenseFillFromIdenticalFactors) {
  SetNumThreads(1);
  const WorkloadMatrix w = RandomCensoredMatrix(kRows, kHints, 0.15, 101);
  for (const Config& config : AllConfigs()) {
    SCOPED_TRACE(config.Name());
    AlsOptions o = config.Options(kRank);
    o.iterations = 1;
    // A single sweep from the warm factors (all rows) or from the shared
    // cold initialization: both sides start from identical factors.
    CompletionFactors warm;
    if (config.warm) warm = WarmFactors(o, w, 0);
    const DenseFit ref =
        DenseReferenceComplete(o, w, config.warm ? &warm : nullptr);
    AlsCompleter als(o);
    CompletionFactors factors = warm;
    ASSERT_TRUE(als.CompleteFrom(w, config.warm ? &factors : nullptr).ok());
    EXPECT_LE(RelativeError(als.query_factors(), ref.q), 1e-12);
    EXPECT_LE(RelativeError(als.hint_factors(), ref.h), 1e-12);
  }
}

TEST(AlsSparseResidualTest, FullCompletionMatchesDenseFill) {
  SetNumThreads(1);
  double worst = 0.0;
  for (uint64_t seed : {202u, 303u}) {
    const WorkloadMatrix w = RandomCensoredMatrix(kRows, kHints, 0.15, seed);
    for (const Config& config : AllConfigs()) {
      SCOPED_TRACE(config.Name() + " seed " + std::to_string(seed));
      const AlsOptions o = config.Options(kRank);
      CompletionFactors warm;
      if (config.warm) warm = WarmFactors(o, w, kDroppedRows);
      const DenseFit ref =
          DenseReferenceComplete(o, w, config.warm ? &warm : nullptr);
      AlsCompleter als(o);
      CompletionFactors factors = warm;
      StatusOr<linalg::Matrix> got =
          als.CompleteFrom(w, config.warm ? &factors : nullptr);
      ASSERT_TRUE(got.ok());
      const double err = MaxLogError(*got, ref, config.space);
      worst = std::max(worst, err);
      EXPECT_LE(err, 1e-9);
      EXPECT_EQ(als.last_iterations(), ref.iterations);
      // Observed and held-out cells pass through bitwise.
      for (int i = 0; i < kRows; ++i) {
        for (int j = 0; j < kHints; ++j) {
          if (w.IsComplete(i, j)) {
            EXPECT_EQ((*got)(i, j), w.observed(i, j));
          }
        }
      }
    }
  }
  std::printf("    worst prediction difference vs dense fill: %.3g\n", worst);
}

TEST(AlsSparseResidualTest, BitwiseAcrossThreadCountsAndArenas) {
  // Large enough that the row passes split into several chunks.
  const WorkloadMatrix w = RandomCensoredMatrix(2400, 32, 0.08, 404);
  const WorkloadMatrix other = RandomCensoredMatrix(300, 32, 0.2, 405);
  CompletionArena arena;
  for (const Config& config : AllConfigs()) {
    if (config.non_negative && config.space == FitSpace::kLogRatio) continue;
    SCOPED_TRACE(config.Name());
    AlsOptions o = config.Options(kRank);
    o.iterations = 8;
    CompletionFactors warm;
    if (config.warm) warm = WarmFactors(o, w, 40);
    auto run = [&](int threads, CompletionArena* borrowed) {
      SetNumThreads(threads);
      AlsCompleter als(o);
      if (borrowed != nullptr) {
        // Dirty the arena with a different shape first: results must not
        // depend on what it held.
        als.SetArena(borrowed);
        EXPECT_TRUE(als.Complete(other).ok());
      }
      CompletionFactors factors = warm;
      StatusOr<linalg::Matrix> out =
          als.CompleteFrom(w, config.warm ? &factors : nullptr);
      EXPECT_TRUE(out.ok());
      SetNumThreads(1);
      return std::make_pair(*out, als.last_iterations());
    };
    const auto reference = run(1, nullptr);
    for (int threads : {1, 2, 4}) {
      for (CompletionArena* borrowed : {static_cast<CompletionArena*>(nullptr),
                                        &arena}) {
        const auto got = run(threads, borrowed);
        EXPECT_TRUE(BitwiseEqual(got.first, reference.first))
            << threads << " threads, arena " << (borrowed != nullptr);
        EXPECT_EQ(got.second, reference.second);
      }
    }
  }
}

TEST(AlsSparseResidualTest, WarmArenaAllocatesOnlyTheResult) {
  SetNumThreads(1);
  const WorkloadMatrix w = RandomCensoredMatrix(2000, 49, 0.05, 505);
  AlsOptions o;
  o.rank = 10;
  o.convergence_tol = 1e-3;
  AlsCompleter als(o);
  CompletionArena arena;
  als.SetArena(&arena);
  CompletionFactors factors;
  ASSERT_TRUE(als.CompleteFrom(w, &factors).ok());  // warm-up
  ASSERT_TRUE(als.CompleteFrom(w, &factors).ok());
  g_allocated_bytes.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
  StatusOr<linalg::Matrix> out = als.CompleteFrom(w, &factors);
  g_count_allocations.store(false, std::memory_order_relaxed);
  ASSERT_TRUE(out.ok());
  const size_t result_bytes = out->size() * sizeof(double);
  // Beyond the result only fixed-size dispatch objects may allocate; a
  // dense n x k scratch matrix or a rebuilt cell list would not fit.
  EXPECT_LE(g_allocated_bytes.load(std::memory_order_relaxed),
            result_bytes + 64 * 1024);
}

}  // namespace
}  // namespace limeqo::core
