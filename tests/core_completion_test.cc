#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/als.h"
#include "core/explorer.h"
#include "core/nuclear_norm.h"
#include "core/policy.h"
#include "core/predictor.h"
#include "core/simdb_backend.h"
#include "core/svt.h"
#include "linalg/svd.h"
#include "workloads/workloads.h"

namespace limeqo::core {
namespace {

/// Builds a random non-negative rank-r ground truth and a WorkloadMatrix
/// with a fraction p of entries observed.
struct PlantedProblem {
  linalg::Matrix truth;
  WorkloadMatrix observed;
};

PlantedProblem MakePlanted(int n, int k, int rank, double p, uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix q = linalg::Matrix::Random(n, rank, &rng, 0.1, 1.0);
  linalg::Matrix h = linalg::Matrix::Random(k, rank, &rng, 0.1, 1.0);
  PlantedProblem prob{q * h.Transposed(), WorkloadMatrix(n, k)};
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < k; ++j) {
      if (rng.Bernoulli(p)) prob.observed.Observe(i, j, prob.truth(i, j));
    }
  }
  // Guarantee at least one observation.
  prob.observed.Observe(0, 0, prob.truth(0, 0));
  return prob;
}

double UnobservedRmse(const PlantedProblem& prob, const linalg::Matrix& est) {
  double se = 0.0;
  int count = 0;
  for (int i = 0; i < prob.observed.num_queries(); ++i) {
    for (int j = 0; j < prob.observed.num_hints(); ++j) {
      if (!prob.observed.IsComplete(i, j)) {
        const double d = est(i, j) - prob.truth(i, j);
        se += d * d;
        ++count;
      }
    }
  }
  return std::sqrt(se / std::max(count, 1));
}

double TruthScale(const PlantedProblem& prob) {
  return prob.truth.FrobeniusNorm() /
         std::sqrt(static_cast<double>(prob.truth.size()));
}

/// The threaded linalg core must not make completion results depend on the
/// thread count: LIMEQO_THREADS=1 and LIMEQO_THREADS=8 (here pinned via
/// SetNumThreads) have to produce bitwise-identical output.
TEST(AlsTest, CompleteIsBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(77);
  PlantedProblem prob = MakePlanted(120, 40, 4, 0.15, 7);
  // Mix in censored observations so the clamp path runs threaded too.
  for (int i = 0; i < prob.observed.num_queries(); ++i) {
    for (int j = 0; j < prob.observed.num_hints(); ++j) {
      if (prob.observed.IsUnobserved(i, j) && rng.Bernoulli(0.05)) {
        prob.observed.ObserveCensored(i, j, prob.truth(i, j) * 0.5);
      }
    }
  }
  for (FitSpace space : {FitSpace::kLogRatio, FitSpace::kRaw}) {
    AlsOptions opt;
    opt.rank = 4;
    opt.fit_space = space;
    SetNumThreads(1);
    AlsCompleter als_single(opt);
    StatusOr<linalg::Matrix> single = als_single.Complete(prob.observed);
    ASSERT_TRUE(single.ok());
    SetNumThreads(8);
    AlsCompleter als_multi(opt);
    StatusOr<linalg::Matrix> multi = als_multi.Complete(prob.observed);
    ASSERT_TRUE(multi.ok());
    SetNumThreads(1);
    ASSERT_EQ(single->size(), multi->size());
    EXPECT_EQ(std::memcmp(single->data(), multi->data(),
                          single->size() * sizeof(double)),
              0)
        << "ALS output depends on the thread count (fit_space="
        << static_cast<int>(space) << ")";
  }
}

TEST(SvtTest, CompleteIsBitwiseIdenticalAcrossThreadCounts) {
  PlantedProblem prob = MakePlanted(80, 30, 3, 0.3, 9);
  SetNumThreads(1);
  SvtCompleter svt_single;
  StatusOr<linalg::Matrix> single = svt_single.Complete(prob.observed);
  ASSERT_TRUE(single.ok());
  SetNumThreads(8);
  SvtCompleter svt_multi;
  StatusOr<linalg::Matrix> multi = svt_multi.Complete(prob.observed);
  ASSERT_TRUE(multi.ok());
  SetNumThreads(1);
  ASSERT_EQ(single->size(), multi->size());
  EXPECT_EQ(std::memcmp(single->data(), multi->data(),
                        single->size() * sizeof(double)),
            0)
      << "SVT output depends on the thread count";
}

TEST(AlsTest, RecoversPlantedLowRankMatrix) {
  PlantedProblem prob = MakePlanted(60, 30, 3, 0.5, 1);
  AlsOptions opt;
  opt.rank = 3;
  AlsCompleter als(opt);
  StatusOr<linalg::Matrix> est = als.Complete(prob.observed);
  ASSERT_TRUE(est.ok());
  EXPECT_LT(UnobservedRmse(prob, *est), 0.1 * TruthScale(prob));
}

TEST(AlsTest, ObservedEntriesPassThrough) {
  PlantedProblem prob = MakePlanted(20, 10, 2, 0.4, 2);
  AlsCompleter als;
  StatusOr<linalg::Matrix> est = als.Complete(prob.observed);
  ASSERT_TRUE(est.ok());
  for (int i = 0; i < 20; ++i) {
    for (int j = 0; j < 10; ++j) {
      if (prob.observed.IsComplete(i, j)) {
        EXPECT_DOUBLE_EQ((*est)(i, j), prob.truth(i, j));
      }
    }
  }
}

TEST(AlsTest, FactorsAreNonNegativeInRawSpace) {
  PlantedProblem prob = MakePlanted(30, 15, 3, 0.5, 3);
  AlsOptions opt;
  opt.fit_space = FitSpace::kRaw;  // Algorithm 2 verbatim
  AlsCompleter als(opt);
  ASSERT_TRUE(als.Complete(prob.observed).ok());
  EXPECT_GE(als.query_factors().data()[0], -1e-12);
  for (size_t i = 0; i < als.query_factors().size(); ++i) {
    EXPECT_GE(als.query_factors().data()[i], 0.0);
  }
  for (size_t i = 0; i < als.hint_factors().size(); ++i) {
    EXPECT_GE(als.hint_factors().data()[i], 0.0);
  }
}

TEST(AlsTest, PredictionsAreNonNegativeUnderNonNegOption) {
  PlantedProblem prob = MakePlanted(30, 15, 3, 0.3, 4);
  AlsCompleter als;
  StatusOr<linalg::Matrix> est = als.Complete(prob.observed);
  ASSERT_TRUE(est.ok());
  for (size_t i = 0; i < est->size(); ++i) {
    EXPECT_GE(est->data()[i], 0.0);
  }
}

TEST(AlsTest, ErrorsWithoutObservations) {
  WorkloadMatrix w(5, 5);
  AlsCompleter als;
  EXPECT_FALSE(als.Complete(w).ok());
}

TEST(AlsTest, NonFiniteInputsAndFitsFail) {
  // +Inf passes WorkloadMatrix's latency >= 0 check; ALS must refuse it
  // rather than return non-finite predictions.
  PlantedProblem prob = MakePlanted(30, 8, 2, 0.5, 5);
  prob.observed.Observe(4, 3, std::numeric_limits<double>::infinity());
  for (FitSpace space : {FitSpace::kLogRatio, FitSpace::kRaw}) {
    AlsOptions opt;
    opt.fit_space = space;
    AlsCompleter als(opt);
    EXPECT_FALSE(als.Complete(prob.observed).ok());
  }
  // Finite latencies whose raw-space Gram overflows: without the
  // early-stopping guard (which would keep the finite initial factors) the
  // swept factors leave the reals, and the completion fails instead of
  // publishing them.
  WorkloadMatrix huge(30, 8);
  for (int i = 0; i < 30; ++i) {
    for (int j = 0; j < 8; ++j) huge.Observe(i, j, 1e300 * (1 + i + j));
  }
  AlsOptions raw;
  raw.fit_space = FitSpace::kRaw;
  raw.early_stopping = false;
  AlsCompleter als(raw);
  StatusOr<linalg::Matrix> out = als.Complete(huge);
  EXPECT_FALSE(out.ok());
}

TEST(AlsTest, NonFiniteLatenciesFailOnlyWhereTheFitStoresThem) {
  // The finiteness check covers exactly the cells the fit stores.
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    bool complete;  // +Inf complete cell, else +Inf timeout
    CensoredMode mode;
    bool ok;
  };
  const Case cases[] = {
      {false, CensoredMode::kCensored, false},
      {false, CensoredMode::kNaiveObserved, false},
      {false, CensoredMode::kIgnore, true},
      {true, CensoredMode::kCensored, false},
      {true, CensoredMode::kNaiveObserved, false},
      {true, CensoredMode::kIgnore, false},
  };
  for (const Case& c : cases) {
    for (FitSpace space : {FitSpace::kLogRatio, FitSpace::kRaw}) {
      SCOPED_TRACE(testing::Message()
                   << "complete=" << c.complete << " mode="
                   << static_cast<int>(c.mode)
                   << " log=" << (space == FitSpace::kLogRatio));
      PlantedProblem prob = MakePlanted(30, 8, 2, 0.5, 5);
      prob.observed.Clear(4, 3);
      if (c.complete) {
        prob.observed.Observe(4, 3, inf);
      } else {
        prob.observed.ObserveCensored(4, 3, inf);
      }
      AlsOptions opt;
      opt.fit_space = space;
      opt.censored_mode = c.mode;
      AlsCompleter als(opt);
      StatusOr<linalg::Matrix> out = als.Complete(prob.observed);
      EXPECT_EQ(out.ok(), c.ok);
      if (out.ok()) {
        for (size_t i = 0; i < out->size(); ++i) {
          EXPECT_TRUE(std::isfinite(out->data()[i]));
        }
      }
    }
  }
}

TEST(AlsTest, CensoredClampRaisesPredictions) {
  // A cell censored at a threshold far above the low-rank prediction must
  // be predicted at or near the threshold by the censored mode, while the
  // ignore mode stays near the (too low) low-rank value.
  PlantedProblem prob = MakePlanted(40, 20, 2, 0.6, 5);
  const double huge = 50.0 * TruthScale(prob);
  prob.observed.Clear(3, 4);  // ensure the cell is not already complete
  prob.observed.ObserveCensored(3, 4, huge);

  AlsOptions censored_opt;
  censored_opt.censored_mode = CensoredMode::kCensored;
  AlsCompleter censored(censored_opt);
  StatusOr<linalg::Matrix> est_c = censored.Complete(prob.observed);
  ASSERT_TRUE(est_c.ok());

  AlsOptions ignore_opt;
  ignore_opt.censored_mode = CensoredMode::kIgnore;
  AlsCompleter ignore(ignore_opt);
  StatusOr<linalg::Matrix> est_i = ignore.Complete(prob.observed);
  ASSERT_TRUE(est_i.ok());

  EXPECT_GT((*est_c)(3, 4), (*est_i)(3, 4));
}

TEST(AlsTest, NaiveObservedTreatsTimeoutAsTruth) {
  PlantedProblem prob = MakePlanted(30, 15, 2, 0.6, 6);
  prob.observed.Clear(2, 2);
  prob.observed.ObserveCensored(2, 2, 7.0);
  AlsOptions opt;
  opt.censored_mode = CensoredMode::kNaiveObserved;
  AlsCompleter als(opt);
  StatusOr<linalg::Matrix> est = als.Complete(prob.observed);
  ASSERT_TRUE(est.ok());
  // Naive mode passes the timeout through as an observed value.
  EXPECT_DOUBLE_EQ((*est)(2, 2), 7.0);
}

TEST(AlsTest, LogRatioRecoversScaleHeterogeneousMatrix) {
  // Rows spanning orders of magnitude: raw-space least squares is dominated
  // by the largest rows, the log-ratio space is scale-free.
  Rng rng(31);
  PlantedProblem prob = MakePlanted(60, 30, 3, 0.4, 31);
  for (int i = 0; i < 60; ++i) {
    const double scale = std::exp(rng.Gaussian(0.0, 2.0));
    for (int j = 0; j < 30; ++j) {
      prob.truth(i, j) *= scale;
      if (prob.observed.IsComplete(i, j)) {
        prob.observed.Clear(i, j);
        prob.observed.Observe(i, j, prob.truth(i, j));
      }
    }
  }
  AlsOptions opt;
  opt.fit_space = FitSpace::kLogRatio;
  AlsCompleter als(opt);
  StatusOr<linalg::Matrix> est = als.Complete(prob.observed);
  ASSERT_TRUE(est.ok());
  // Scale-free accuracy metric: mean relative error on unobserved cells.
  double rel = 0.0;
  int count = 0;
  for (int i = 0; i < 60; ++i) {
    for (int j = 0; j < 30; ++j) {
      if (!prob.observed.IsComplete(i, j)) {
        rel += std::abs((*est)(i, j) - prob.truth(i, j)) / prob.truth(i, j);
        ++count;
      }
    }
  }
  EXPECT_LT(rel / count, 0.25);
}

TEST(AlsTest, LogRatioPredictionsArePositive) {
  PlantedProblem prob = MakePlanted(30, 15, 3, 0.3, 32);
  AlsOptions opt;
  opt.fit_space = FitSpace::kLogRatio;
  AlsCompleter als(opt);
  StatusOr<linalg::Matrix> est = als.Complete(prob.observed);
  ASSERT_TRUE(est.ok());
  for (size_t i = 0; i < est->size(); ++i) {
    EXPECT_GT(est->data()[i], 0.0);
  }
}

TEST(SvtTest, RecoversDensePlantedMatrix) {
  PlantedProblem prob = MakePlanted(40, 25, 3, 0.6, 7);
  SvtCompleter svt;
  StatusOr<linalg::Matrix> est = svt.Complete(prob.observed);
  ASSERT_TRUE(est.ok());
  EXPECT_LT(UnobservedRmse(prob, *est), 0.35 * TruthScale(prob));
}

TEST(SvtTest, ErrorsWithoutObservations) {
  WorkloadMatrix w(5, 5);
  SvtCompleter svt;
  EXPECT_FALSE(svt.Complete(w).ok());
}

TEST(NuclearNormTest, RecoversPlantedMatrix) {
  PlantedProblem prob = MakePlanted(40, 25, 3, 0.4, 8);
  NuclearNormCompleter nuc;
  StatusOr<linalg::Matrix> est = nuc.Complete(prob.observed);
  ASSERT_TRUE(est.ok());
  EXPECT_LT(UnobservedRmse(prob, *est), 0.3 * TruthScale(prob));
}

TEST(NuclearNormTest, ErrorsWithoutObservations) {
  WorkloadMatrix w(4, 4);
  NuclearNormCompleter nuc;
  EXPECT_FALSE(nuc.Complete(w).ok());
}

/// Sweep: ALS accuracy across ranks and observation densities. The paper's
/// choice r = 5 should be robust for true rank <= 5 (Sec. 5.5.3).
struct AlsSweepParam {
  int true_rank;
  double density;
};

class AlsSweep : public ::testing::TestWithParam<AlsSweepParam> {};

TEST_P(AlsSweep, RecoversAcrossConfigurations) {
  PlantedProblem prob = MakePlanted(
      80, 40, GetParam().true_rank, GetParam().density,
      1000 + GetParam().true_rank * 17 +
          static_cast<uint64_t>(GetParam().density * 100));
  AlsOptions opt;
  opt.rank = 5;  // paper default
  // The sparsest configurations need more alternations to reach a good
  // iterate; validation-based early stopping keeps the best one.
  opt.iterations = 200;
  AlsCompleter als(opt);
  StatusOr<linalg::Matrix> est = als.Complete(prob.observed);
  ASSERT_TRUE(est.ok());
  EXPECT_LT(UnobservedRmse(prob, *est), 0.25 * TruthScale(prob))
      << "true_rank=" << GetParam().true_rank
      << " density=" << GetParam().density;
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndDensities, AlsSweep,
    ::testing::Values(AlsSweepParam{1, 0.2}, AlsSweepParam{2, 0.3},
                      AlsSweepParam{3, 0.3}, AlsSweepParam{4, 0.4},
                      AlsSweepParam{5, 0.5}, AlsSweepParam{2, 0.15},
                      AlsSweepParam{3, 0.6}));

TEST(AlsTest, LogRatioTransfersColumnQualityToUnseenRows) {
  // The collaborative-filtering property that drives early exploration:
  // when hint column 3 is observed to halve latency on SOME rows, the
  // model should predict that hint 3 beats the default on rows where only
  // the default has been observed.
  const int n = 60, k = 10;
  Rng rng(77);
  WorkloadMatrix w(n, k);
  std::vector<double> defaults(n);
  for (int i = 0; i < n; ++i) {
    defaults[i] = rng.LogNormal(0.0, 1.5);
    w.Observe(i, 0, defaults[i]);
  }
  // Hint 3 observed on the first 20 rows only, always ~0.5x the default.
  for (int i = 0; i < 20; ++i) {
    w.Observe(i, 3, 0.5 * defaults[i] * rng.Uniform(0.9, 1.1));
  }
  AlsCompleter als;  // default options: log-ratio fit space
  StatusOr<linalg::Matrix> est = als.Complete(w);
  ASSERT_TRUE(est.ok());
  int predicted_faster = 0;
  for (int i = 20; i < n; ++i) {
    if ((*est)(i, 3) < defaults[i]) ++predicted_faster;
  }
  EXPECT_GE(predicted_faster, (n - 20) * 9 / 10);
}

TEST(AlsTest, EarlyStoppingHarmlessOnConstantRowMatrices) {
  // A matrix where every observed cell of a row carries the same value
  // (the all-defaults start state) must not be degraded by the validation
  // split: constant rows are excluded from validation by design.
  const int n = 30, k = 8;
  Rng rng(78);
  WorkloadMatrix w(n, k);
  for (int i = 0; i < n; ++i) {
    const double d = rng.LogNormal(0.0, 1.0);
    w.Observe(i, 0, d);
    w.Observe(i, 1, d);  // same plan-equivalence class as the default
  }
  AlsOptions opt;
  opt.early_stopping = true;
  AlsCompleter als(opt);
  StatusOr<linalg::Matrix> est = als.Complete(w);
  ASSERT_TRUE(est.ok());
  for (int i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ((*est)(i, 0), w.observed(i, 0));
    EXPECT_DOUBLE_EQ((*est)(i, 1), w.observed(i, 1));
  }
}

/// Invariant sweep across every (censored mode, fit space) combination:
/// whatever the configuration, Complete() must pass observed values
/// through, produce positive finite predictions, and respect censoring
/// floors in kCensored mode.
struct ModeSpaceParam {
  CensoredMode mode;
  FitSpace space;
};

class AlsModeSpaceSweep : public ::testing::TestWithParam<ModeSpaceParam> {};

TEST_P(AlsModeSpaceSweep, CoreInvariantsHold) {
  PlantedProblem prob = MakePlanted(40, 20, 3, 0.35, 91);
  // Add a censored cell with a high threshold.
  prob.observed.Clear(5, 7);
  const double threshold = 20.0 * TruthScale(prob);
  prob.observed.ObserveCensored(5, 7, threshold);

  AlsOptions opt;
  opt.censored_mode = GetParam().mode;
  opt.fit_space = GetParam().space;
  AlsCompleter als(opt);
  StatusOr<linalg::Matrix> est = als.Complete(prob.observed);
  ASSERT_TRUE(est.ok());

  for (int i = 0; i < 40; ++i) {
    for (int j = 0; j < 20; ++j) {
      const double v = (*est)(i, j);
      EXPECT_TRUE(std::isfinite(v)) << i << "," << j;
      if (prob.observed.IsComplete(i, j)) {
        EXPECT_DOUBLE_EQ(v, prob.truth(i, j));
      }
    }
  }
  if (GetParam().mode == CensoredMode::kCensored) {
    // The censored technique never predicts below the threshold.
    EXPECT_GE((*est)(5, 7), threshold * (1.0 - 1e-9));
  }
  if (GetParam().mode == CensoredMode::kNaiveObserved) {
    EXPECT_DOUBLE_EQ((*est)(5, 7), threshold);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSpaces, AlsModeSpaceSweep,
    ::testing::Values(
        ModeSpaceParam{CensoredMode::kCensored, FitSpace::kRaw},
        ModeSpaceParam{CensoredMode::kCensored, FitSpace::kLogRatio},
        ModeSpaceParam{CensoredMode::kNaiveObserved, FitSpace::kRaw},
        ModeSpaceParam{CensoredMode::kNaiveObserved, FitSpace::kLogRatio},
        ModeSpaceParam{CensoredMode::kIgnore, FitSpace::kRaw},
        ModeSpaceParam{CensoredMode::kIgnore, FitSpace::kLogRatio}));

/// Low-rank diagnostics: a planted workload matrix has concentrated
/// singular values, a random one does not (Fig. 14's premise).
TEST(LowRankDiagnostics, PlantedVsRandomSpectra) {
  Rng rng(99);
  PlantedProblem prob = MakePlanted(100, 49, 5, 1.0, 9);
  std::vector<double> planted_sv = linalg::SingularValues(prob.truth);
  linalg::Matrix random =
      linalg::Matrix::Random(100, 49, &rng, 0.0, 1.0);
  std::vector<double> random_sv = linalg::SingularValues(random);

  auto top5_energy = [](const std::vector<double>& sv) {
    double top = 0.0, total = 0.0;
    for (size_t i = 0; i < sv.size(); ++i) {
      total += sv[i] * sv[i];
      if (i < 5) top += sv[i] * sv[i];
    }
    return top / total;
  };
  EXPECT_GT(top5_energy(planted_sv), 0.999);
  EXPECT_LT(top5_energy(random_sv), 0.9);
}

/// FNV-1a over exact bit patterns: the golden tables below pin ALS output
/// bitwise, not approximately.
class Fnv {
 public:
  void Mix(const void* p, size_t len) {
    const unsigned char* bytes = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < len; ++i) {
      h_ ^= bytes[i];
      h_ *= 0x100000001B3ULL;
    }
  }
  void Mix(double v) { Mix(&v, sizeof(v)); }
  void Mix(int64_t v) { Mix(&v, sizeof(v)); }
  void Mix(const linalg::Matrix& m) {
    Mix(static_cast<int64_t>(m.rows()));
    Mix(static_cast<int64_t>(m.cols()));
    Mix(m.data(), m.size() * sizeof(double));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// A scale-heterogeneous workload-shaped matrix for the golden table:
/// planted rank-3 structure times per-row base latencies, the default
/// column observed on most rows, ~24% of the other cells complete and ~4%
/// censored. Large enough that rank >= 2 sweeps split across threads.
WorkloadMatrix GoldenMatrix(int n, int k, uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix q = linalg::Matrix::Random(n, 3, &rng, 0.2, 1.0);
  linalg::Matrix h = linalg::Matrix::Random(k, 3, &rng, 0.2, 1.0);
  WorkloadMatrix w(n, k);
  for (int i = 0; i < n; ++i) {
    const double base = rng.LogNormal(0.0, 1.5);
    for (int j = 0; j < k; ++j) {
      double dot = 0.0;
      for (int c = 0; c < 3; ++c) dot += q(i, c) * h(j, c);
      const double latency = base * dot;
      if (j == 0 ? i % 17 != 5 : rng.Bernoulli(0.24)) {
        w.Observe(i, j, latency);
      } else if (rng.Bernoulli(0.04)) {
        w.ObserveCensored(i, j, 0.6 * latency);
      }
    }
  }
  return w;
}

uint64_t CompletionHash(const linalg::Matrix& out, const AlsCompleter& als) {
  Fnv fnv;
  fnv.Mix(out);
  fnv.Mix(als.query_factors());
  fnv.Mix(als.hint_factors());
  fnv.Mix(static_cast<int64_t>(als.last_iterations()));
  return fnv.value();
}

struct AlsGolden {
  int rank;
  FitSpace space;
  CensoredMode mode;
  uint64_t cold;  // Complete, fixed t = 50 sweeps
  uint64_t warm;  // CompleteFrom the cold factors, convergence_tol > 0
};

// Captured from the three-pass sweep (separate right-hand-side, row-solve
// and residual passes), before the sweep was fused and specialised per
// rank: every rewrite of the sweep must reproduce them bit for bit. Rank 13
// takes the runtime-rank fallback.
constexpr AlsGolden kAlsGolden[] = {
    {1, FitSpace::kLogRatio, CensoredMode::kCensored,
     0x0cc099875ba8455cULL, 0x313581df12020d40ULL},
    {1, FitSpace::kLogRatio, CensoredMode::kNaiveObserved,
     0xa7f13ed945168eb3ULL, 0x01a2a3df66270678ULL},
    {1, FitSpace::kLogRatio, CensoredMode::kIgnore,
     0xd1188ae909c0457cULL, 0x4d3b9e486134e952ULL},
    {1, FitSpace::kRaw, CensoredMode::kCensored,
     0x7101e21615015032ULL, 0xb2c3c031c60fd099ULL},
    {1, FitSpace::kRaw, CensoredMode::kNaiveObserved,
     0x3e004871d488522cULL, 0x0aa1f749a2d39326ULL},
    {1, FitSpace::kRaw, CensoredMode::kIgnore,
     0xac1340cfb4058663ULL, 0x909e675ab7f89612ULL},
    {2, FitSpace::kLogRatio, CensoredMode::kCensored,
     0xdca1f32ce9c54c13ULL, 0x2614434654ceb46fULL},
    {2, FitSpace::kLogRatio, CensoredMode::kNaiveObserved,
     0x89a5ab131af912c2ULL, 0xd0e29c4b431a99f5ULL},
    {2, FitSpace::kLogRatio, CensoredMode::kIgnore,
     0x9edbb98c3d9a8c13ULL, 0xfb1abf8025474050ULL},
    {2, FitSpace::kRaw, CensoredMode::kCensored,
     0x4673c189f87c9a70ULL, 0xbfad0fc28ed613e7ULL},
    {2, FitSpace::kRaw, CensoredMode::kNaiveObserved,
     0x5159ea9b4a48b482ULL, 0x581e221fee83e5a1ULL},
    {2, FitSpace::kRaw, CensoredMode::kIgnore,
     0xa99e02ff84c88845ULL, 0x7e88836767c50ad5ULL},
    {3, FitSpace::kLogRatio, CensoredMode::kCensored,
     0xd19efec50e9b1e89ULL, 0xb5296ae4dad75658ULL},
    {3, FitSpace::kLogRatio, CensoredMode::kNaiveObserved,
     0x3bf82646f5ff866fULL, 0x4987fb7a738d7f1dULL},
    {3, FitSpace::kLogRatio, CensoredMode::kIgnore,
     0x3293de26af6f4f2dULL, 0x6ac8f14b21e8a833ULL},
    {3, FitSpace::kRaw, CensoredMode::kCensored,
     0xac972dc2059fd30aULL, 0xd7bf6eca24641da2ULL},
    {3, FitSpace::kRaw, CensoredMode::kNaiveObserved,
     0x07f6b9cf1cfa7b04ULL, 0xa4478408b175adc0ULL},
    {3, FitSpace::kRaw, CensoredMode::kIgnore,
     0xd106fd90891b86a0ULL, 0xd8ba3f52715fb6baULL},
    {4, FitSpace::kLogRatio, CensoredMode::kCensored,
     0xdae302ff1a06cb1eULL, 0x86f25f232c951f0cULL},
    {4, FitSpace::kLogRatio, CensoredMode::kNaiveObserved,
     0x479543048ba1c1a4ULL, 0xea498fc28349b9a9ULL},
    {4, FitSpace::kLogRatio, CensoredMode::kIgnore,
     0xd489d827c4d23a49ULL, 0xa6a7ed8c70052babULL},
    {4, FitSpace::kRaw, CensoredMode::kCensored,
     0x33bbff367441974fULL, 0x0a1bf8300d22b1d8ULL},
    {4, FitSpace::kRaw, CensoredMode::kNaiveObserved,
     0xa2cda9185905b371ULL, 0xe78e3fa1e576d87bULL},
    {4, FitSpace::kRaw, CensoredMode::kIgnore,
     0xbfb51ab003811386ULL, 0xcd920686598a52d5ULL},
    {5, FitSpace::kLogRatio, CensoredMode::kCensored,
     0xf1b7d3e59808beecULL, 0x35ce0b944f09e67cULL},
    {5, FitSpace::kLogRatio, CensoredMode::kNaiveObserved,
     0x5822c840b4886976ULL, 0x29af05696ca0bab6ULL},
    {5, FitSpace::kLogRatio, CensoredMode::kIgnore,
     0x7277b6f75ab4a4bdULL, 0xde8f5be150719312ULL},
    {5, FitSpace::kRaw, CensoredMode::kCensored,
     0x4b31f0bf1e80d5b1ULL, 0x67cb71763d95d153ULL},
    {5, FitSpace::kRaw, CensoredMode::kNaiveObserved,
     0xb54a76f260b81185ULL, 0xd8a61fdd613cf4b4ULL},
    {5, FitSpace::kRaw, CensoredMode::kIgnore,
     0xa8bc219fadc3a836ULL, 0x2c1264cf4179f53eULL},
    {8, FitSpace::kLogRatio, CensoredMode::kCensored,
     0xefac956f4a8962f3ULL, 0x846d6340bc885078ULL},
    {8, FitSpace::kLogRatio, CensoredMode::kNaiveObserved,
     0xf481b7280c23ad12ULL, 0x8bdde70f97fecc3aULL},
    {8, FitSpace::kLogRatio, CensoredMode::kIgnore,
     0xe4ae5f165f04c322ULL, 0x40d3757c37b653f7ULL},
    {8, FitSpace::kRaw, CensoredMode::kCensored,
     0x27592e2ec9aedf34ULL, 0x0c51e07e01889515ULL},
    {8, FitSpace::kRaw, CensoredMode::kNaiveObserved,
     0xfd4ca4570e9041c8ULL, 0xffaa73e160990934ULL},
    {8, FitSpace::kRaw, CensoredMode::kIgnore,
     0xac05939a01099537ULL, 0x8827dfc017094ef9ULL},
    {10, FitSpace::kLogRatio, CensoredMode::kCensored,
     0x1c6f6f3ccb253f87ULL, 0x634caaa0be70cd03ULL},
    {10, FitSpace::kLogRatio, CensoredMode::kNaiveObserved,
     0xe7459df3251c853cULL, 0x7e50023ee226a7d2ULL},
    {10, FitSpace::kLogRatio, CensoredMode::kIgnore,
     0x92b3a7c50b5de975ULL, 0xffbe9dc427b5b823ULL},
    {10, FitSpace::kRaw, CensoredMode::kCensored,
     0xb948ee477cd06fb0ULL, 0x937ee2dbe0e65fcbULL},
    {10, FitSpace::kRaw, CensoredMode::kNaiveObserved,
     0xf7c2b738ae258c30ULL, 0x5e21a216cf89954dULL},
    {10, FitSpace::kRaw, CensoredMode::kIgnore,
     0x53290dd907954365ULL, 0x8aa789f2a7a3ce03ULL},
    {13, FitSpace::kLogRatio, CensoredMode::kCensored,
     0x3dbd8d3386d362f6ULL, 0x8126a5453320f752ULL},
    {13, FitSpace::kLogRatio, CensoredMode::kNaiveObserved,
     0x766fa0b06a8fa269ULL, 0xd5b968598cc84b3eULL},
    {13, FitSpace::kLogRatio, CensoredMode::kIgnore,
     0xb7119a78428d4a9cULL, 0x2830f67e33a69eeeULL},
    {13, FitSpace::kRaw, CensoredMode::kCensored,
     0x4623084674b8a7d5ULL, 0x94fc7b000db958e1ULL},
    {13, FitSpace::kRaw, CensoredMode::kNaiveObserved,
     0xbc2a4b5587b1b8aaULL, 0x6dc8899159e8a8c2ULL},
    {13, FitSpace::kRaw, CensoredMode::kIgnore,
     0x06c51257aefd3156ULL, 0xefe027372ed019c2ULL},
};

/// Pins cold fixed-t Complete and warm converging CompleteFrom bit for bit
/// over every rank the sweep specialises (and one it does not), both fit
/// spaces, all censored modes, at 1 and 3 threads.
TEST(AlsGoldenTest, CompletionsMatchPinnedHashes) {
  const int n = 1200, k = 30, fresh = 20;
  const WorkloadMatrix cold_matrix = GoldenMatrix(n, k, 2024);
  WorkloadMatrix warm_matrix = cold_matrix;
  warm_matrix.AppendQueries(fresh);
  {
    const WorkloadMatrix extra = GoldenMatrix(n + fresh, k, 2025);
    for (int i = 0; i < n + fresh; ++i) {
      for (int j = 0; j < k; ++j) {
        if (warm_matrix.IsUnobserved(i, j) && extra.IsComplete(i, j) &&
            (i >= n || (i + j) % 5 == 0)) {
          warm_matrix.Observe(i, j, extra.observed(i, j));
        }
      }
    }
  }
  const int ranks[] = {1, 2, 3, 4, 5, 8, 10, 13};
  std::vector<AlsGolden> got;
  for (int threads : {1, 3}) {
    SetNumThreads(threads);
    got.clear();
    for (int rank : ranks) {
      for (FitSpace space : {FitSpace::kLogRatio, FitSpace::kRaw}) {
        for (CensoredMode mode :
             {CensoredMode::kCensored, CensoredMode::kNaiveObserved,
              CensoredMode::kIgnore}) {
          AlsOptions opt;
          opt.rank = rank;
          opt.fit_space = space;
          opt.censored_mode = mode;
          opt.seed = 11 + static_cast<uint64_t>(rank);
          AlsCompleter cold(opt);
          StatusOr<linalg::Matrix> cold_out = cold.Complete(cold_matrix);
          ASSERT_TRUE(cold_out.ok());
          CompletionFactors factors{cold.query_factors(),
                                    cold.hint_factors()};
          opt.convergence_tol = 1e-3;
          AlsCompleter warm(opt);
          StatusOr<linalg::Matrix> warm_out =
              warm.CompleteFrom(warm_matrix, &factors);
          ASSERT_TRUE(warm_out.ok());
          got.push_back({rank, space, mode, CompletionHash(*cold_out, cold),
                         CompletionHash(*warm_out, warm)});
        }
      }
    }
    EXPECT_EQ(got.size(), std::size(kAlsGolden));
    bool all_equal = got.size() == std::size(kAlsGolden);
    for (size_t e = 0; e < std::min(got.size(), std::size(kAlsGolden));
         ++e) {
      EXPECT_EQ(got[e].cold, kAlsGolden[e].cold)
          << "threads " << threads << " rank " << got[e].rank << " entry "
          << e;
      EXPECT_EQ(got[e].warm, kAlsGolden[e].warm)
          << "threads " << threads << " rank " << got[e].rank << " entry "
          << e;
      all_equal = all_equal && got[e].cold == kAlsGolden[e].cold &&
                  got[e].warm == kAlsGolden[e].warm;
    }
    if (!all_equal) {
      for (const AlsGolden& g : got) {
        std::printf("    {%d, FitSpace::%s, CensoredMode::%s, 0x%016llxULL,"
                    " 0x%016llxULL},\n",
                    g.rank, g.space == FitSpace::kRaw ? "kRaw" : "kLogRatio",
                    g.mode == CensoredMode::kCensored        ? "kCensored"
                    : g.mode == CensoredMode::kNaiveObserved ? "kNaiveObserved"
                                                             : "kIgnore",
                    static_cast<unsigned long long>(g.cold),
                    static_cast<unsigned long long>(g.warm));
      }
    }
  }
  SetNumThreads(1);
}

/// The paper's offline path end to end: LimeQO (rank-5 censored ALS) on CEB
/// at scale 0.1, explored to half its default workload time. The hash
/// covers every trajectory point's simulated quantities and the final
/// matrix's states and values; it must not depend on the thread count.
TEST(AlsGoldenTest, CebExplorationMatchesPinnedFingerprint) {
  constexpr uint64_t kCebFingerprint = 0x78e91b1d6e4e3dd6ULL;
  StatusOr<simdb::SimulatedDatabase> db =
      workloads::MakeWorkload(workloads::WorkloadId::kCeb, 0.1, 42);
  ASSERT_TRUE(db.ok());
  for (int threads : {1, 3}) {
    SetNumThreads(threads);
    AlsOptions als;
    als.rank = 5;
    als.censored_mode = CensoredMode::kCensored;
    ModelGuidedPolicy policy(
        std::make_unique<CompleterPredictor>(
            std::make_unique<AlsCompleter>(als)),
        "LimeQO");
    SimDbBackend backend(&*db);
    OfflineExplorer explorer(&backend, &policy, ExplorerOptions{});
    const std::vector<TrajectoryPoint> traj =
        explorer.Explore(0.5 * db->DefaultTotal());
    Fnv fnv;
    for (const TrajectoryPoint& p : traj) {
      fnv.Mix(p.offline_seconds);
      fnv.Mix(p.workload_latency);
      fnv.Mix(static_cast<int64_t>(p.complete_cells));
      fnv.Mix(static_cast<int64_t>(p.censored_cells));
    }
    const WorkloadMatrix& m = explorer.matrix();
    fnv.Mix(m.values());
    for (int i = 0; i < m.num_queries(); ++i) {
      fnv.Mix(m.row_states(i), static_cast<size_t>(m.num_hints()) *
                                   sizeof(CellState));
    }
    EXPECT_EQ(fnv.value(), kCebFingerprint)
        << "threads " << threads << " trajectory points " << traj.size()
        << " got 0x" << std::hex << fnv.value();
  }
  SetNumThreads(1);
}

}  // namespace
}  // namespace limeqo::core
