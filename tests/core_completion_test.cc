#include <cmath>

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/als.h"
#include "core/nuclear_norm.h"
#include "core/svt.h"
#include "linalg/svd.h"

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

}  // namespace
}  // namespace limeqo::core
