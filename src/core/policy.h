#ifndef LIMEQO_CORE_POLICY_H_
#define LIMEQO_CORE_POLICY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/backend.h"
#include "core/predictor.h"
#include "core/workload_matrix.h"

namespace limeqo::core {

/// One exploration decision: execute query `query` with hint `hint`.
/// `predicted_latency` carries the model's estimate when the policy has one
/// (used for the Algorithm 1 line-10 timeout); negative when unavailable.
struct Candidate {
  int query = 0;
  int hint = 0;
  double predicted_latency = -1.0;
};

/// An offline exploration policy: selects which unobserved workload-matrix
/// cells to execute next (paper Sec. 4.2).
class ExplorationPolicy {
 public:
  virtual ~ExplorationPolicy() = default;

  /// Selects up to `batch_size` unobserved cells. An empty result means the
  /// policy found nothing left to explore.
  virtual StatusOr<std::vector<Candidate>> SelectBatch(
      const WorkloadMatrix& w, int batch_size, Rng* rng) = 0;

  virtual std::string name() const = 0;

  /// Drops what the policy's model learned (a data shift makes it stale).
  virtual void Reset() {}
};

/// Baseline: uniformly random unobserved cells.
class RandomPolicy : public ExplorationPolicy {
 public:
  StatusOr<std::vector<Candidate>> SelectBatch(const WorkloadMatrix& w,
                                               int batch_size,
                                               Rng* rng) override;
  std::string name() const override { return "Random"; }
};

/// Baseline (paper Sec. 4.2 "Greedy"): picks the queries with the largest
/// current best observed latency, then a random unobserved hint for each.
/// Assumes long-running queries have the most room for improvement — an
/// assumption Fig. 8 shows can fail badly (ETL queries).
class GreedyPolicy : public ExplorationPolicy {
 public:
  /// With `revisit_censored`, the per-query hint pool also contains
  /// censored cells whose recorded lower bound sits below the row's
  /// *current* best — re-running such a cell with today's timeout (at
  /// least the row best) either completes it or raises its bound, so the
  /// probe always learns something. Without the flag a cell that once
  /// timed out is never retried, and a query whose true optimum was cut
  /// off by an early tight timeout stays stuck at its default forever
  /// (the heavy-tail failure mode).
  explicit GreedyPolicy(bool revisit_censored = false)
      : revisit_censored_(revisit_censored) {}

  StatusOr<std::vector<Candidate>> SelectBatch(const WorkloadMatrix& w,
                                               int batch_size,
                                               Rng* rng) override;
  std::string name() const override {
    return revisit_censored_ ? "Greedy+revisit" : "Greedy";
  }

 private:
  bool revisit_censored_;
};

/// The paper's Algorithm 1: complete the matrix with a predictive model,
/// rank queries by the expected improvement ratio (Eq. 6)
///   r_i = (min_j W~_ij - min_j W^_ij) / min_j W^_ij
/// and execute the predicted-best unobserved hints of the top-m queries,
/// falling back to random unobserved cells when fewer than m queries have
/// positive predicted improvement. With a linear (ALS) predictor this is
/// LimeQO; with a transductive TCNN predictor it is LimeQO+.
class ModelGuidedPolicy : public ExplorationPolicy {
 public:
  /// How to order candidates whose expected improvement ratios are
  /// (near-)equal. Ties are common right after the all-defaults start,
  /// when the model's predictions reduce to per-hint biases and Eq. 6 is
  /// scale-free, so the tie-break materially shapes early exploration.
  enum class TieBreak {
    /// Random order among tied candidates: spreads probes across query
    /// sizes, which is the most robust choice (default).
    kRandom = 0,
    /// Cheapest predicted probe first: fastest model bootstrap, but can
    /// degenerate into a smallest-rows-first exhaustive sweep.
    kCheapestProbe,
    /// Largest absolute predicted gain first: greediest on workload
    /// seconds, but failed probes into giant rows are the most expensive.
    kLargestGain,
  };

  /// `display_name` distinguishes LimeQO / LimeQO+ / TCNN configurations.
  ///
  /// `min_ratio` is the smallest expected improvement ratio (Eq. 6) worth a
  /// probe. Algorithm 1 line 6 only requires r_i > 0, but a failed probe
  /// costs up to the row's full current-best latency, so acting on
  /// vanishing predicted gains (model noise) burns budget with no upside;
  /// below the threshold, the random fallback of lines 8-9 explores
  /// instead, which is what actually feeds the model early on.
  /// `revisit_censored` additionally lets the policy re-select censored
  /// cells that still look promising: the completer clamps a censored
  /// cell's prediction up to its recorded lower bound (never below a known
  /// bound), so a censored cell whose clamped prediction *still* undercuts
  /// the row's current best marks a bound far below today's serving
  /// latency — re-probing it runs with a strictly looser timeout
  /// (min(row best, alpha x prediction) > bound, since alpha > 1 and the
  /// prediction is at least the bound), so every revisit either completes
  /// the cell or pushes its bound up until the Eq. 6 ratio drops under
  /// min_ratio. Off by default: Algorithm 1 explores unobserved cells
  /// only.
  ModelGuidedPolicy(std::unique_ptr<Predictor> predictor,
                    std::string display_name,
                    TieBreak tie_break = TieBreak::kRandom,
                    double min_ratio = 0.05, bool revisit_censored = false);

  StatusOr<std::vector<Candidate>> SelectBatch(const WorkloadMatrix& w,
                                               int batch_size,
                                               Rng* rng) override;
  std::string name() const override { return display_name_; }
  void Reset() override { predictor_->Reset(); }

  Predictor* predictor() { return predictor_.get(); }

 private:
  std::unique_ptr<Predictor> predictor_;
  std::string display_name_;
  TieBreak tie_break_;
  double min_ratio_;
  bool revisit_censored_;
};

/// Baseline: QO-Advisor adapted to this setting (paper Sec. 5, Techniques):
/// always explores the unobserved cell with the lowest optimizer cost
/// estimate — the best action its cost-driven contextual bandit could take.
/// Requires a backend that provides cost estimates.
class QoAdvisorPolicy : public ExplorationPolicy {
 public:
  explicit QoAdvisorPolicy(const WorkloadBackend* backend);

  StatusOr<std::vector<Candidate>> SelectBatch(const WorkloadMatrix& w,
                                               int batch_size,
                                               Rng* rng) override;
  std::string name() const override { return "QO-Advisor"; }

 private:
  const WorkloadBackend* backend_;
};

/// Baseline: Bao adapted to offline exploration (paper Sec. 5, Techniques):
/// a predictive model (a TCNN in the paper) estimates every plan's latency
/// and the cells with the smallest predicted latency are explored; results
/// are cached so the served plan never regresses. Unlike Algorithm 1 it
/// ranks by raw predicted latency, not by workload-level expected benefit.
class BaoCachePolicy : public ExplorationPolicy {
 public:
  explicit BaoCachePolicy(std::unique_ptr<Predictor> predictor);

  StatusOr<std::vector<Candidate>> SelectBatch(const WorkloadMatrix& w,
                                               int batch_size,
                                               Rng* rng) override;
  std::string name() const override { return "Bao-Cache"; }
  void Reset() override { predictor_->Reset(); }

 private:
  std::unique_ptr<Predictor> predictor_;
};

}  // namespace limeqo::core

#endif  // LIMEQO_CORE_POLICY_H_
