#include "core/policy.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace limeqo::core {
namespace {

constexpr double kMinPrediction = 1e-6;

/// Random unobserved cells, excluding any already in `chosen`.
void FillRandomUnobserved(const WorkloadMatrix& w, int want, Rng* rng,
                          std::vector<Candidate>* chosen) {
  auto already = [&](int q, int h) {
    for (const Candidate& c : *chosen) {
      if (c.query == q && c.hint == h) return true;
    }
    return false;
  };
  std::vector<std::pair<int, int>> cells = w.UnobservedCells();
  rng->Shuffle(&cells);
  for (const auto& [q, h] : cells) {
    if (static_cast<int>(chosen->size()) >= want) break;
    if (!already(q, h)) chosen->push_back(Candidate{q, h, -1.0});
  }
}

}  // namespace

StatusOr<std::vector<Candidate>> RandomPolicy::SelectBatch(
    const WorkloadMatrix& w, int batch_size, Rng* rng) {
  std::vector<Candidate> batch;
  FillRandomUnobserved(w, batch_size, rng, &batch);
  return batch;
}

StatusOr<std::vector<Candidate>> GreedyPolicy::SelectBatch(
    const WorkloadMatrix& w, int batch_size, Rng* rng) {
  // Rank queries by their current best observed latency, descending.
  std::vector<std::pair<double, int>> rows;
  rows.reserve(w.num_queries());
  for (int i = 0; i < w.num_queries(); ++i) {
    const double m = w.RowMinObserved(i);
    if (std::isfinite(m)) rows.emplace_back(m, i);
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  std::vector<Candidate> batch;
  for (const auto& [latency, i] : rows) {
    if (static_cast<int>(batch.size()) >= batch_size) break;
    // Random unobserved hint for this query; with revisit_censored, also
    // censored cells whose bound sits below the row's current best (a
    // re-run at today's timeout either completes or raises the bound).
    std::vector<int> pool;
    for (int j = 0; j < w.num_hints(); ++j) {
      if (w.IsUnobserved(i, j)) {
        pool.push_back(j);
      } else if (revisit_censored_ &&
                 w.state(i, j) == CellState::kCensored &&
                 w.timeout(i, j) < latency) {
        pool.push_back(j);
      }
    }
    if (pool.empty()) continue;
    const int j = pool[rng->NextUint64Below(pool.size())];
    batch.push_back(Candidate{i, j, -1.0});
  }
  return batch;
}

ModelGuidedPolicy::ModelGuidedPolicy(std::unique_ptr<Predictor> predictor,
                                     std::string display_name,
                                     TieBreak tie_break, double min_ratio,
                                     bool revisit_censored)
    : predictor_(std::move(predictor)),
      display_name_(std::move(display_name)),
      tie_break_(tie_break),
      min_ratio_(min_ratio),
      revisit_censored_(revisit_censored) {
  LIMEQO_CHECK(predictor_ != nullptr);
  LIMEQO_CHECK(min_ratio_ >= 0.0);
}

StatusOr<std::vector<Candidate>> ModelGuidedPolicy::SelectBatch(
    const WorkloadMatrix& w, int batch_size, Rng* rng) {
  StatusOr<linalg::Matrix> prediction = predictor_->Predict(w);
  if (!prediction.ok()) return prediction.status();
  const linalg::Matrix& w_hat = *prediction;

  // Algorithm 1 lines 3-6: per query, the predicted-best unobserved hint
  // and its expected improvement ratio (Eq. 6).
  struct Scored {
    double ratio;
    Candidate candidate;
  };
  std::vector<Scored> scored;
  for (int i = 0; i < w.num_queries(); ++i) {
    const double current_best = w.RowMinObserved(i);
    if (!std::isfinite(current_best)) continue;  // default not yet observed
    int best_j = -1;
    double best_pred = std::numeric_limits<double>::infinity();
    for (int j = 0; j < w.num_hints(); ++j) {
      // Candidate cells: unobserved, plus (with revisit_censored) censored
      // cells whose prediction still undercuts the current best — the
      // min_ratio filter below prunes the unpromising ones. A censored
      // cell's prediction is clamped up to its recorded bound here (the
      // ALS completer already honors the bound, but the Predictor
      // interface does not guarantee it — a neural model may predict
      // below a proven lower bound): the clamp makes the candidate's
      // timeout (alpha x prediction) strictly exceed the old bound, so a
      // re-probe always completes the cell or raises the bound, never
      // spins on stale optimism.
      double pred = w_hat(i, j);
      bool eligible = w.IsUnobserved(i, j);
      if (!eligible && revisit_censored_ &&
          w.state(i, j) == CellState::kCensored) {
        pred = std::max(pred, w.timeout(i, j));
        eligible = pred < current_best;
      }
      if (!eligible) continue;
      if (pred < best_pred) {
        best_pred = pred;
        best_j = j;
      }
    }
    if (best_j < 0) continue;  // row fully explored
    best_pred = std::max(best_pred, kMinPrediction);
    const double ratio = (current_best - best_pred) / best_pred;
    if (ratio > min_ratio_) {
      scored.push_back({ratio, Candidate{i, best_j, best_pred}});
    }
  }

  // Line 7: take the top-m by expected improvement ratio. Ratio ties are
  // common (right after the all-defaults start the model's predictions
  // reduce to per-hint biases and Eq. 6 is scale-free across rows), so the
  // tie-break is applied deliberately rather than left to sort order; see
  // TieBreak for the trade-offs.
  rng->Shuffle(&scored);  // randomizes the kRandom order inside ties
  std::stable_sort(
      scored.begin(), scored.end(), [&](const Scored& a, const Scored& b) {
        const double tol =
            1e-6 * std::max({1.0, std::abs(a.ratio), std::abs(b.ratio)});
        if (std::abs(a.ratio - b.ratio) > tol) return a.ratio > b.ratio;
        switch (tie_break_) {
          case TieBreak::kCheapestProbe:
            return a.candidate.predicted_latency <
                   b.candidate.predicted_latency;
          case TieBreak::kLargestGain: {
            const double gain_a = w.RowMinObserved(a.candidate.query) -
                                  a.candidate.predicted_latency;
            const double gain_b = w.RowMinObserved(b.candidate.query) -
                                  b.candidate.predicted_latency;
            return gain_a > gain_b;
          }
          case TieBreak::kRandom:
            return false;  // keep the shuffled order
        }
        return false;
      });
  std::vector<Candidate> batch;
  for (const Scored& s : scored) {
    if (static_cast<int>(batch.size()) >= batch_size) break;
    batch.push_back(s.candidate);
  }
  // Lines 8-9: random fallback when not enough positive-benefit candidates.
  if (static_cast<int>(batch.size()) < batch_size) {
    FillRandomUnobserved(w, batch_size, rng, &batch);
  }
  return batch;
}

QoAdvisorPolicy::QoAdvisorPolicy(const WorkloadBackend* backend)
    : backend_(backend) {
  LIMEQO_CHECK(backend != nullptr);
}

StatusOr<std::vector<Candidate>> QoAdvisorPolicy::SelectBatch(
    const WorkloadMatrix& w, int batch_size, Rng* rng) {
  (void)rng;
  std::vector<std::pair<double, std::pair<int, int>>> cells;
  for (const auto& [q, h] : w.UnobservedCells()) {
    const double cost = backend_->OptimizerCost(q, h);
    if (cost < 0.0) {
      return Status::FailedPrecondition(
          "QO-Advisor requires a backend with optimizer cost estimates");
    }
    cells.push_back({cost, {q, h}});
  }
  std::sort(cells.begin(), cells.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Candidate> batch;
  for (const auto& [cost, cell] : cells) {
    if (static_cast<int>(batch.size()) >= batch_size) break;
    batch.push_back(Candidate{cell.first, cell.second, -1.0});
  }
  return batch;
}

BaoCachePolicy::BaoCachePolicy(std::unique_ptr<Predictor> predictor)
    : predictor_(std::move(predictor)) {
  LIMEQO_CHECK(predictor_ != nullptr);
}

StatusOr<std::vector<Candidate>> BaoCachePolicy::SelectBatch(
    const WorkloadMatrix& w, int batch_size, Rng* rng) {
  StatusOr<linalg::Matrix> prediction = predictor_->Predict(w);
  if (!prediction.ok()) return prediction.status();
  const linalg::Matrix& w_hat = *prediction;

  // Per query, the plan the model believes is best; explore the most
  // promising-looking plans first (ascending predicted latency). This is
  // Bao's plan selection repurposed for offline exploration: no notion of
  // workload-level benefit.
  std::vector<Candidate> per_query;
  for (int i = 0; i < w.num_queries(); ++i) {
    int best_j = -1;
    double best_pred = std::numeric_limits<double>::infinity();
    for (int j = 0; j < w.num_hints(); ++j) {
      if (!w.IsUnobserved(i, j)) continue;
      if (w_hat(i, j) < best_pred) {
        best_pred = w_hat(i, j);
        best_j = j;
      }
    }
    if (best_j >= 0) {
      per_query.push_back(Candidate{i, best_j, best_pred});
    }
  }
  std::sort(per_query.begin(), per_query.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.predicted_latency < b.predicted_latency;
            });
  if (static_cast<int>(per_query.size()) > batch_size) {
    per_query.resize(batch_size);
  }
  if (static_cast<int>(per_query.size()) < batch_size) {
    FillRandomUnobserved(w, batch_size, rng, &per_query);
  }
  return per_query;
}

}  // namespace limeqo::core
