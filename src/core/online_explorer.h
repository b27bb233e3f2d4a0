#ifndef LIMEQO_CORE_ONLINE_EXPLORER_H_
#define LIMEQO_CORE_ONLINE_EXPLORER_H_

/// \file
/// Bounded online exploration (the paper's Sec. 6 direction): an
/// epsilon-gated, regret-budgeted serving rule that lets production
/// traffic itself fill workload-matrix cells without unbounded regressions.
/// Since the train/serving split, this class is the *synchronous adapter*
/// over ExplorationEngine — one caller thread acting as both planes at
/// once. The concurrent serving path uses the engine's ServingSnapshot
/// directly instead.

#include <cstdint>

#include "common/rng.h"
#include "core/engine.h"
#include "core/online.h"
#include "core/workload_matrix.h"

namespace limeqo::core {

/// Online exploration over the hint space (the paper's Sec. 6 future-work
/// direction, "complementing the offline exploration"): the online path
/// occasionally serves the model's predicted-best *unverified* plan instead
/// of the verified one, so repetitive production traffic itself fills in
/// workload-matrix cells at zero offline cost.
///
/// The no-regressions guarantee of the offline design is deliberately
/// relaxed here — but boundedly: exploration happens on at most an epsilon
/// fraction of servings, only for plans the low-rank model predicts to be
/// substantially faster, and the *cumulative* slowdown versus the verified
/// plan can never exceed regret_budget_seconds. With epsilon = 0 or an
/// exhausted budget this class behaves exactly like OnlineOptimizer.
///
/// This is the single-threaded embodiment of the engine's two planes: each
/// ChooseHint reads the live train-plane matrix (no snapshot staleness),
/// each ReportLatency applies its observation immediately, and the regret
/// check is live — so the budget can be overshot by at most one serving.
/// The decision itself is DecideServingHint (decision_kernel.h), the same
/// kernel the snapshot path runs: this adapter supplies the live-matrix
/// row, the live ledger, and its stateful forked gate/pick streams, so the
/// epsilon/risk/ratio/fallback rule literally cannot drift from the
/// concurrent path again (it did twice while the two copies were
/// hand-maintained — see the kernel header). The adapter's verified-best
/// rule is the same OnlineOptimizer the engine's snapshot builder
/// delegates to (on a chunk rebuild, and as the reference its drain-time
/// fold must reproduce), so the adapter and the snapshot path can never
/// disagree about which plan is verified-best for a given matrix state —
/// tests/engine_delta_test.cc pins this equivalence.
/// The gate and fallback-pick streams are forked sequentially from
/// options.seed exactly as before the refactor, keeping the gate sequence
/// a pure function of (seed, serving index). Model refreshes go through
/// the engine and are therefore warm-started — and they are *lazy*: the
/// kernel requests the row scan only after the epsilon and risk gates
/// pass, so refit work is only ever spent on servings that can explore.
///
/// Protocol per arriving query:
///   int hint = opt.ChooseHint(query);
///   double latency = Execute(query, hint);   // caller runs the plan
///   opt.ReportLatency(query, hint, latency);
class OnlineExplorationOptimizer {
 public:
  /// Serves over `engine` (not owned; must outlive this object). The
  /// engine's serving options are replaced with `options`, and its matrix
  /// is mutated by ReportLatency. The caller must be the engine's only
  /// train-plane user while this adapter is in use.
  OnlineExplorationOptimizer(ExplorationEngine* engine,
                             const OnlineExplorationOptions& options);

  /// The hint to serve `query` with: usually the verified best, sometimes
  /// (bounded by the options) the model's predicted-best unverified hint.
  int ChooseHint(int query);

  /// Feeds the observed latency of a served plan back into the workload
  /// matrix and charges any regret of an exploratory serving against the
  /// budget.
  void ReportLatency(int query, int hint, double latency);

  /// Cumulative extra time spent by exploratory servings that turned out
  /// slower than the verified plan.
  double regret_spent() const { return engine_->regret_spent(); }

  /// True once the regret budget is exhausted (no further exploration).
  bool budget_exhausted() const { return engine_->budget_exhausted(); }

  /// Number of exploratory servings made so far.
  int explorations() const { return engine_->explorations(); }

  /// Total ChooseHint calls so far. Together with explorations() this makes
  /// the epsilon cap machine-checkable: exploratory servings are gated by a
  /// Bernoulli(epsilon) draw per serving.
  int servings() const { return servings_; }

  /// Regret budget still available for exploration.
  double remaining_regret_budget() const {
    return engine_->remaining_regret_budget();
  }

  /// The engine this adapter serves over.
  ExplorationEngine* engine() { return engine_; }

 private:
  ExplorationEngine* engine_;
  OnlineExplorationOptions options_;
  OnlineOptimizer verified_;
  int servings_ = 0;
  /// Independent streams forked from options.seed: gate_rng_ drives only
  /// the per-serving Bernoulli(epsilon) gate, pick_rng_ only the random
  /// fallback pick. Keeping them separate pins the gate sequence to the
  /// serving index alone (see OnlineExplorationOptions::seed).
  Rng gate_rng_;
  Rng pick_rng_;
};

}  // namespace limeqo::core

#endif  // LIMEQO_CORE_ONLINE_EXPLORER_H_
