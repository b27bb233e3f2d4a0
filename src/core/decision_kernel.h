#ifndef LIMEQO_CORE_DECISION_KERNEL_H_
#define LIMEQO_CORE_DECISION_KERNEL_H_

/// \file
/// The one serving decision rule: Algorithm 1 applied online (Eq. 6), as a
/// single kernel that every serving decision runs through
/// (ServingSnapshot::ChooseHint and ChooseHints). The
/// epsilon/risk/ratio/fallback rule once existed as two hand-maintained
/// copies, which drifted in two observable ways (a skipped random-fallback
/// bootstrap when predictions were unavailable, and an
/// unclamped/differently-gated risk check); DecideServingHint is now the
/// only place the rule can change.
///
/// The kernel is a function template parameterized by three accessors
/// (gate draw, hint-row scan, fallback pick) rather than virtuals or
/// std::function: the snapshot path inlines its per-serving-index RNG
/// streams and the drain-time precomputed row scans, and compiles to
/// straight-line code with no indirect calls on the hot path.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/rng.h"
#include "core/workload_matrix.h"

namespace limeqo::core {

/// Domain-separation tag for the per-serving epsilon-gate streams (the
/// gate stream seed is MixSeed(options.seed, kGateStreamTag)).
inline constexpr uint64_t kGateStreamTag = 0x47415445u;  // "GATE"
/// Domain-separation tag for the per-serving fallback-pick streams.
inline constexpr uint64_t kPickStreamTag = 0x5049434Bu;  // "PICK"

/// Options for bounded online exploration, as the engine's serving plane
/// (ExplorationEngine, ShardedServingTier) applies them.
struct OnlineExplorationOptions {
  /// Fraction of servings allowed to explore an unverified plan.
  double epsilon = 0.05;
  /// Only explore plans whose predicted improvement ratio over the current
  /// verified best exceeds this (Eq. 6 applied online).
  double min_predicted_ratio = 0.2;
  /// Hard cap on cumulative regret: total extra seconds (vs the verified
  /// best plan) that online exploration may ever cost the workload. Once
  /// exhausted, behaviour is identical to the plain OnlineOptimizer.
  double regret_budget_seconds = 60.0;
  /// Prediction refresh cadence: the completion model is re-run after this
  /// many matrix updates (predictions go stale as cells fill in). A
  /// successful refit also rebuilds every snapshot chunk against the new
  /// predictions.
  int refresh_every = 32;
  /// Snapshot publication cadence, decoupled from (and typically more
  /// frequent than) the refit cadence: the free-running train loop
  /// republishes after this many drained observations, and the
  /// epoch-synchronized simulation driver uses it as the epoch length.
  /// Publications between refits share the chunks kept current at drain
  /// time (a pointer copy per chunk), so republishing often keeps serving
  /// decisions fresh without paying O(n*k) per publication.
  int publish_every = 8;
  /// Per-serving risk gate: only explore a query whose verified-plan
  /// latency is at most this fraction of the *remaining* regret budget. A
  /// single bad probe can cost several multiples of the baseline latency,
  /// so without the gate one long query can blow the entire budget (and
  /// overshoot it) in a single serving; with it, exploration concentrates
  /// on queries it can afford and the budget drains gradually.
  double max_baseline_budget_fraction = 0.125;
  /// When an exploration-eligible serving has no model candidate clearing
  /// min_predicted_ratio, serve a *random* unobserved hint instead (the
  /// online analogue of Algorithm 1's lines 8-9). Without this the online
  /// path can never bootstrap: an all-defaults matrix yields flat
  /// predictions, flat predictions yield no candidates, and no candidate
  /// ever gets observed. Risk remains bounded by the regret budget. The
  /// same fallback covers the no-predictions case (model never fitted or
  /// refit failing): the kernel falls through to the random bootstrap
  /// instead of silently serving the verified plan.
  bool random_fallback = true;
  /// Master seed. The epsilon-gate and fallback-pick streams are derived
  /// from it with domain separation, and each serving index gets its own
  /// stream (a pure function of seed and index), so the
  /// explore/serve gate sequence cannot be desynchronized by
  /// prediction-dependent branches or by which thread served which index.
  /// Two engines with the same seed over the same serving schedule produce
  /// identical traces, bitwise, at any thread count.
  uint64_t seed = 31;
};

/// Result of scanning one hint row for the kernel's model and fallback
/// steps: the predicted-best unobserved hint (the Eq. 6 candidate) and the
/// row's unobserved-cell count (the fallback's sample space). On the
/// snapshot path these are precomputed and kept current at drain time —
/// the per-row scan runs only when an observation may have moved the
/// row's best, never per serving, which is the strongest form of the
/// running-best early exit: the serve path never enters the scan at all.
struct HintScan {
  /// True when model predictions back best_unobserved /
  /// best_unobserved_pred; false skips the kernel's model step entirely.
  bool have_predictions = false;
  /// Hint with the minimum predicted latency among the row's unobserved
  /// cells (first index on ties), or -1 when every cell is observed or no
  /// predictions exist.
  int best_unobserved = -1;
  /// Predicted latency of best_unobserved (+infinity when none).
  double best_unobserved_pred = std::numeric_limits<double>::infinity();
  /// Number of unobserved cells in the row (the fallback sample space).
  int unobserved_count = 0;
};

/// The per-row inputs every serving decision needs, resolved to plain
/// values and a raw pointer into contiguous per-field storage
/// (struct-of-arrays): the snapshot path fills it from its per-field chunk
/// arrays.
struct DecisionInputs {
  /// The verified-best hint (the OnlineOptimizer rule) for the row.
  int verified_best = 0;
  /// Observed latency of the verified-best hint; +infinity when the row
  /// has no complete default observation.
  double verified_latency = std::numeric_limits<double>::infinity();
  /// The row's observation states (num_hints entries, row-major slice).
  const CellState* states = nullptr;
  /// Hint-column count of the row.
  int num_hints = 0;
  /// The regret ledger the decision gates on: the snapshot's value, frozen
  /// at its publication.
  double regret_spent = 0.0;
};

/// Fused running-best scan of one hint row: computes the argmin-prediction
/// unobserved hint and the unobserved count in a single pass.
/// `predictions` is the row's prediction slice (num_hints entries) or null
/// when no usable model exists — the count is still computed (the fallback
/// needs it either way). Runs at drain time on the snapshot path (only
/// when an observation may have moved the row's best unobserved hint, and
/// for every row after a refit or on a chunk rebuild).
HintScan ScanHintRow(const CellState* states, const double* predictions,
                     int num_hints);

/// Classification of one served latency against the deciding row: was the
/// serving exploratory, and how much regret does it charge?
/// ServingSnapshot::MakeObservation classifies against the frozen snapshot
/// row.
struct ServingClassification {
  /// True when the serving probed an unverified plan.
  bool exploratory = false;
  /// Regret charged against the budget (>= 0 seconds): the slowdown vs the
  /// verified baseline, only for exploratory servings with a finite
  /// baseline.
  double regret_delta = 0.0;
};

/// Classifies a served latency: exploratory iff the hint differs from the
/// verified best and its cell was not already complete; regret is the
/// slowdown vs a finite verified baseline.
inline ServingClassification ClassifyServing(int verified_best,
                                             double verified_latency,
                                             bool hint_complete, int hint,
                                             double latency) {
  ServingClassification c;
  c.exploratory = hint != verified_best && !hint_complete;
  if (c.exploratory && std::isfinite(verified_latency) &&
      latency > verified_latency) {
    c.regret_delta = latency - verified_latency;
  }
  return c;
}

/// The serving decision rule (Algorithm 1 applied online, Eq. 6), run by
/// the lock-free snapshot path:
///
///  1. epsilon gate — with probability 1 - epsilon (or always, once the
///     regret budget is exhausted) serve the verified best;
///  2. risk gate — skip exploration when the query's verified baseline
///     exceeds max_baseline_budget_fraction of the *remaining* budget
///     (clamped at zero: the documented one-epoch overshoot may push the
///     ledger past the budget, and a negative remainder must read as "no
///     budget", not flip the comparison);
///  3. model step — serve the predicted-best unobserved hint when its
///     predicted improvement ratio over a finite baseline clears
///     min_predicted_ratio;
///  4. random fallback — otherwise (including when no predictions exist at
///     all) serve a uniformly random unobserved hint, bootstrapping the
///     model at budget-bounded risk.
///
/// `draw_gate()` must consume exactly one Bernoulli(epsilon) draw and is
/// only invoked when epsilon > 0 and the budget is live; `scan()` returns
/// the row's HintScan (invoked only after both gates pass); `draw_pick(n)`
/// must consume one uniform draw in [0, n) and is only invoked when the
/// fallback fires with n > 0 candidates. Keeping the draw discipline exact
/// is what makes the trace a pure function of (seed, serving index).
template <typename GateFn, typename ScanFn, typename PickFn>
inline int DecideServingHint(const OnlineExplorationOptions& opt,
                             const DecisionInputs& in, GateFn&& draw_gate,
                             ScanFn&& scan, PickFn&& draw_pick) {
  const int verified = in.verified_best;
  if (opt.epsilon <= 0.0 || in.regret_spent >= opt.regret_budget_seconds) {
    return verified;
  }
  if (!draw_gate()) return verified;

  // Risk gate, branchless: `blocked` reduces to two double compares and an
  // AND (baseline is never NaN, so finite <=> below +infinity). The
  // remaining budget is clamped at zero: the documented overshoot can
  // leave a ledger past the budget, and while the exhaustion check above
  // freezes that case today, an unclamped negative remainder would flip
  // the comparison into permitting arbitrarily long baselines.
  const double remaining =
      std::max(opt.regret_budget_seconds - in.regret_spent, 0.0);
  const double baseline = in.verified_latency;
  const bool blocked =
      (baseline > opt.max_baseline_budget_fraction * remaining) &
      (baseline < std::numeric_limits<double>::infinity());
  if (blocked) return verified;

  const HintScan row = scan();
  if (row.have_predictions && row.best_unobserved >= 0 &&
      std::isfinite(baseline)) {
    // Eq. 6 applied online: predicted improvement ratio of the
    // predicted-best unobserved hint over the serving baseline.
    const double ratio = (baseline - row.best_unobserved_pred) /
                         std::max(row.best_unobserved_pred, 1e-9);
    if (ratio >= opt.min_predicted_ratio) return row.best_unobserved;
  }
  if (!opt.random_fallback) return verified;
  // Algorithm 1 lines 8-9, online: no promising model candidate (or no
  // model at all), so bootstrap with a random unobserved hint — regret
  // stays budget-bounded either way.
  if (row.unobserved_count <= 0) return verified;
  uint64_t pick = draw_pick(static_cast<uint64_t>(row.unobserved_count));
  for (int j = 0; j < in.num_hints; ++j) {
    if (in.states[j] != CellState::kUnobserved) continue;
    if (pick-- == 0) return j;
  }
  return verified;
}

}  // namespace limeqo::core

#endif  // LIMEQO_CORE_DECISION_KERNEL_H_
