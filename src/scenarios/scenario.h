#ifndef LIMEQO_SCENARIOS_SCENARIO_H_
#define LIMEQO_SCENARIOS_SCENARIO_H_

/// \file
/// The ScenarioSpec DSL: a declarative description of one synthetic world
/// (latency structure, tail, noise, plan equivalence) plus the regime it is
/// explored under (timeouts, budget, drift/arrival schedules, online
/// serving). See docs/scenarios.md for the full field reference and the
/// named grid.

#include <cstdint>
#include <string>
#include <vector>

namespace limeqo::scenarios {

/// Tail behaviour of the generated latency surface.
enum class TailModel {
  /// Pure log-normal multipliers: well-behaved latencies (the bulk of
  /// OLTP/reporting traffic).
  kLogNormal = 0,
  /// Log-normal bulk with a Pareto-mixed catastrophic tail: a fraction of
  /// (query, hint) cells is orders of magnitude slower than the row base,
  /// the regime where timeouts and censoring decide everything (paper
  /// Sec. 1 "Trouble with timeouts").
  kParetoMix,
};

/// One data-shift event in a scenario's drift schedule (Sec. 5.4): after
/// `after_budget_fraction` of the offline budget has been spent, the
/// underlying data changes and a `severity` fraction of query rows gets a
/// freshly drawn latency profile (their optimal hint typically moves).
struct DriftEvent {
  /// When the shift lands, as a fraction of the total offline budget.
  double after_budget_fraction = 0.5;
  /// Fraction of query rows whose latency profile is redrawn.
  double severity = 0.5;
};

/// One workload-shift event in a scenario's arrival schedule (Sec. 5.3,
/// Fig. 9): after `after_budget_fraction` of the offline budget has been
/// spent, `count` previously unseen queries join the workload as fresh
/// matrix rows (`OfflineExplorer::AddNewQueries`). Their default plans are
/// observed at zero offline cost — production traffic runs them anyway —
/// and every other cell starts unobserved. The driver sizes the initial
/// workload to num_queries minus the scheduled arrivals, so Fig. 9's
/// "explore 70%, then +30% arrive" is `count = 0.3 * num_queries` at
/// `after_budget_fraction = 2/3`.
struct ArrivalEvent {
  /// When the queries arrive, as a fraction of the total offline budget.
  double after_budget_fraction = 2.0 / 3.0;
  /// Number of new queries arriving (must be >= 1).
  int count = 1;
};

/// A complete description of one synthetic world plus the regime it is
/// explored under. A ScenarioSpec is *data*: the same spec + seed always
/// compiles to the same world, so any failure reproduces from one line.
///
/// The defaults describe a mid-sized, moderately structured workload;
/// ScenarioGrid() derives the named corner cases used by the grid tests.
struct ScenarioSpec {
  /// Unique name; test names and failure messages derive from it.
  std::string name = "default";

  // --- World shape -------------------------------------------------------
  /// Number of queries (workload-matrix rows), including any that arrive
  /// later via the arrival schedule.
  int num_queries = 40;
  /// Number of hints (workload-matrix columns); hint 0 is the default plan.
  int num_hints = 12;
  /// Rank of the latent structure tying hints to queries. The paper's
  /// central premise is that real workload matrices are approximately
  /// low-rank (Fig. 14); latent_rank controls how true that is here.
  int latent_rank = 3;

  // --- Base latency distribution ----------------------------------------
  /// Per-query base latency is LogNormal(base_mu, base_sigma) seconds:
  /// workloads mix millisecond point lookups with minute-scale reports.
  double base_mu = 0.0;
  /// Log-space spread of the base-latency distribution.
  double base_sigma = 1.2;

  // --- Hint-correlation structure ---------------------------------------
  /// Weight of the shared low-rank component in log space; the remainder is
  /// i.i.d. noise. 1.0 = perfectly low-rank world, 0.0 = structureless.
  double structure_strength = 0.8;
  /// Fraction of non-default hints that are globally good (multiplier drawn
  /// in [good_hint_gain, 0.95]) — the "some hints are globally good" effect
  /// the leading singular value captures.
  double good_hint_fraction = 0.25;
  /// Best-case multiplier for globally good hints (lower = faster).
  double good_hint_gain = 0.45;
  /// Worst-case multiplier for globally bad hints.
  double bad_hint_penalty = 4.0;

  // --- Observation model -------------------------------------------------
  /// Multiplicative log-normal execution noise per run (sigma in log
  /// space); 0 disables run-to-run noise.
  double noise_sigma = 0.02;
  /// Tail behaviour of the latency surface (see TailModel).
  TailModel tail = TailModel::kLogNormal;
  /// For kParetoMix: probability that a non-default cell carries a Pareto
  /// catastrophic multiplier.
  double heavy_tail_prob = 0.0;
  /// For kParetoMix: scale of the catastrophic multiplier.
  double heavy_tail_scale = 25.0;

  // --- Plan equivalence ---------------------------------------------------
  /// When > 1, hints are grouped into plan-identity classes of this size
  /// (consecutive hints share one physical plan), exercising the free
  /// cell-fill path of WorkloadBackend::EquivalentHints. 0/1 = no classes.
  int equivalence_class_size = 0;

  // --- Timeout regime -----------------------------------------------------
  /// Whether offline executions are cut off by timeouts (censoring).
  bool use_timeouts = true;
  /// alpha of Algorithm 1 line 10 (timeout = alpha * predicted latency).
  double timeout_alpha = 2.0;

  // --- Offline exploration regime ----------------------------------------
  /// Cells executed per exploration step (m in Algorithm 1).
  int batch_size = 8;
  /// Offline budget as a fraction of the default workload latency.
  double budget_fraction = 0.6;
  /// Drift schedule applied while the offline loop runs (may be empty).
  std::vector<DriftEvent> drift;
  /// Arrival schedule (workload shift, Fig. 9): batches of new queries
  /// joining mid-budget. The sum of counts must stay below num_queries;
  /// the remainder is the initially active workload. May be empty.
  std::vector<ArrivalEvent> arrivals;

  // --- simdb bridge -------------------------------------------------------
  /// Lognormal sigma of the simulated optimizer's cost-model error, used
  /// only when the scenario is compiled into a simdb::SimulatedDatabase
  /// (the bridge): costs anchor the generated plan trees, so this controls
  /// how informative plan features are for the TCNN/LimeQO+ arms.
  double cost_error_sigma = 0.8;

  // --- Online serving phase ----------------------------------------------
  /// Round-robin servings served through the ShardedServingTier after the
  /// offline loop; 0 skips the online phase.
  int online_servings = 300;
  /// Fraction of servings allowed to explore an unverified plan.
  double epsilon = 0.1;
  /// Minimum predicted improvement ratio for an online exploration probe.
  double min_predicted_ratio = 0.05;
  /// Hard cap on cumulative online-exploration regret, in seconds.
  double online_regret_budget_seconds = 5.0;

  /// Master seed: world generation, policy tie-breaks, and the online
  /// streams all derive from it.
  uint64_t seed = 1;
};

/// The named scenario grid exercised by tests/scenario_sim_test.cc and
/// bench/bench_scenarios.cc: >= 12 configurations spanning well-behaved,
/// heavy-tailed, timeout-free, tight-timeout, noisy, drifting,
/// plan-equivalence, and workload-shift (arrival-schedule) worlds. Each
/// world is documented in docs/scenarios.md.
std::vector<ScenarioSpec> ScenarioGrid();

/// Compact one-line description ("name n=40 k=12 seed=7 ...") used in test
/// failure messages so any run reproduces from the log.
std::string Describe(const ScenarioSpec& spec);

}  // namespace limeqo::scenarios

#endif  // LIMEQO_SCENARIOS_SCENARIO_H_
