#ifndef LIMEQO_SCENARIOS_SIMULATION_H_
#define LIMEQO_SCENARIOS_SIMULATION_H_

/// \file
/// SimulationDriver: runs one ScenarioSpec end to end (offline exploration
/// with drift/arrival events, then online serving) under a configurable
/// policy / predictor arm / world backend, machine-checking the paper's
/// invariants throughout.

#include <memory>
#include <string>
#include <vector>

#include "nn/tcnn.h"
#include "scenarios/faulty_backend.h"
#include "scenarios/scenario.h"
#include "scenarios/scenario_backend.h"
#include "scenarios/synthetic_backend.h"

namespace limeqo::scenarios {

/// Exploration policies the driver can instantiate.
enum class PolicyKind {
  /// Uniformly random unobserved cells (baseline).
  kRandom = 0,
  /// Longest-current-best queries first (paper Sec. 4.2 "Greedy").
  kGreedy,
  /// The paper's Algorithm 1 (ModelGuidedPolicy) over a predictive model.
  kModelGuided,
};

/// Completion models available to the kCompleter predictor arm.
enum class CompleterKind {
  /// Censored alternating least squares (the paper's LimeQO).
  kAls = 0,
  /// Singular value thresholding.
  kSvt,
  /// Nuclear-norm minimization.
  kNuclearNorm,
};

/// Which predictive model drives kModelGuided and the online phase.
enum class PredictorArm {
  /// A matrix completer (CompleterKind picks which) — LimeQO.
  kCompleter = 0,
  /// The plain Bao-style TCNN over plan trees (no embeddings). Requires a
  /// world that provides plans, i.e. WorldKind::kSimDb.
  kTcnn,
  /// The transductive TCNN with query/hint embeddings — LimeQO+. Requires
  /// WorldKind::kSimDb.
  kLimeQoPlus,
};

/// Which backend realizes the scenario world.
enum class WorldKind {
  /// SyntheticBackend: the bare planted latency surface (no plans/costs).
  kSynthetic = 0,
  /// SimDbScenarioBackend: the same surface compiled into a
  /// simdb::SimulatedDatabase with catalog, plan trees, and cost estimates
  /// (the scenario->simdb bridge) — the only world the neural arms run on.
  kSimDb,
};

/// Display name of `p` ("Random", "Greedy", "ModelGuided").
std::string PolicyKindName(PolicyKind p);
/// Display name of `c` ("ALS", "SVT", "NuclearNorm").
std::string CompleterKindName(CompleterKind c);
/// Display name of `a` ("Completer", "TCNN", "LimeQO+").
std::string PredictorArmName(PredictorArm a);
/// Display name of `w` ("Synthetic", "SimDb").
std::string WorldKindName(WorldKind w);

/// A scenario-sized TCNN configuration for the neural arms: the paper's
/// architecture family shrunk (fewer channels, fewer epochs) so a full
/// grid run finishes in test time. Deterministic and thread-count-free, so
/// runs stay bitwise reproducible.
nn::TcnnOptions ScenarioTcnnOptions();

/// Everything that varies between runs of one ScenarioSpec: the policy,
/// the predictive model behind it, and the world backend. The defaults
/// reproduce the pre-bridge behaviour (model-guided ALS on the synthetic
/// surface).
struct RunConfig {
  /// Offline exploration policy.
  PolicyKind policy = PolicyKind::kModelGuided;
  /// Predictive model for kModelGuided and for the online phase.
  PredictorArm arm = PredictorArm::kCompleter;
  /// Completion algorithm when arm == kCompleter.
  CompleterKind completer = CompleterKind::kAls;
  /// World backend; neural arms require kSimDb.
  WorldKind world = WorldKind::kSynthetic;
  /// TCNN hyper-parameters for the neural arms (seed is overridden from
  /// the scenario seed per phase).
  nn::TcnnOptions tcnn = ScenarioTcnnOptions();
  /// Serving threads for the online phase (>= 1): that many serving
  /// threads over a ShardedServingTier of `shards` engines
  /// (src/core/shard_router.h), epoch-synchronized by default or
  /// free-running (below). Every run serves through the tier.
  int serve_threads = 1;
  /// Serving mode; it only picks the tier loop that serves. False
  /// (default) is epoch-synchronized (ShardedServingTier::ServeSchedule):
  /// the threads decide hints on the shard snapshots over the
  /// deterministic schedule in epochs of publish_every servings, and each
  /// epoch ends in the tier's barrier (drain, refit on cadence,
  /// republish). The merged serving trace is bitwise identical at every
  /// serve_threads. True is the deployment shape: the tier's train plane
  /// drains, refits, and republishes while
  /// ShardedServingTier::ServeFreeRunning's serve_threads threads serve
  /// against whatever snapshot is current, claiming global indices in
  /// batches of 16. Timing decides which snapshot each serving sees, so
  /// the bitwise trace contract does not apply. In both modes
  /// SimulationDriver replays the recorded TierServing of every serving
  /// and checks the same invariants per shard and fleet-wide: a hard
  /// per-shard staleness bound L = 2 * queue capacity + serve_threads * 16
  /// + publish_every, a global staleness bound L + (serve_threads - 1) *
  /// 16, gate correctness (no exploration ever decided on an exhausted
  /// published slice), regret bounded by the budget plus the summed
  /// per-shard in-flight windows, ledger consistency, the binomial epsilon
  /// cap, and freeze-after-exhaustion.
  bool free_running = false;
  /// Offline policies (Greedy, ModelGuided) may re-probe censored cells
  /// whose bound/prediction still undercuts the row's current best.
  bool revisit_censored = false;
  /// Fault world to run under: when faults.any(), the scenario backend is
  /// wrapped in a FaultyBackend injecting the spec's seed-pure schedule
  /// (execution crashes, latency spikes, timeout storms, serving
  /// failures), and the driver applies retry-with-backoff plus graceful
  /// degradation — a serving whose chosen hint keeps failing falls back to
  /// the default hint, reported non-exploratory with zero regret and
  /// accounted in the result's fault block. Every invariant the driver
  /// checks must still hold. The default spec injects nothing.
  FaultSpec faults;
  /// Extra attempts after a faulted execution or serving attempt before
  /// giving up (offline: BackendResult::failed; serving: degradation to
  /// the default hint).
  int max_retries = 3;
  /// Base of the seeded exponential backoff accounted per retry, in
  /// seconds. Backoff is accounted (SimulationResult::fault_backoff_seconds),
  /// never slept, and never charged to the offline clock or the regret
  /// ledger — the no-double-charge invariant for transient faults.
  double retry_backoff_seconds = 0.05;
  /// Engine shards of the serving tier (>= 1). Rows route by the tier's
  /// deterministic row->shard partition and the fleet regret budget splits
  /// into row-count-proportional per-shard slices. At one shard (default)
  /// local rows are global rows and the single slice is the whole budget,
  /// so every predictor arm serves and the trace equals the one a bare
  /// engine served (tests/shard_router_test.cc pins frozen bare-engine
  /// goldens); more shards require arm == kCompleter (per-shard matrices
  /// need a per-shard completion model). The tier trains through one
  /// TrainExecutor (src/core/train_executor.h) at its default sizing:
  /// free-running mode runs its worker pool, the epoch-synchronized mode
  /// its SyncEpochAll barrier.
  int shards = 1;
};

/// One serving of the online phase, recorded at its global serving index.
/// The full trace is the determinism artifact: equal specs and configs
/// produce equal traces, bitwise, at any serve_threads.
struct ServingRecord {
  /// Query served at this index.
  int query = 0;
  /// Hint it was served with.
  int hint = 0;
  /// Observed latency, in seconds.
  double latency = 0.0;
  /// Field-wise equality (the trace-comparison primitive).
  bool operator==(const ServingRecord&) const = default;
};

/// Outcome of one scenario run: headline metrics plus every invariant
/// violation observed. `violations` empty means all paper invariants held.
struct SimulationResult {
  /// Scenario name (ScenarioSpec::name).
  std::string scenario;
  /// Policy display name (e.g. "ALS-greedy", "LimeQO+-greedy").
  std::string policy;
  /// World backend display name ("Synthetic" or "SimDb").
  std::string world;
  /// The reproducing master seed (ScenarioSpec::seed).
  uint64_t seed = 0;

  // Workload quality.
  double default_latency = 0.0;   ///< P(W) serving only defaults (true values)
  double final_latency = 0.0;     ///< P(W~) after the run (observed values)
  double optimal_latency = 0.0;   ///< oracle P(W) (true values)

  // Offline accounting.
  double offline_seconds = 0.0;   ///< simulated execution time spent
  double overhead_seconds = 0.0;  ///< model/selection wall time
  int executions = 0;             ///< charged offline executions
  int timeouts = 0;               ///< executions cut off by their timeout
  int arrivals = 0;               ///< queries that joined via the schedule

  // Online accounting (zeros when the scenario has no online phase).
  int servings = 0;               ///< online ChooseHint calls
  int explorations = 0;           ///< exploratory servings
  double regret_spent = 0.0;      ///< cumulative regret charged (seconds)
  /// Per-serving record of the online phase, indexed by global serving
  /// sequence number — the bitwise determinism artifact. Built from the
  /// servings the driver replays, and filled only by the epoch-synchronized
  /// mode: free-running traces are timing-dependent by design.
  std::vector<ServingRecord> serving_trace;

  // Serving replay accounting, filled in both serving modes (zeros when the
  // scenario has no online phase). A serving's staleness is the number of
  // earlier global servings on its shard that its deciding snapshot had not
  // yet drained; in the epoch-synchronized mode it stays below
  // publish_every.
  double staleness_p50 = 0.0;  ///< median staleness at decision (servings)
  double staleness_p95 = 0.0;  ///< 95th-percentile staleness (servings)
  double staleness_max = 0.0;  ///< worst staleness observed (servings)
  /// Regret overshoot past the budget (seconds): regret charged by
  /// explorations whose deciding snapshot predated budget exhaustion. The
  /// driver checks it against the summed per-shard in-flight windows (per
  /// shard, the largest regret any single decision could not yet see).
  double regret_slack = 0.0;

  // Fault accounting (zeros unless RunConfig::faults is active). Fault
  // costs live here and only here: a degraded serving is reported
  // non-exploratory with zero regret, and a retried execution charges the
  // offline clock exactly once — faults never double-charge any budget.
  /// Offline execution attempts that crashed (each retried or given up).
  int fault_exec_failures = 0;
  /// Retry attempts performed after a crashed execution attempt.
  int fault_exec_retries = 0;
  /// Execute calls that exhausted every retry (dropped, re-proposable).
  int fault_exec_exhausted = 0;
  /// Serving attempts that failed before producing a latency.
  int fault_serve_failures = 0;
  /// Servings degraded to the default hint after exhausting retries.
  int fault_serve_fallbacks = 0;
  /// Seconds of seeded exponential backoff accounted across all retries.
  double fault_backoff_seconds = 0.0;

  /// Human-readable invariant violations; empty means the run is clean.
  std::vector<std::string> violations;

  /// True when every checked invariant held.
  bool ok() const { return violations.empty(); }

  /// One-line run summary including the reproducing seed; appended to every
  /// test failure message.
  std::string Summary() const;
};

/// Runs one ScenarioSpec end to end — offline exploration (with drift and
/// arrival events applied mid-budget), then the online serving loop — and
/// checks the paper's invariants with ground-truth access no real
/// deployment has:
///
///  * no-regression: every query's final serving is its verified best, and
///    never a plan observed slower than the observed default (Algorithm 1
///    lines 13-15);
///  * budget accounting: the offline clock can overshoot the budget by at
///    most one execution's charge per exploration segment, and the charge
///    of every timed-out execution equals its timeout threshold;
///  * timeout accounting: the explorer's censor count equals the number of
///    BackendResult::timed_out results it was handed, censored cells never
///    define a row best, and use_timeouts=false produces no censoring;
///  * monotonicity: offline workload latency is non-increasing between
///    drift/arrival events;
///  * arrival integrity: a mid-budget arrival never alters any existing
///    observation, and new rows join with exactly the default plan class
///    observed (all other cells unobserved);
///  * online bounds: cumulative regret <= regret_budget_seconds plus the
///    summed per-shard in-flight windows (the gate reads the snapshot's
///    frozen ledger, so a shard's window is the largest regret drained
///    between an exploratory decision's snapshot and its own charge),
///    exploration count stays under its binomial epsilon cap, and an
///    exhausted budget (slice, per shard) freezes exploration;
///  * serving determinism (epoch-synchronized mode): the merged serving
///    trace is a pure function of (spec, config) — bitwise identical at
///    every serve_threads — because each decision depends only on the
///    epoch's shard snapshot and its global serving index, and
///    observations are drained in serving order;
///  * serving replay (both modes), per shard: no serving is lost or
///    double-counted, snapshot staleness is hard-bounded by L = 2 * queue
///    capacity + serve_threads * 16 + publish_every (free-running threads
///    claim the shard-local index before probing the snapshot and decide
///    in claimed batches of 16 global indices; an epoch decides on its
///    entry snapshot), no exploration is ever decided on a published
///    ledger at/over the shard's slice, the drained ledger reproduces the
///    per-serving regret deltas exactly, and exploration freezes for good
///    once an exhausted ledger is published; fleet-wide, the earlier
///    global servings missing from any deciding snapshot stay within
///    L + (serve_threads - 1) * 16;
///  * fault tolerance (RunConfig::faults): under any seed-pure fault world
///    every invariant above still holds — failed executions are dropped
///    whole (no offline charge, no observation), failed servings retry and
///    then degrade to the default hint (non-exploratory, zero regret), and
///    all fault costs land in the result's fault block, never in the
///    offline or regret budgets.
class SimulationDriver {
 public:
  /// Captures the spec; each Run compiles a fresh world from it.
  explicit SimulationDriver(const ScenarioSpec& spec) : spec_(spec) {}

  /// Builds a fresh world and runs the full scenario under `config`.
  /// Deterministic: equal (spec, config) pairs produce equal results,
  /// bitwise, regardless of thread count.
  SimulationResult Run(const RunConfig& config);

  /// Legacy shorthand: model configuration only, synthetic world.
  SimulationResult Run(PolicyKind policy,
                       CompleterKind completer = CompleterKind::kAls);

 private:
  ScenarioSpec spec_;
};

}  // namespace limeqo::scenarios

#endif  // LIMEQO_SCENARIOS_SIMULATION_H_
