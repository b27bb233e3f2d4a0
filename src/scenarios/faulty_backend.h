#ifndef LIMEQO_SCENARIOS_FAULTY_BACKEND_H_
#define LIMEQO_SCENARIOS_FAULTY_BACKEND_H_

/// \file
/// FaultyBackend: a fault-injection decorator over any ScenarioBackend.
/// Every fault it injects is drawn from a seed-pure schedule, so a fault
/// world is exactly as reproducible as the fault-free world it wraps: the
/// same spec and FaultSpec produce the same crashes, spikes, and storms on
/// every run, at every thread count.

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "scenarios/scenario_backend.h"

namespace limeqo::scenarios {

/// One fault world: the knobs of the seed-pure fault schedule a
/// FaultyBackend injects. All probabilities are per-attempt. The default
/// spec injects nothing (any() == false), so a RunConfig holding a default
/// FaultSpec behaves exactly like the fault-free driver.
struct FaultSpec {
  /// Display name of the world ("none", "flaky", ...).
  std::string name = "none";
  /// Probability that one offline execution attempt crashes before
  /// producing any measurement (connection loss — BackendResult::failed
  /// after the decorator's internal retries are exhausted).
  double execute_failure_prob = 0.0;
  /// Probability that one serving attempt of a non-default hint fails
  /// (FaultyBackend::AttemptFails). The default hint (0) never fails: it is
  /// the graceful-degradation fallback, so degradation always terminates.
  double serve_failure_prob = 0.0;
  /// Probability that one offline execution stalls: its latency is
  /// multiplied by spike_factor (then re-cut by the caller's timeout).
  double spike_prob = 0.0;
  /// Latency multiplier of a spiked execution.
  double spike_factor = 1.0;
  /// Transient timeout storms: after every `storm_period` completed
  /// executions, the next `storm_length` executions that carry a timeout
  /// are forced to time out at their threshold. 0 disables storms.
  int storm_period = 0;
  /// Length of each storm, in executions.
  int storm_length = 0;
  /// Seed of the fault schedule (independent of the scenario seed).
  uint64_t seed = 0xFA171u;

  /// True when any fault channel is enabled.
  bool any() const {
    return execute_failure_prob > 0.0 || serve_failure_prob > 0.0 ||
           spike_prob > 0.0 || (storm_period > 0 && storm_length > 0);
  }
};

/// The named fault worlds the test grid sweeps: "none" (injects nothing),
/// "flaky" (execution + serving failures), "spiky" (latency spikes),
/// "storms" (periodic timeout storms), and "chaos" (all channels at once).
/// Every statistical invariant the driver checks must hold in every world.
std::vector<FaultSpec> FaultWorlds();

/// Looks up a world from FaultWorlds() by name; InvalidArgument when the
/// name is unknown (the error lists the valid names).
StatusOr<FaultSpec> FaultWorldByName(const std::string& name);

/// Decorates a ScenarioBackend with the seed-pure fault schedule of a
/// FaultSpec.
///
/// Offline path (Execute): each call makes up to 1 + max_retries attempts.
/// An attempt either crashes (execute_failure_prob, no inner execution, no
/// measurement), or produces a result — possibly spiked (latency times
/// spike_factor, re-cut by the caller's timeout) or storm-forced to time
/// out at its threshold. Retries wait a seeded exponential backoff that is
/// *accounted* (backoff_seconds()), never slept, and never charged to the
/// offline exploration clock — the no-double-charge invariant. A call that
/// exhausts every attempt returns BackendResult::failed.
///
/// Serving path: ServeLatency is forwarded untouched, so the serving trace
/// stays bitwise comparable against the fault-free world wherever the same
/// hints get served. Serving failures are a pure function of the FaultSpec
/// (AttemptFails, ResolveServingFaults) and need no backend at all.
///
/// Execution accounting (executions(), timeouts_reported(),
/// max_single_charge()) describes what this decorator *returned*, not what
/// the inner backend ran — storm-forced timeouts never reach the inner
/// backend, and the driver's timeout-accounting invariant ties the
/// explorer's censor count to the outer counters.
class FaultyBackend : public ScenarioBackend {
 public:
  /// Takes ownership of the wrapped world. `max_retries` is the number of
  /// extra attempts Execute makes after a crashed one; `backoff_seconds`
  /// is the base of the seeded exponential backoff accounted per retry.
  FaultyBackend(std::unique_ptr<ScenarioBackend> inner, const FaultSpec& spec,
                int max_retries, double backoff_seconds);

  const FaultSpec& spec() const { return spec_; }

  // --- WorkloadBackend ----------------------------------------------------
  int num_queries() const override { return inner_->num_queries(); }
  int num_hints() const override { return inner_->num_hints(); }
  core::BackendResult Execute(int query, int hint, double timeout_seconds) override;
  double OptimizerCost(int query, int hint) const override {
    return inner_->OptimizerCost(query, hint);
  }
  const plan::PlanNode* Plan(int query, int hint) const override {
    return inner_->Plan(query, hint);
  }
  std::vector<int> EquivalentHints(int query, int hint) const override {
    return inner_->EquivalentHints(query, hint);
  }

  // --- ScenarioBackend ----------------------------------------------------
  void ApplyDrift(double severity) override { inner_->ApplyDrift(severity); }
  double ServeLatency(int query, int hint,
                      uint64_t serving_index) const override {
    return inner_->ServeLatency(query, hint, serving_index);
  }
  /// The pure per-attempt serving-failure roll of `spec`: whether attempt
  /// number `attempt` (0-based) of serving (query, hint) as the
  /// `serving_index`-th serving fails before producing a latency. The
  /// default hint (0) never fails, and nothing fails when
  /// serve_failure_prob is 0.
  static bool AttemptFails(const FaultSpec& spec, int query, int hint,
                           uint64_t serving_index, int attempt);
  double TrueLatency(int query, int hint) const override {
    return inner_->TrueLatency(query, hint);
  }
  double DefaultWorkloadLatency() const override {
    return inner_->DefaultWorkloadLatency();
  }
  double OptimalWorkloadLatency() const override {
    return inner_->OptimalWorkloadLatency();
  }
  double MaxTrueLatency() const override { return inner_->MaxTrueLatency(); }
  int executions() const override { return executions_; }
  int timeouts_reported() const override { return timeouts_; }
  double max_single_charge() const override { return max_single_charge_; }

  // --- Fault accounting ---------------------------------------------------
  /// Execution attempts that crashed (each either retried or exhausted).
  int exec_failures() const { return exec_failures_; }
  /// Retry attempts performed after a crashed one.
  int exec_retries() const { return exec_retries_; }
  /// Execute calls that exhausted every attempt (returned failed).
  int exec_exhausted() const { return exec_exhausted_; }
  /// Executions whose latency was spiked.
  int spikes_injected() const { return spikes_injected_; }
  /// Executions storm-forced to time out at their threshold.
  int storm_timeouts() const { return storm_timeouts_; }
  /// Total seeded exponential backoff accounted across retries (seconds).
  /// Never slept, never charged to the offline clock.
  double backoff_seconds() const { return backoff_seconds_; }

 private:
  /// Whether the storm window is open at the current execution clock.
  bool StormActive() const;

  std::unique_ptr<ScenarioBackend> inner_;
  FaultSpec spec_;
  int max_retries_;
  double backoff_base_seconds_;

  // Execute is only ever called from the (single-threaded) train plane;
  // the serving path goes through the const, pure ServeLatency, which
  // touches none of this state.
  uint64_t attempt_ordinal_ = 0;  ///< global attempt counter (fault stream)
  uint64_t exec_clock_ = 0;       ///< completed executions (storm clock)
  int executions_ = 0;
  int timeouts_ = 0;
  double max_single_charge_ = 0.0;
  int exec_failures_ = 0;
  int exec_retries_ = 0;
  int exec_exhausted_ = 0;
  int spikes_injected_ = 0;
  int storm_timeouts_ = 0;
  double backoff_seconds_ = 0.0;
};

/// How one serving's faults resolved (see ResolveServingFaults).
struct ResolvedServing {
  /// Hint actually served: the chosen one, or 0 when degraded.
  int hint = 0;
  /// Failed attempts.
  int failures = 0;
  /// True when every attempt of the chosen hint failed and the serving fell
  /// back to the default hint.
  bool degraded = false;
  /// Seeded exponential backoff accounted across the retries (seconds).
  double backoff_seconds = 0.0;
};

/// The serving-fault rule: retry the chosen hint up to `max_retries` extra
/// attempts (accounting a seeded exponential backoff of base
/// `backoff_base` seconds per retry), then degrade to the default hint,
/// which never fails. Pure in (spec, query, chosen, seq), so serving traces
/// stay bitwise identical at any thread count under faults.
ResolvedServing ResolveServingFaults(const FaultSpec& spec, int max_retries,
                                     double backoff_base, int query,
                                     int chosen, uint64_t seq);

}  // namespace limeqo::scenarios

#endif  // LIMEQO_SCENARIOS_FAULTY_BACKEND_H_
