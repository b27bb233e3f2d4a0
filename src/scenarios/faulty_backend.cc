#include "scenarios/faulty_backend.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace limeqo::scenarios {
namespace {

// Independent substreams of the fault schedule, mixed into the spec seed so
// the channels never correlate.
constexpr uint64_t kExecCrashStream = 0x45584543u;   // "EXEC"
constexpr uint64_t kSpikeStream = 0x5350494Bu;       // "SPIK"
constexpr uint64_t kServeFailStream = 0x53455256u;   // "SERV"
constexpr uint64_t kBackoffStream = 0x4241434Bu;     // "BACK"

/// One pure Bernoulli draw of the fault schedule: the same (seed, stream,
/// ordinal) triple always rolls the same outcome.
bool Roll(uint64_t seed, uint64_t stream, uint64_t ordinal, double p) {
  if (p <= 0.0) return false;
  limeqo::Rng rng(limeqo::MixSeed(seed, stream, ordinal));
  return rng.NextDouble() < p;
}

}  // namespace

std::vector<FaultSpec> FaultWorlds() {
  std::vector<FaultSpec> worlds;
  {
    FaultSpec w;  // the fault-free control world
    worlds.push_back(w);
  }
  {
    FaultSpec w;
    w.name = "flaky";
    w.execute_failure_prob = 0.15;
    w.serve_failure_prob = 0.10;
    worlds.push_back(w);
  }
  {
    FaultSpec w;
    w.name = "spiky";
    w.spike_prob = 0.10;
    w.spike_factor = 8.0;
    worlds.push_back(w);
  }
  {
    FaultSpec w;
    w.name = "storms";
    w.storm_period = 40;
    w.storm_length = 8;
    worlds.push_back(w);
  }
  {
    FaultSpec w;
    w.name = "chaos";
    w.execute_failure_prob = 0.10;
    w.serve_failure_prob = 0.08;
    w.spike_prob = 0.05;
    w.spike_factor = 5.0;
    w.storm_period = 60;
    w.storm_length = 6;
    worlds.push_back(w);
  }
  return worlds;
}

StatusOr<FaultSpec> FaultWorldByName(const std::string& name) {
  const std::vector<FaultSpec> worlds = FaultWorlds();
  for (const FaultSpec& w : worlds) {
    if (w.name == name) return w;
  }
  std::ostringstream os;
  os << "unknown fault world '" << name << "'; valid worlds:";
  for (const FaultSpec& w : worlds) os << " " << w.name;
  return Status::InvalidArgument(os.str());
}

FaultyBackend::FaultyBackend(std::unique_ptr<ScenarioBackend> inner,
                             const FaultSpec& spec, int max_retries,
                             double backoff_seconds)
    : inner_(std::move(inner)),
      spec_(spec),
      max_retries_(max_retries),
      backoff_base_seconds_(backoff_seconds) {
  LIMEQO_CHECK(inner_ != nullptr);
  LIMEQO_CHECK(max_retries_ >= 0);
  LIMEQO_CHECK(backoff_base_seconds_ >= 0.0);
  LIMEQO_CHECK(spec_.execute_failure_prob >= 0.0 &&
               spec_.execute_failure_prob < 1.0);
  LIMEQO_CHECK(spec_.serve_failure_prob >= 0.0 &&
               spec_.serve_failure_prob < 1.0);
  LIMEQO_CHECK(spec_.spike_prob >= 0.0 && spec_.spike_prob <= 1.0);
  LIMEQO_CHECK(spec_.spike_factor >= 1.0);
  LIMEQO_CHECK(spec_.storm_period >= 0 && spec_.storm_length >= 0);
}

bool FaultyBackend::StormActive() const {
  if (spec_.storm_period <= 0 || spec_.storm_length <= 0) return false;
  const uint64_t cycle =
      static_cast<uint64_t>(spec_.storm_period + spec_.storm_length);
  return exec_clock_ % cycle >= static_cast<uint64_t>(spec_.storm_period);
}

core::BackendResult FaultyBackend::Execute(int query, int hint,
                                     double timeout_seconds) {
  for (int attempt = 0; attempt <= max_retries_; ++attempt) {
    const uint64_t ordinal = attempt_ordinal_++;
    if (attempt > 0) {
      // Seeded exponential backoff before the retry: base * 2^(attempt-1),
      // jittered to [0.5x, 1.5x). Accounted, never slept — and never
      // charged to the offline exploration clock, so a retried execution
      // costs the budget exactly what its one successful run observed.
      limeqo::Rng jitter(limeqo::MixSeed(spec_.seed, kBackoffStream, ordinal));
      backoff_seconds_ += backoff_base_seconds_ *
                          std::ldexp(1.0, attempt - 1) *
                          (0.5 + jitter.NextDouble());
      ++exec_retries_;
    }
    if (Roll(spec_.seed, kExecCrashStream, ordinal,
             spec_.execute_failure_prob)) {
      // The attempt crashed before producing any measurement: the inner
      // backend never ran, nothing is observable.
      ++exec_failures_;
      continue;
    }
    core::BackendResult r;
    if (StormActive() && timeout_seconds > 0.0) {
      // A storm forces every timed execution to its threshold: the run is
      // cut off, so the observation is the censoring bound — exactly what
      // a genuinely slow execution under this timeout would report.
      r.observed_latency = timeout_seconds;
      r.timed_out = true;
      ++storm_timeouts_;
    } else if (Roll(spec_.seed, kSpikeStream, ordinal, spec_.spike_prob)) {
      // A spike stalls the execution by spike_factor. Run the inner
      // backend uncut to learn what the execution would have observed,
      // stretch it, then re-apply the caller's timeout to the stretched
      // latency — a spiked run that blows past its threshold times out.
      r = inner_->Execute(query, hint, /*timeout_seconds=*/0.0);
      r.observed_latency *= spec_.spike_factor;
      ++spikes_injected_;
      if (timeout_seconds > 0.0 && r.observed_latency >= timeout_seconds) {
        r.observed_latency = timeout_seconds;
        r.timed_out = true;
      }
    } else {
      r = inner_->Execute(query, hint, timeout_seconds);
    }
    ++executions_;
    ++exec_clock_;
    if (r.timed_out) ++timeouts_;
    max_single_charge_ = std::max(max_single_charge_, r.observed_latency);
    return r;
  }
  // Every attempt crashed: the call produced no measurement at all.
  ++exec_exhausted_;
  core::BackendResult failed;
  failed.failed = true;
  return failed;
}

bool FaultyBackend::AttemptFails(const FaultSpec& spec, int query, int hint,
                                 uint64_t serving_index, int attempt) {
  // The default hint is the graceful-degradation fallback; it never fails,
  // so a degraded serving always terminates.
  if (hint == 0) return false;
  if (spec.serve_failure_prob <= 0.0) return false;
  const uint64_t cell = limeqo::MixSeed(static_cast<uint64_t>(query),
                                        static_cast<uint64_t>(hint));
  const uint64_t when =
      limeqo::MixSeed(serving_index, static_cast<uint64_t>(attempt));
  limeqo::Rng rng(limeqo::MixSeed(
      limeqo::MixSeed(spec.seed, kServeFailStream), cell, when));
  return rng.NextDouble() < spec.serve_failure_prob;
}

ResolvedServing ResolveServingFaults(const FaultSpec& spec, int max_retries,
                                     double backoff_base, int query,
                                     int chosen, uint64_t seq) {
  ResolvedServing r;
  r.hint = chosen;
  for (int attempt = 0;; ++attempt) {
    if (!FaultyBackend::AttemptFails(spec, query, r.hint, seq, attempt)) break;
    ++r.failures;
    if (attempt >= max_retries) {
      // Graceful degradation: the chosen plan keeps failing, the serving
      // must still answer — fall back to the default hint (never fails).
      r.hint = 0;
      r.degraded = true;
      break;
    }
    limeqo::Rng jitter(
        limeqo::MixSeed(spec.seed, seq, static_cast<uint64_t>(attempt)));
    r.backoff_seconds +=
        backoff_base * std::ldexp(1.0, attempt) * (0.5 + jitter.NextDouble());
  }
  return r;
}

}  // namespace limeqo::scenarios
