// Fault injection across the engine lifecycle. FaultyBackend's schedule is
// seed-pure, so every fault world is exactly as reproducible as the
// fault-free world it wraps — which lets the driver keep its determinism
// and statistical contracts under faults: the epoch-synchronized serving
// trace stays bitwise identical at every thread count, every free-running
// invariant holds in every fault world, retries and backoff never
// double-charge the offline clock or the regret ledger, and graceful
// degradation (fall back to the default hint, report non-exploratory with
// zero regret) keeps the fault cost in the result's fault block and
// nowhere else.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/backend.h"
#include "proptest.h"
#include "scenarios/faulty_backend.h"
#include "scenarios/scenario.h"
#include "scenarios/simulation.h"
#include "scenarios/synthetic_backend.h"

namespace limeqo::scenarios {
namespace {

ScenarioSpec SmallWorld(uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "fault-world";
  spec.num_queries = 24;
  spec.num_hints = 8;
  spec.latent_rank = 2;
  spec.online_servings = 240;
  spec.epsilon = 0.2;
  spec.seed = seed;
  return spec;
}

// ---------------------------------------------------------------------------
// The schedule itself: seed-pure and replayable.
// ---------------------------------------------------------------------------

TEST(FaultScheduleTest, ExecutionFaultsReplayIdenticallyForTheSameSeed) {
  ScenarioSpec spec = SmallWorld(301);
  FaultSpec faults;
  faults.execute_failure_prob = 0.2;
  faults.spike_prob = 0.15;
  faults.spike_factor = 6.0;
  faults.storm_period = 10;
  faults.storm_length = 4;

  std::vector<core::BackendResult> first;
  for (int pass = 0; pass < 2; ++pass) {
    FaultyBackend backend(std::make_unique<SyntheticBackend>(spec), faults,
                          /*max_retries=*/2, /*backoff_seconds=*/0.01);
    std::vector<core::BackendResult> results;
    for (int i = 0; i < 200; ++i) {
      const int q = i % spec.num_queries;
      const int h = i % spec.num_hints;
      results.push_back(backend.Execute(q, h, /*timeout_seconds=*/0.5));
    }
    if (pass == 0) {
      first = results;
      EXPECT_GT(backend.exec_failures(), 0);
      EXPECT_GT(backend.spikes_injected(), 0);
      EXPECT_GT(backend.storm_timeouts(), 0);
      EXPECT_GT(backend.backoff_seconds(), 0.0);
    } else {
      ASSERT_EQ(results.size(), first.size());
      for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].observed_latency, first[i].observed_latency)
            << "execution " << i;
        EXPECT_EQ(results[i].timed_out, first[i].timed_out);
        EXPECT_EQ(results[i].failed, first[i].failed);
      }
    }
  }
}

TEST(FaultScheduleTest, ServingFaultsArePurePerAttemptAndSpareTheDefault) {
  ScenarioSpec spec = SmallWorld(302);
  FaultSpec faults;
  faults.serve_failure_prob = 0.3;
  int failures = 0;
  for (uint64_t s = 0; s < 400; ++s) {
    const int q = static_cast<int>(s) % spec.num_queries;
    const int h = 1 + static_cast<int>(s) % (spec.num_hints - 1);
    const bool fails = FaultyBackend::AttemptFails(faults, q, h, s, 0);
    // Pure: the same (query, hint, seq, attempt) always rolls the same way.
    EXPECT_EQ(fails, FaultyBackend::AttemptFails(faults, q, h, s, 0));
    // Independent attempts may differ, but the default hint never fails —
    // degradation always terminates.
    EXPECT_FALSE(FaultyBackend::AttemptFails(faults, q, 0, s, 0));
    failures += fails ? 1 : 0;
  }
  EXPECT_GT(failures, 400 * 0.3 / 2);
  EXPECT_LT(failures, 400 * 0.3 * 2);
}

TEST(FaultWorldsTest, LookupByNameFindsEveryWorldAndRejectsUnknown) {
  const std::vector<FaultSpec> worlds = FaultWorlds();
  ASSERT_GE(worlds.size(), 5u);
  EXPECT_EQ(worlds.front().name, "none");
  EXPECT_FALSE(worlds.front().any());
  for (const FaultSpec& w : worlds) {
    const StatusOr<FaultSpec> found = FaultWorldByName(w.name);
    ASSERT_TRUE(found.ok()) << w.name;
    EXPECT_EQ(found->name, w.name);
  }
  const StatusOr<FaultSpec> missing = FaultWorldByName("perfectly-reliable");
  EXPECT_FALSE(missing.ok());
  // The error names the valid worlds, so a CLI typo is self-correcting.
  EXPECT_NE(missing.status().message().find("chaos"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Driver contracts under faults.
// ---------------------------------------------------------------------------

TEST(FaultDriverTest, EpochModeTraceIsBitwiseIdenticalAtEveryThreadCount) {
  for (const FaultSpec& faults : FaultWorlds()) {
    RunConfig base;
    base.policy = PolicyKind::kModelGuided;
    base.completer = CompleterKind::kAls;
    base.faults = faults;
    base.serve_threads = 1;
    const SimulationResult single = SimulationDriver(SmallWorld(303)).Run(base);
    ASSERT_TRUE(single.ok()) << faults.name << "\n" << single.Summary();
    for (const int threads : {2, 4}) {
      RunConfig config = base;
      config.serve_threads = threads;
      const SimulationResult multi =
          SimulationDriver(SmallWorld(303)).Run(config);
      ASSERT_TRUE(multi.ok()) << faults.name << "\n" << multi.Summary();
      ASSERT_EQ(single.serving_trace.size(), multi.serving_trace.size());
      for (size_t s = 0; s < single.serving_trace.size(); ++s) {
        ASSERT_TRUE(single.serving_trace[s] == multi.serving_trace[s])
            << faults.name << " diverges at serving " << s << " with "
            << threads << " threads";
      }
      // Fault accounting is part of the deterministic outcome.
      EXPECT_EQ(single.fault_serve_failures, multi.fault_serve_failures);
      EXPECT_EQ(single.fault_serve_fallbacks, multi.fault_serve_fallbacks);
      EXPECT_EQ(single.regret_spent, multi.regret_spent);
    }
  }
}

TEST(FaultDriverTest, EveryFaultWorldKeepsEveryInvariantInEveryServingMode) {
  for (const FaultSpec& faults : FaultWorlds()) {
    for (const int mode : {0, 1, 2}) {  // epochs at 1 / 3 threads, free
      RunConfig config;
      config.policy = PolicyKind::kModelGuided;
      config.completer = CompleterKind::kAls;
      config.faults = faults;
      config.serve_threads = mode == 0 ? 1 : 3;
      config.free_running = mode == 2;
      const SimulationResult result =
          SimulationDriver(SmallWorld(304 + mode)).Run(config);
      EXPECT_TRUE(result.ok())
          << "world '" << faults.name << "' mode " << mode << "\n"
          << result.Summary();
      // Every mode serves through the tier, so every mode rolls the
      // per-attempt serving-failure channel (AttemptFails).
      if (faults.serve_failure_prob > 0.0) {
        EXPECT_GT(result.fault_serve_failures, 0) << faults.name;
      }
      if (faults.execute_failure_prob > 0.0) {
        EXPECT_GT(result.fault_exec_failures, 0) << faults.name;
      }
    }
  }
}

TEST(FaultDriverTest, RetriesAndBackoffNeverDoubleChargeAnyBudget) {
  // Same world, same seed, with and without execution faults: the faulted
  // run must charge the offline clock only for executions that really
  // produced a measurement (plus nothing for backoff), and the regret
  // ledger must stay within the configured budget exactly as in the
  // fault-free run. "Double charging" would show up as offline_seconds
  // growing with the retry count or as backoff leaking into either budget.
  const ScenarioSpec spec = SmallWorld(305);
  RunConfig clean;
  clean.policy = PolicyKind::kModelGuided;
  clean.completer = CompleterKind::kAls;
  const SimulationResult fault_free = SimulationDriver(spec).Run(clean);
  ASSERT_TRUE(fault_free.ok()) << fault_free.Summary();

  RunConfig faulted = clean;
  faulted.faults = *FaultWorldByName("flaky");
  faulted.max_retries = 5;
  faulted.retry_backoff_seconds = 10.0;  // enormous, so leakage is loud
  const SimulationResult result = SimulationDriver(spec).Run(faulted);
  ASSERT_TRUE(result.ok()) << result.Summary();

  EXPECT_GT(result.fault_exec_retries, 0);
  EXPECT_GT(result.fault_backoff_seconds, 0.0);
  // The offline budget cap is enforced on charged executions in both runs
  // (with the usual one-execution overshoot allowance); backoff — hundreds
  // of accounted seconds here — must not appear in it.
  const SyntheticBackend reference(spec);
  const double budget =
      spec.budget_fraction * reference.DefaultWorkloadLatency();
  const double slack = reference.MaxTrueLatency();
  EXPECT_LE(fault_free.offline_seconds, budget + slack + 1e-9);
  EXPECT_LE(result.offline_seconds, budget + slack + 1e-9)
      << "backoff or retries leaked into the offline clock";
  // ok() above already asserts the online-regret-budget invariant with the
  // summed per-shard in-flight windows — the ledger is clean in both runs.
}

TEST(FaultDriverTest, ColdStartFleetSurvivesEveryFaultWorld) {
  const std::vector<ScenarioSpec> grid = ScenarioGrid();
  const auto it =
      std::find_if(grid.begin(), grid.end(), [](const ScenarioSpec& s) {
        return s.name == "cold-start-fleet";
      });
  ASSERT_NE(it, grid.end());
  for (const FaultSpec& faults : FaultWorlds()) {
    RunConfig config;
    config.policy = PolicyKind::kModelGuided;
    config.completer = CompleterKind::kAls;
    config.faults = faults;
    config.serve_threads = 2;
    const SimulationResult result = SimulationDriver(*it).Run(config);
    EXPECT_TRUE(result.ok()) << faults.name << "\n" << result.Summary();
    EXPECT_EQ(result.arrivals, it->num_queries) << faults.name;
  }
}

// ---------------------------------------------------------------------------
// Property: random worlds x random fault specs x random serving modes, all
// invariants hold and the fault accounting is internally consistent.
// ---------------------------------------------------------------------------

TEST(FaultPropertyTest, RandomFaultWorldsKeepAllInvariants) {
  proptest::Config config;
  config.runs = 10;
  proptest::Check(
      "driver invariants hold under random fault schedules",
      [](proptest::Params& p) {
        ScenarioSpec spec;
        spec.name = "fault-prop";
        spec.num_queries = static_cast<int>(p.Int(10, 40));
        spec.num_hints = static_cast<int>(p.Int(4, 10));
        spec.latent_rank = static_cast<int>(p.Int(1, 3));
        spec.noise_sigma = p.Double(0.0, 0.2);
        spec.use_timeouts = p.Bool(0.8);
        spec.online_servings = static_cast<int>(p.Int(40, 200));
        spec.epsilon = p.Double(0.05, 0.3);
        spec.seed = static_cast<uint64_t>(p.Int(1, 1 << 30));

        RunConfig run;
        run.policy = static_cast<PolicyKind>(p.Int(0, 2));
        run.completer = CompleterKind::kAls;
        run.faults.name = "random";
        run.faults.execute_failure_prob = p.Double(0.0, 0.3);
        run.faults.serve_failure_prob = p.Double(0.0, 0.25);
        run.faults.spike_prob = p.Double(0.0, 0.2);
        run.faults.spike_factor = p.Double(1.0, 10.0);
        if (p.Bool(0.5)) {
          run.faults.storm_period = static_cast<int>(p.Int(5, 60));
          run.faults.storm_length = static_cast<int>(p.Int(1, 10));
        }
        run.faults.seed = static_cast<uint64_t>(p.Int(1, 1 << 30));
        run.max_retries = static_cast<int>(p.Int(0, 5));
        run.retry_backoff_seconds = p.Double(0.0, 1.0);
        const int mode = static_cast<int>(p.Int(0, 2));
        run.serve_threads = mode == 0 ? 1 : static_cast<int>(p.Int(1, 4));
        run.free_running = mode == 2;

        const SimulationResult result = SimulationDriver(spec).Run(run);
        if (!result.ok()) {
          std::fprintf(stderr, "world {%s} faults p_exec=%.3f p_serve=%.3f\n%s\n",
                       Describe(spec).c_str(),
                       run.faults.execute_failure_prob,
                       run.faults.serve_failure_prob,
                       result.Summary().c_str());
          return false;
        }
        // Accounting consistency: fallbacks only happen after failures,
        // retries imply accounted backoff (when a base is configured), and
        // nothing is negative.
        if (result.fault_serve_fallbacks > 0 &&
            result.fault_serve_failures < result.fault_serve_fallbacks) {
          std::fprintf(stderr, "fallbacks (%d) without failures (%d)\n",
                       result.fault_serve_fallbacks,
                       result.fault_serve_failures);
          return false;
        }
        if (run.retry_backoff_seconds > 0.0 && result.fault_exec_retries > 0 &&
            result.fault_backoff_seconds <= 0.0) {
          std::fprintf(stderr, "retries without accounted backoff\n");
          return false;
        }
        return result.fault_exec_failures >= 0 &&
               result.fault_exec_exhausted >= 0 &&
               result.fault_backoff_seconds >= 0.0;
      },
      config);
}

}  // namespace
}  // namespace limeqo::scenarios
