// Driver-level tests of the concurrent serving plane: the deterministic
// schedule mode of SimulationDriver must produce a serving trace that is
// bitwise identical to the single-threaded trace at every thread count,
// while preserving every invariant the driver checks. Part of
// the CI ThreadSanitizer target (`ctest -R "engine_test|serving_plane_test"`).

#include <cctype>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "scenarios/scenario.h"
#include "scenarios/simulation.h"

namespace limeqo::scenarios {
namespace {

ScenarioSpec GridWorld(const std::string& name) {
  for (const ScenarioSpec& s : ScenarioGrid()) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "no grid world named " << name;
  return ScenarioSpec{};
}

SimulationResult RunConcurrent(const ScenarioSpec& spec, int threads,
                               PolicyKind policy = PolicyKind::kModelGuided) {
  RunConfig config;
  config.policy = policy;
  config.serve_threads = threads;
  return SimulationDriver(spec).Run(config);
}

// ---------------------------------------------------------------------------
// The acceptance invariant: merged concurrent traces are bitwise identical
// to the single-threaded trace at 1, 2, and 4 serving threads.
// ---------------------------------------------------------------------------

class ConcurrentTraceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ConcurrentTraceTest, TraceIsBitwiseIdenticalAcrossThreadCounts) {
  const ScenarioSpec spec = GridWorld(GetParam());
  const SimulationResult single = RunConcurrent(spec, 1);
  ASSERT_TRUE(single.ok()) << single.Summary();
  ASSERT_EQ(static_cast<int>(single.serving_trace.size()),
            spec.online_servings);
  for (int threads : {2, 4}) {
    const SimulationResult multi = RunConcurrent(spec, threads);
    ASSERT_TRUE(multi.ok()) << threads << " threads: " << multi.Summary();
    // The full per-serving trace — query, hint, observed latency — must
    // merge to the same sequence, bitwise.
    ASSERT_EQ(single.serving_trace.size(), multi.serving_trace.size());
    for (size_t s = 0; s < single.serving_trace.size(); ++s) {
      ASSERT_TRUE(single.serving_trace[s] == multi.serving_trace[s])
          << "serving " << s << " diverges at " << threads << " threads: ("
          << single.serving_trace[s].query << ","
          << single.serving_trace[s].hint << ","
          << single.serving_trace[s].latency << ") vs ("
          << multi.serving_trace[s].query << ","
          << multi.serving_trace[s].hint << ","
          << multi.serving_trace[s].latency << ")";
    }
    EXPECT_EQ(single.final_latency, multi.final_latency);
    EXPECT_EQ(single.regret_spent, multi.regret_spent);
    EXPECT_EQ(single.explorations, multi.explorations);
    EXPECT_EQ(single.servings, multi.servings);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, ConcurrentTraceTest,
    ::testing::Values("baseline", "noisy-observations", "heavy-tail-extreme",
                      "plan-equivalence", "online-tight-budget"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// The trace must also be independent of the *linalg* thread count (the
// refits inside the epoch boundaries), on top of the serving thread count.
TEST(ConcurrentServingTest, TraceIndependentOfLinalgThreads) {
  const ScenarioSpec spec = GridWorld("baseline");
  SetNumThreads(1);
  const SimulationResult a = RunConcurrent(spec, 2);
  SetNumThreads(8);
  const SimulationResult b = RunConcurrent(spec, 2);
  SetNumThreads(1);
  ASSERT_TRUE(a.ok()) << a.Summary();
  ASSERT_TRUE(b.ok()) << b.Summary();
  ASSERT_EQ(a.serving_trace.size(), b.serving_trace.size());
  for (size_t s = 0; s < a.serving_trace.size(); ++s) {
    ASSERT_TRUE(a.serving_trace[s] == b.serving_trace[s]) << "serving " << s;
  }
  EXPECT_EQ(a.regret_spent, b.regret_spent);
}

// ---------------------------------------------------------------------------
// Invariants: the concurrent mode must preserve everything the driver
// checks — across the whole grid and all policies (run at 2 threads).
// ---------------------------------------------------------------------------

TEST(ConcurrentServingTest, GridInvariantsHoldUnderConcurrentServing) {
  for (const ScenarioSpec& spec : ScenarioGrid()) {
    for (PolicyKind policy :
         {PolicyKind::kRandom, PolicyKind::kGreedy, PolicyKind::kModelGuided}) {
      const SimulationResult result = RunConcurrent(spec, 2, policy);
      EXPECT_TRUE(result.ok())
          << "spec {" << Describe(spec) << "} policy "
          << PolicyKindName(policy) << "\n"
          << result.Summary();
    }
  }
}

// ---------------------------------------------------------------------------
// Free-running mode: a real background train thread against free-running
// serving threads — the deployment shape. Traces are timing-dependent, so
// the driver checks statistical invariants (hard staleness bound, gate
// correctness, slack-bounded regret, ledger consistency, eventual freeze)
// instead of bitwise equality. Part of the TSan coverage target.
// ---------------------------------------------------------------------------

SimulationResult RunFreeRunning(const ScenarioSpec& spec, int threads,
                                PolicyKind policy = PolicyKind::kModelGuided) {
  RunConfig config;
  config.policy = policy;
  config.serve_threads = threads;
  config.free_running = true;
  return SimulationDriver(spec).Run(config);
}

TEST(FreeRunningServingTest, GridInvariantsHoldUnderFreeRunningServing) {
  for (const ScenarioSpec& spec : ScenarioGrid()) {
    for (PolicyKind policy :
         {PolicyKind::kRandom, PolicyKind::kGreedy, PolicyKind::kModelGuided}) {
      const SimulationResult result = RunFreeRunning(spec, 2, policy);
      EXPECT_TRUE(result.ok())
          << "spec {" << Describe(spec) << "} policy "
          << PolicyKindName(policy) << " free-running\n"
          << result.Summary();
    }
  }
}

TEST(FreeRunningServingTest, InvariantsHoldAcrossServingThreadCounts) {
  // The driver replays every serving in both modes, so both report
  // staleness.
  const ScenarioSpec spec = GridWorld("baseline");
  for (bool free_running : {true, false}) {
    for (int threads : {1, 2, 4}) {
      const SimulationResult result =
          free_running ? RunFreeRunning(spec, threads)
                       : RunConcurrent(spec, threads);
      ASSERT_TRUE(result.ok())
          << threads << " threads, free_running " << free_running << ": "
          << result.Summary();
      EXPECT_EQ(result.servings, spec.online_servings);
      // The staleness accounting is populated and ordered sanely.
      EXPECT_LE(result.staleness_p50, result.staleness_p95);
      EXPECT_LE(result.staleness_p95, result.staleness_max);
      if (!free_running) {
        // Every epoch decides on the snapshot published at its start, so a
        // shard's second serving in an epoch is already one serving stale,
        // and no serving is staler than the epoch (publish_every = 8).
        EXPECT_GT(result.staleness_max, 0.0) << threads << " threads";
        EXPECT_LE(result.staleness_max, 8.0) << threads << " threads";
      }
    }
  }
}

TEST(FreeRunningServingTest, TightBudgetExhaustionFreezesExploration) {
  // online-tight-budget is the world built to exhaust its regret budget;
  // the driver's in-run gate check plus the post-run freeze probe are the
  // acceptance surface for freeze-after-exhaustion under races.
  const ScenarioSpec spec = GridWorld("online-tight-budget");
  const SimulationResult result = RunFreeRunning(spec, 4);
  EXPECT_TRUE(result.ok()) << result.Summary();
  // The slack the run reports must stay within the driver's in-flight
  // bound — a violation would have been recorded, so here we only sanity
  // check the field is populated in a consistent direction.
  EXPECT_GE(result.regret_slack, 0.0);
}

// ---------------------------------------------------------------------------
// With epsilon = 0 the serving plane degenerates to the verified rule: the
// trace must serve each query's verified-best hint from the offline phase.
// ---------------------------------------------------------------------------

TEST(ConcurrentServingTest, EpsilonZeroServesVerifiedHintsOnly) {
  ScenarioSpec spec = GridWorld("baseline");
  spec.epsilon = 0.0;
  spec.noise_sigma = 0.0;  // re-observations must not move the verified best
  const SimulationResult result = RunConcurrent(spec, 2);
  ASSERT_TRUE(result.ok()) << result.Summary();
  EXPECT_EQ(result.explorations, 0);
  EXPECT_EQ(result.regret_spent, 0.0);
  // Every query is always served the same hint (no exploration, and the
  // matrix's verified best cannot change when only verified plans run —
  // up to re-observation noise, which baseline has none of).
  std::vector<int> first_hint(spec.num_queries, -1);
  for (const ServingRecord& rec : result.serving_trace) {
    if (first_hint[rec.query] < 0) first_hint[rec.query] = rec.hint;
    EXPECT_EQ(rec.hint, first_hint[rec.query]) << "query " << rec.query;
  }
}

}  // namespace
}  // namespace limeqo::scenarios
