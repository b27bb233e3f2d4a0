// Sharded serving tier: N ExplorationEngine shards behind the deterministic
// router of src/core/shard_router.h. The pinning contract is differential:
// a 1-shard tier must reproduce the frozen bare-engine traces (hashes
// captured before that path was deleted) over the full scenario grid and
// every policy, K-shard tiers must satisfy every SimulationDriver invariant
// at 2 and 4 shards under 1/2/4 serving threads with a
// thread-count-independent merged trace, and per-shard
// checkpoints must reassemble into a fleet whose remaining trace equals the
// fleet that never died. Part of the CI ThreadSanitizer target
// (`ctest -R "...|shard_router_test"`).

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/als.h"
#include "core/engine.h"
#include "core/predictor.h"
#include "core/shard_router.h"
#include "core/workload_matrix.h"
#include "scenarios/scenario.h"
#include "scenarios/simulation.h"
#include "scenarios/synthetic_backend.h"
#include "trace_hash.h"

namespace limeqo::scenarios {
namespace {

ScenarioSpec GridWorld(const std::string& name) {
  for (const ScenarioSpec& s : ScenarioGrid()) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "no grid world named " << name;
  return ScenarioSpec{};
}

SimulationResult RunSharded(const ScenarioSpec& spec, int shards, int threads,
                            PolicyKind policy = PolicyKind::kModelGuided,
                            bool free_running = false) {
  RunConfig config;
  config.policy = policy;
  config.serve_threads = threads;
  config.shards = shards;
  config.free_running = free_running;
  return SimulationDriver(spec).Run(config);
}

::testing::AssertionResult TracesIdentical(const SimulationResult& a,
                                           const SimulationResult& b) {
  if (a.serving_trace.size() != b.serving_trace.size()) {
    return ::testing::AssertionFailure()
           << "trace lengths " << a.serving_trace.size() << " vs "
           << b.serving_trace.size();
  }
  for (size_t s = 0; s < a.serving_trace.size(); ++s) {
    if (!(a.serving_trace[s] == b.serving_trace[s])) {
      return ::testing::AssertionFailure()
             << "serving " << s << " diverges: (" << a.serving_trace[s].query
             << "," << a.serving_trace[s].hint << ","
             << a.serving_trace[s].latency << ") vs ("
             << b.serving_trace[s].query << "," << b.serving_trace[s].hint
             << "," << b.serving_trace[s].latency << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// The headline differential: a 1-shard tier is the bare engine, bitwise —
// full grid, all three policies. The bare-engine epoch path itself is gone
// from the driver, so its evidence is frozen here.
// ---------------------------------------------------------------------------

struct BareEngineGolden {
  const char* world;
  PolicyKind policy;
  uint64_t trace_hash;  // tests::TraceHash of the serving trace
  double final_latency;
  double regret_spent;
  int explorations;
};

// Captured from the last build whose driver served epoch-synchronized runs
// (serve_threads = 1, ALS, synthetic world) from the bare offline engine
// instead of a tier. Never regenerate these from the tier: they are the
// reference the tier is checked against.
constexpr BareEngineGolden kBareEngineGoldens[] = {
    {"baseline", PolicyKind::kRandom, 0xD973852D95D01FC7ULL,
     0x1.d88a7960a8d2fp+5, 0x1.705dc0abea71ap-1, 6},
    {"baseline", PolicyKind::kGreedy, 0x389E4E155479637CULL,
     0x1.d56b29dac3ac1p+5, 0x0p+0, 5},
    {"baseline", PolicyKind::kModelGuided, 0xD1C5B3DF04A4BE3FULL,
     0x1.9e89b68993d36p+5, 0x1.23e5c32f785b1p+0, 7},
    {"large-sparse", PolicyKind::kRandom, 0x9DEF19B0035A6680ULL,
     0x1.c392ee40ff637p+7, 0x1.ae8d10ed1350cp+1, 4},
    {"large-sparse", PolicyKind::kGreedy, 0x648DFFD25499CC8DULL,
     0x1.cb10c6dc89254p+7, 0x1.4f43579a9f03ep+0, 3},
    {"large-sparse", PolicyKind::kModelGuided, 0xFCF7A71877560CFFULL,
     0x1.ac18183fbad29p+7, 0x1.8191877df011fp+0, 4},
    {"skinny", PolicyKind::kRandom, 0xC468C951E25BAB6AULL,
     0x1.c3f210c5ee01bp+7, 0x1.5079078be92b2p+1, 7},
    {"skinny", PolicyKind::kGreedy, 0xC68111719D4E8343ULL,
     0x1.c4d1077d40762p+7, 0x0p+0, 10},
    {"skinny", PolicyKind::kModelGuided, 0xC879B506FFD7AEF6ULL,
     0x1.900513ed30e53p+7, 0x1.6a6829209efd5p+1, 6},
    {"rank1-strong-structure", PolicyKind::kRandom, 0x588678B265F0A89EULL,
     0x1.a644e17d5741fp+5, 0x1.0ccabd78ec5d1p+2, 18},
    {"rank1-strong-structure", PolicyKind::kGreedy, 0x3E7D3C7334D99BEEULL,
     0x1.a985fbfb2f037p+5, 0x1.7cd75bd3fc93dp+1, 20},
    {"rank1-strong-structure", PolicyKind::kModelGuided, 0xC1FC1D48F0CD212CULL,
     0x1.09539342ffc3ap+5, 0x1.3536b7717c9d3p+2, 5},
    {"weak-structure", PolicyKind::kRandom, 0xA863F273740E71EBULL,
     0x1.c32dd6e452aa6p+6, 0x1.a14fd094db862p+0, 4},
    {"weak-structure", PolicyKind::kGreedy, 0xB5646D29BA28310BULL,
     0x1.bebddb29f82eep+6, 0x0p+0, 5},
    {"weak-structure", PolicyKind::kModelGuided, 0x6E8FCCE9B2AFB149ULL,
     0x1.8678647c96942p+6, 0x1.504d6280699bbp+1, 5},
    {"heavy-tail-mild", PolicyKind::kRandom, 0xDDEA5A1E9D5ED1B2ULL,
     0x1.ce89dc0610da3p+5, 0x1.39a5ef757b928p+5, 5},
    {"heavy-tail-mild", PolicyKind::kGreedy, 0x07EFB3AD809AB659ULL,
     0x1.d732fae4d778cp+5, 0x1.547f36c66502p+1, 12},
    {"heavy-tail-mild", PolicyKind::kModelGuided, 0x4E1490E898AF2198ULL,
     0x1.21c44095c47d1p+5, 0x1.45260416c3536p+5, 6},
    {"heavy-tail-extreme", PolicyKind::kRandom, 0x1133770121C4D986ULL,
     0x1.5cdb927bd8e5fp+5, 0x1.4029289467b0dp+4, 2},
    {"heavy-tail-extreme", PolicyKind::kGreedy, 0x9CECFFF4504AF318ULL,
     0x1.4c56880c795b1p+5, 0x1.2a8d2a967c878p+3, 4},
    {"heavy-tail-extreme", PolicyKind::kModelGuided, 0x2D305B1534FAA7B5ULL,
     0x1.a96d6da93fc3bp+4, 0x1.59e18954d1328p+4, 4},
    {"no-timeouts", PolicyKind::kRandom, 0x3F72F02578C0F121ULL,
     0x1.2df81cc7cb8e1p+6, 0x1.3cfaa44a9ed6ap+1, 14},
    {"no-timeouts", PolicyKind::kGreedy, 0x76647E40D93D3929ULL,
     0x1.21adcaf8ac811p+6, 0x1.34a6be561220ap+1, 15},
    {"no-timeouts", PolicyKind::kModelGuided, 0x59FBE1CA3BE9C7FDULL,
     0x1.2ce23696d35cep+6, 0x1.890186efe4a8ap+1, 14},
    {"tight-timeouts", PolicyKind::kRandom, 0xC81F5A3A22D88AAEULL,
     0x1.7cf912a1b124cp+6, 0x1.6a09f5e420735p-1, 7},
    {"tight-timeouts", PolicyKind::kGreedy, 0xE6485A1508D3E8F6ULL,
     0x1.51ea6b8fe81cp+6, 0x1.bfb19c60f510cp-1, 7},
    {"tight-timeouts", PolicyKind::kModelGuided, 0xE204F43921C1D24FULL,
     0x1.7acfa96f8da2bp+6, 0x1.440d465b0bf41p-2, 7},
    {"noisy-observations", PolicyKind::kRandom, 0x75C641B6BE67B0A7ULL,
     0x1.4191f8e274afbp+6, 0x1.f3da6c7328a64p-2, 12},
    {"noisy-observations", PolicyKind::kGreedy, 0x46B44EB382757B8BULL,
     0x1.215f276fa61bbp+6, 0x1.4e6a03c8e26a9p+0, 12},
    {"noisy-observations", PolicyKind::kModelGuided, 0xB0AF2FCDE130E774ULL,
     0x1.40a8ad1fd7594p+6, 0x1.1768c2ce0dbf6p+1, 11},
    {"plan-equivalence", PolicyKind::kRandom, 0x075064514C96AAABULL,
     0x1.3614e7d961c37p+7, 0x1.a537ac3c27ff3p-2, 8},
    {"plan-equivalence", PolicyKind::kGreedy, 0x0D6BC400D13A0425ULL,
     0x1.2cbe748a73bc8p+7, 0x1.6ab553a1d227cp-2, 9},
    {"plan-equivalence", PolicyKind::kModelGuided, 0x075064514C96AAABULL,
     0x1.3614e7d961c37p+7, 0x1.a537ac3c27ff3p-2, 8},
    {"drift-single", PolicyKind::kRandom, 0x36851515762428E2ULL,
     0x1.16edc92ca6ffbp+6, 0x1.10ead34bd0508p+2, 5},
    {"drift-single", PolicyKind::kGreedy, 0x71F36A9F6D4604C8ULL,
     0x1.2776325990e4ep+6, 0x1.8b401db69a0d4p+0, 5},
    {"drift-single", PolicyKind::kModelGuided, 0xFB2411B2DA8C811EULL,
     0x1.0125ec9882a5bp+6, 0x1.bd1d258d2ef2p+1, 8},
    {"drift-repeated", PolicyKind::kRandom, 0x3F8B42C8AA1030A7ULL,
     0x1.936147c3d628cp+5, 0x1.ffb007d8da392p+1, 10},
    {"drift-repeated", PolicyKind::kGreedy, 0xC8F62C2B0E55E3DFULL,
     0x1.b023bd1dea6aep+5, 0x1.d24b477ba23b5p+1, 7},
    {"drift-repeated", PolicyKind::kModelGuided, 0x242218E22BF7AA14ULL,
     0x1.6328ab2c6963ep+5, 0x1.d6ffade425511p+1, 10},
    {"drift-severe-heavy-tail", PolicyKind::kRandom, 0xC0A82F66C7E8119DULL,
     0x1.ed3f0b7a56e0dp+5, 0x1.15e728e72ec98p+2, 7},
    {"drift-severe-heavy-tail", PolicyKind::kGreedy, 0x3B0AFDF37A97DA74ULL,
     0x1.09723648c826ep+6, 0x1.2bff94747a9a5p+4, 1},
    {"drift-severe-heavy-tail", PolicyKind::kModelGuided, 0xB7AE0C5FD5175FBEULL,
     0x1.b6b4a5bc39fc8p+5, 0x1.fa954f401f171p+1, 9},
    {"online-tight-budget", PolicyKind::kRandom, 0xAB35183EE1242AAAULL,
     0x1.af24151d1efbfp+6, 0x0p+0, 0},
    {"online-tight-budget", PolicyKind::kGreedy, 0xAB35183EE1242AAAULL,
     0x1.af24151d1efbfp+6, 0x0p+0, 0},
    {"online-tight-budget", PolicyKind::kModelGuided, 0x8FC42901F2BF3462ULL,
     0x1.af2032bc387e1p+6, 0x0p+0, 0},
    {"arrival-midstream", PolicyKind::kRandom, 0x0C6E8B411E4EBD08ULL,
     0x1.c1c9d23c32daep+6, 0x0p+0, 2},
    {"arrival-midstream", PolicyKind::kGreedy, 0x714A96C7F99EE55EULL,
     0x1.c2e1a86d3bf5cp+6, 0x0p+0, 2},
    {"arrival-midstream", PolicyKind::kModelGuided, 0x49B9AA5698923DE9ULL,
     0x1.8d6f0e4374c73p+6, 0x1.171f72a7e9765p+0, 3},
    {"arrival-bursts", PolicyKind::kRandom, 0xD1309081B0777ACBULL,
     0x1.743bdb0dfad95p+6, 0x1.160df957fcdc8p+2, 18},
    {"arrival-bursts", PolicyKind::kGreedy, 0x2E55CF7F25298A82ULL,
     0x1.4c5d008cb018dp+6, 0x1.29d6fe06ae07ap+1, 20},
    {"arrival-bursts", PolicyKind::kModelGuided, 0x55D774B04CB13792ULL,
     0x1.d9e5a8a2c9ac5p+5, 0x1.0910adfbbcef2p+2, 6},
    {"arrival-under-drift", PolicyKind::kRandom, 0x68E0E15EC8864E2AULL,
     0x1.84e40bf674dbp+5, 0x1.1dc96aa0faa01p+2, 7},
    {"arrival-under-drift", PolicyKind::kGreedy, 0x5496162A3860D0EFULL,
     0x1.77e596e9b1ae4p+5, 0x1.030c121d09112p+0, 7},
    {"arrival-under-drift", PolicyKind::kModelGuided, 0x8E6886E43613B44EULL,
     0x1.59aae9044889dp+5, 0x1.5992d036995cp+1, 5},
    {"cold-start-fleet", PolicyKind::kRandom, 0x9819C56D6EB1D30FULL,
     0x1.656a45e1d618p+6, 0x1.7784c9abc73e9p+1, 10},
    {"cold-start-fleet", PolicyKind::kGreedy, 0x15632375A0E2B75EULL,
     0x1.6ab1229b63f86p+6, 0x1.c16c09eaad328p+1, 6},
    {"cold-start-fleet", PolicyKind::kModelGuided, 0x9A3E7220732AE7CBULL,
     0x1.2c93e17b83e1fp+6, 0x1.e831fda1d4ef5p+1, 9},
};

TEST(ShardEquivalenceTest, OneShardTierReproducesBareEngineGoldens) {
  const std::vector<ScenarioSpec> grid = ScenarioGrid();
  ASSERT_EQ(std::size(kBareEngineGoldens), 3 * grid.size());
  for (const BareEngineGolden& golden : kBareEngineGoldens) {
    const ScenarioSpec spec = GridWorld(golden.world);
    const SimulationResult tier = RunSharded(spec, /*shards=*/1,
                                             /*threads=*/1, golden.policy);
    ASSERT_TRUE(tier.ok()) << "spec {" << Describe(spec) << "} policy "
                           << PolicyKindName(golden.policy) << "\n"
                           << tier.Summary();
    EXPECT_EQ(tests::TraceHash(tier), golden.trace_hash)
        << golden.world << " " << PolicyKindName(golden.policy);
    EXPECT_EQ(tier.final_latency, golden.final_latency) << golden.world;
    EXPECT_EQ(tier.regret_spent, golden.regret_spent) << golden.world;
    EXPECT_EQ(tier.explorations, golden.explorations) << golden.world;
    EXPECT_EQ(tier.servings, spec.online_servings) << golden.world;
  }
}

// ---------------------------------------------------------------------------
// K-shard tiers: the merged trace is independent of serving thread count,
// and every driver invariant holds at K in {2, 4} x threads in {1, 2, 4}.
// ---------------------------------------------------------------------------

class ShardedTraceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardedTraceTest, MergedTraceIndependentOfThreadCount) {
  const ScenarioSpec spec = GridWorld(GetParam());
  for (int shards : {2, 4}) {
    const SimulationResult single = RunSharded(spec, shards, 1);
    ASSERT_TRUE(single.ok())
        << shards << " shards, 1 thread: " << single.Summary();
    ASSERT_EQ(static_cast<int>(single.serving_trace.size()),
              spec.online_servings);
    for (int threads : {2, 4}) {
      const SimulationResult multi = RunSharded(spec, shards, threads);
      ASSERT_TRUE(multi.ok())
          << shards << " shards, " << threads << " threads: "
          << multi.Summary();
      ASSERT_TRUE(TracesIdentical(single, multi))
          << shards << " shards, " << threads << " threads";
      EXPECT_EQ(single.final_latency, multi.final_latency);
      EXPECT_EQ(single.regret_spent, multi.regret_spent);
      EXPECT_EQ(single.explorations, multi.explorations);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, ShardedTraceTest,
    ::testing::Values("baseline", "noisy-observations", "heavy-tail-extreme",
                      "plan-equivalence", "online-tight-budget"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(ShardedServingTest, GridInvariantsHoldAtTwoShards) {
  for (const ScenarioSpec& spec : ScenarioGrid()) {
    for (PolicyKind policy :
         {PolicyKind::kRandom, PolicyKind::kGreedy, PolicyKind::kModelGuided}) {
      const SimulationResult result = RunSharded(spec, 2, 2, policy);
      EXPECT_TRUE(result.ok())
          << "spec {" << Describe(spec) << "} policy "
          << PolicyKindName(policy) << " 2 shards\n"
          << result.Summary();
    }
  }
}

// ---------------------------------------------------------------------------
// Free-running fleet: the train executor's workers against serving threads that
// claim global batches. Traces are timing-dependent; the driver checks the
// per-shard statistical invariants plus the fleet compositions (summed
// slack, composed staleness bound, fleet freeze). TSan coverage target.
// ---------------------------------------------------------------------------

TEST(ShardedFreeRunningTest, InvariantsHoldAcrossShardAndThreadCounts) {
  const ScenarioSpec spec = GridWorld("baseline");
  for (int shards : {2, 4}) {
    for (int threads : {1, 2, 4}) {
      const SimulationResult result = RunSharded(
          spec, shards, threads, PolicyKind::kModelGuided,
          /*free_running=*/true);
      ASSERT_TRUE(result.ok()) << shards << " shards, " << threads
                               << " threads: " << result.Summary();
      EXPECT_EQ(result.servings, spec.online_servings);
      EXPECT_LE(result.staleness_p50, result.staleness_p95);
      EXPECT_LE(result.staleness_p95, result.staleness_max);
    }
  }
}

TEST(ShardedFreeRunningTest, TightBudgetFreezesEveryShard) {
  const ScenarioSpec spec = GridWorld("online-tight-budget");
  const SimulationResult result = RunSharded(
      spec, 2, 4, PolicyKind::kModelGuided, /*free_running=*/true);
  EXPECT_TRUE(result.ok()) << result.Summary();
  EXPECT_GE(result.regret_slack, 0.0);
}

// ---------------------------------------------------------------------------
// Direct-tier tests: checkpoint reassembly, serving loops and growth,
// against a synthetic backend without the driver in between.
// ---------------------------------------------------------------------------

struct TierFixture {
  ScenarioSpec spec;
  std::unique_ptr<SyntheticBackend> backend;
  std::vector<std::unique_ptr<core::Predictor>> predictors;
  std::vector<core::Predictor*> predictor_ptrs;
  core::ShardedTierOptions options;
  std::unique_ptr<core::ShardedServingTier> tier;

  // `backend_rows` sizes the synthetic world (>= rows when the test will
  // append queries later); the tier starts from the first `rows` of it.
  // `queue_capacity` > 0 overrides the shard queues' default capacity.
  TierFixture(int rows, int hints, int shards, uint64_t seed,
              int backend_rows = -1, size_t queue_capacity = 0) {
    spec.name = "tier-fixture";
    spec.num_queries = backend_rows < 0 ? rows : backend_rows;
    spec.num_hints = hints;
    spec.latent_rank = 2;
    spec.noise_sigma = 0.1;
    spec.seed = seed;
    backend = std::make_unique<SyntheticBackend>(spec);
    core::WorkloadMatrix matrix(rows, hints);
    for (int q = 0; q < rows; ++q) {
      matrix.Observe(q, 0, backend->TrueLatency(q, 0));
    }
    MakePredictors(shards, seed);
    options.num_shards = shards;
    options.online.epsilon = 0.25;
    options.online.min_predicted_ratio = 0.05;
    options.online.regret_budget_seconds = 50.0;
    options.online.refresh_every = 8;
    options.online.publish_every = 4;
    options.online.seed = seed ^ 0x5EEDu;
    if (queue_capacity > 0) options.engine.queue_capacity = queue_capacity;
    tier = std::make_unique<core::ShardedServingTier>(matrix, predictor_ptrs,
                                                      options);
    tier->RefreshAll(/*force=*/true);
    tier->PublishAll();
  }

  // A fresh, independent predictor set with the same configuration (the
  // restore path must not share fitted state with the dead fleet).
  void MakePredictors(int shards, uint64_t seed) {
    predictors.clear();
    predictor_ptrs.clear();
    for (int i = 0; i < shards; ++i) {
      core::AlsOptions als;
      als.rank = 2;
      als.iterations = 10;
      als.seed = seed ^ 0xA15u;
      predictors.push_back(std::make_unique<core::CompleterPredictor>(
          std::make_unique<core::AlsCompleter>(als)));
      predictor_ptrs.push_back(predictors.back().get());
    }
  }

  // Serves [begin, end) of the global schedule and appends to `trace`
  // (indexed by global seq - base).
  void Serve(core::ShardedServingTier& t, uint64_t begin, uint64_t end,
             int threads, uint64_t base, std::vector<ServingRecord>* trace) {
    t.ServeSchedule(
        begin, end, threads,
        [this](int q, int chosen, uint64_t seq) {
          core::ServedOutcome out;
          out.hint = chosen;
          out.latency = backend->ServeLatency(q, chosen, seq);
          return out;
        },
        [base, trace](const core::TierServing& s) {
          (*trace)[s.seq - base] = ServingRecord{
              s.query, s.observation.hint, s.observation.latency};
        });
  }
};

::testing::AssertionResult MatricesIdentical(const core::WorkloadMatrix& a,
                                             const core::WorkloadMatrix& b) {
  if (a.num_queries() != b.num_queries() || a.num_hints() != b.num_hints()) {
    return ::testing::AssertionFailure()
           << "shape " << a.num_queries() << "x" << a.num_hints() << " vs "
           << b.num_queries() << "x" << b.num_hints();
  }
  for (int q = 0; q < a.num_queries(); ++q) {
    for (int j = 0; j < a.num_hints(); ++j) {
      if (a.values()(q, j) != b.values()(q, j) ||
          a.state(q, j) != b.state(q, j)) {
        return ::testing::AssertionFailure()
               << "cell (" << q << "," << j << ") differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

std::string UniqueTierDir(const char* tag) {
  static std::atomic<int> counter{0};
  std::string dir = ::testing::TempDir() + "limeqo_tier_" + tag + "_" +
                    std::to_string(counter.fetch_add(1));
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(TierCheckpointTest, RestoredFleetReplaysBitwiseAtEveryThreadCount) {
  TierFixture fx(/*rows=*/13, /*hints=*/5, /*shards=*/3, /*seed=*/77);
  const uint64_t kill = 64;
  const uint64_t total = 128;
  std::vector<ServingRecord> trace_a(total);
  fx.Serve(*fx.tier, 0, kill, /*threads=*/2, 0, &trace_a);

  const std::string dir = UniqueTierDir("kill_restore");
  const Status saved = fx.tier->SaveCheckpoints(dir);
  ASSERT_TRUE(saved.ok()) << saved.message();

  // The reference fleet lives on.
  fx.Serve(*fx.tier, kill, total, /*threads=*/2, 0, &trace_a);

  for (const int threads : {1, 2, 4}) {
    TierFixture twin(13, 5, 3, 77);  // fresh predictors, same configuration
    StatusOr<std::unique_ptr<core::ShardedServingTier>> restored =
        core::ShardedServingTier::RestoreFromDirectory(
            dir, twin.predictor_ptrs, twin.options);
    ASSERT_TRUE(restored.ok()) << restored.status().message();
    core::ShardedServingTier& b = **restored;
    ASSERT_EQ(b.scheduled_servings(), kill);
    ASSERT_EQ(b.num_shards(), 3);

    std::vector<ServingRecord> trace_b(total - kill);
    fx.Serve(b, kill, total, threads, kill, &trace_b);
    for (uint64_t s = kill; s < total; ++s) {
      ASSERT_TRUE(trace_a[s] == trace_b[s - kill])
          << "serving " << s << " diverges at " << threads << " threads";
    }
    EXPECT_TRUE(MatricesIdentical(fx.tier->MergedMatrix(), b.MergedMatrix()));
    EXPECT_EQ(fx.tier->regret_spent(), b.regret_spent());
    EXPECT_EQ(fx.tier->explorations(), b.explorations());
    // The per-row serving counts came back through the tier manifest.
    for (int g = 0; g < b.num_queries(); ++g) {
      const auto& ea = fx.tier->shard_engine(fx.tier->ShardOfRow(g));
      const auto& eb = b.shard_engine(b.ShardOfRow(g));
      EXPECT_EQ(ea.row_servings(fx.tier->LocalRowOf(g)),
                eb.row_servings(b.LocalRowOf(g)))
          << "row " << g;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(TierCheckpointTest, CorruptManifestIsRejected) {
  TierFixture fx(8, 4, 2, 5);
  std::vector<ServingRecord> trace(32);
  fx.Serve(*fx.tier, 0, 32, 1, 0, &trace);
  const std::string dir = UniqueTierDir("corrupt");
  ASSERT_TRUE(fx.tier->SaveCheckpoints(dir).ok());
  const std::string path = dir + "/tier.manifest";
  std::string manifest;
  {
    std::ifstream f(path, std::ios::binary);
    ASSERT_TRUE(f.good());
    manifest.assign(std::istreambuf_iterator<char>(f),
                    std::istreambuf_iterator<char>());
  }
  const size_t version_at = manifest.find(" v3 ");
  ASSERT_NE(version_at, std::string::npos);
  // One flipped body byte (the CRC must catch it), and an intact body under
  // a v2 header (the version check must reject the old layout).
  std::string flipped = manifest;
  flipped[flipped.size() - 2] = '#';
  std::string v2 = manifest;
  v2.replace(version_at, 4, " v2 ");
  for (const std::string& bad : {flipped, v2}) {
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f << bad;
    }
    TierFixture twin(8, 4, 2, 5);
    StatusOr<std::unique_ptr<core::ShardedServingTier>> restored =
        core::ShardedServingTier::RestoreFromDirectory(
            dir, twin.predictor_ptrs, twin.options);
    EXPECT_FALSE(restored.ok());
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// ServeSchedule edges: an empty tier, an empty range, and epochs wider than
// the shard queues.
// ---------------------------------------------------------------------------

TEST(ServeScheduleTest, EmptyTierIsANoOpBarrier) {
  // A zero-row fleet is legal (rows arrive via AppendQueries); the
  // round-robin map s % 0 must never run, but the epoch barrier still does.
  core::ShardedServingTier tier(core::WorkloadMatrix(0, 4), {},
                                core::ShardedTierOptions{});
  const uint64_t v0 = tier.shard_engine(0).snapshot_version();
  tier.ServeSchedule(0, 64, 2, [](int, int, uint64_t) -> core::ServedOutcome {
    ADD_FAILURE() << "no serving should execute on an empty tier";
    return {};
  });
  EXPECT_EQ(tier.scheduled_servings(), 0u);
  EXPECT_EQ(tier.shard_engine(0).drained_servings(), 0u);
  EXPECT_GT(tier.shard_engine(0).snapshot_version(), v0);  // barrier ran

  // Once rows exist the same tier serves normally.
  EXPECT_EQ(tier.AppendQueries(4), 0);
  for (int q = 0; q < 4; ++q) {
    tier.shard_engine(0).Observe(tier.LocalRowOf(q), 0, 1.0 + q);
  }
  tier.PublishAll();
  tier.ServeSchedule(0, 8, 2, [](int, int chosen, uint64_t) {
    return core::ServedOutcome{chosen, 1.0};
  });
  EXPECT_EQ(tier.scheduled_servings(), 8u);
  EXPECT_EQ(tier.shard_engine(0).drained_servings(), 8u);
}

TEST(ServeScheduleTest, EmptyRangeRunsOnlyTheBarrier) {
  TierFixture fx(/*rows=*/5, /*hints=*/3, /*shards=*/2, /*seed=*/21);
  std::vector<uint64_t> v0;
  for (int i = 0; i < 2; ++i) {
    v0.push_back(fx.tier->shard_engine(i).snapshot_version());
  }
  fx.tier->ServeSchedule(7, 7, 3,
                         [](int, int, uint64_t) -> core::ServedOutcome {
                           ADD_FAILURE() << "empty range must not serve";
                           return {};
                         });
  EXPECT_EQ(fx.tier->scheduled_servings(), 0u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(fx.tier->shard_engine(i).drained_servings(), 0u);
    EXPECT_GT(fx.tier->shard_engine(i).snapshot_version(), v0[i]);
  }
}

TEST(ServeScheduleTest, HandlesRangesWiderThanTheQueue) {
  // An epoch wider than a shard queue must not deadlock: ServeSchedule
  // chunks the range to the smallest queue and drains between chunks,
  // deciding everything on the entry snapshots.
  ScenarioSpec spec;
  spec.num_queries = 10;
  spec.num_hints = 4;
  spec.noise_sigma = 0.0;
  spec.seed = 13;
  const SyntheticBackend backend(spec);
  core::WorkloadMatrix w(spec.num_queries, spec.num_hints);
  for (int q = 0; q < spec.num_queries; ++q) {
    w.Observe(q, 0, backend.TrueLatency(q, 0));
  }
  core::ShardedTierOptions options;
  options.num_shards = 2;
  options.engine.queue_capacity = 64;  // rounded-up minimum
  options.online.epsilon = 0.5;
  options.online.min_predicted_ratio = 0.0;
  options.online.regret_budget_seconds = 1e9;
  core::ShardedServingTier tier(w, {}, options);
  constexpr uint64_t kServings = 1000;  // ~16 queue laps
  tier.ServeSchedule(0, kServings, 2, [&](int q, int hint, uint64_t seq) {
    return core::ServedOutcome{hint, backend.ServeLatency(q, hint, seq)};
  });
  EXPECT_EQ(tier.scheduled_servings(), kServings);
  EXPECT_EQ(tier.shard_engine(0).drained_servings() +
                tier.shard_engine(1).drained_servings(),
            kServings);
}

// ---------------------------------------------------------------------------
// ServeFreeRunning: the free-running loop against live train planes. The
// decisions depend on timing; the accounting does not.
// ---------------------------------------------------------------------------

// Serves [0, end) free-running on `fx`'s tier and returns the records,
// indexed by global seq. `resolve` defaults to serving the chosen hint.
// Every index below `end` must be recorded exactly once and none past it.
std::vector<core::TierServing> ServeFree(
    TierFixture& fx, uint64_t end, int threads,
    core::ShardedServingTier::Resolver resolve = nullptr) {
  if (!resolve) {
    resolve = [&fx](int q, int chosen, uint64_t seq) {
      return core::ServedOutcome{chosen,
                                 fx.backend->ServeLatency(q, chosen, seq)};
    };
  }
  std::vector<core::TierServing> records(end);
  std::vector<std::atomic<int>> hits(end);
  std::atomic<int> beyond{0};
  fx.tier->StartTraining();
  fx.tier->ServeFreeRunning(end, threads, resolve,
                            [&](const core::TierServing& served) {
                              if (served.seq >= end) {
                                beyond.fetch_add(1);
                                return;
                              }
                              hits[served.seq].fetch_add(1);
                              records[served.seq] = served;
                            });
  fx.tier->StopTraining();
  EXPECT_EQ(beyond.load(), 0) << "servings recorded at or past end";
  for (uint64_t seq = 0; seq < end; ++seq) {
    EXPECT_EQ(hits[seq].load(), 1) << "global index " << seq;
  }
  EXPECT_GE(fx.tier->claimed_servings(), end);
  return records;
}

TEST(ServeFreeRunningTest, ServesEachIndexOnceUnderContiguousLocalSeqs) {
  constexpr uint64_t kEnd = 701;  // a partial final batch
  for (int shards = 1; shards <= 4; ++shards) {
    for (int threads = 1; threads <= 4; ++threads) {
      SCOPED_TRACE(::testing::Message()
                   << shards << " shards, " << threads << " threads");
      // A 64-slot queue: producers lap the drain, so back-pressure and
      // combining producers are on the path.
      TierFixture fx(/*rows=*/13, /*hints=*/4, shards,
                     /*seed=*/static_cast<uint64_t>(40 + shards),
                     /*backend_rows=*/-1, /*queue_capacity=*/64);
      const core::ShardedServingTier& tier = *fx.tier;
      const std::vector<core::TierServing> records =
          ServeFree(fx, kEnd, threads);
      std::vector<std::vector<uint64_t>> local_seqs(shards);
      for (uint64_t seq = 0; seq < kEnd; ++seq) {
        const core::TierServing& r = records[seq];
        const int q = static_cast<int>(seq % 13);
        EXPECT_EQ(r.query, q);
        ASSERT_EQ(r.shard, tier.ShardOfRow(q));
        EXPECT_EQ(r.observation.query, tier.LocalRowOf(q));
        // Claim-then-probe: the deciding snapshot never drained past the
        // serving's own (claimed, unreported) local index.
        EXPECT_LE(r.snapshot_seq, r.observation.seq);
        local_seqs[r.shard].push_back(r.observation.seq);
      }
      for (int i = 0; i < shards; ++i) {
        std::sort(local_seqs[i].begin(), local_seqs[i].end());
        for (size_t l = 0; l < local_seqs[i].size(); ++l) {
          ASSERT_EQ(local_seqs[i][l], l) << "shard " << i;
        }
        const core::ExplorationEngine& engine = tier.shard_engine(i);
        EXPECT_EQ(engine.drained_servings(), local_seqs[i].size())
            << "shard " << i;
        // The per-row counts partition the shard's drained servings.
        uint64_t row_sum = 0;
        for (int l = 0; l < tier.ShardRowCount(i); ++l) {
          row_sum += engine.row_servings(l);
        }
        EXPECT_EQ(row_sum, engine.drained_servings()) << "shard " << i;
      }
    }
  }
}

TEST(ServeFreeRunningTest, DegradedServingsChargeNoRegretAndNoExploration) {
  constexpr uint64_t kEnd = 600;
  constexpr uint64_t kDegradeEvery = 3;
  // The fallback is a plan no row has verified yet, so the snapshot would
  // classify a degraded serving as exploratory: only the degraded flag
  // keeps it off the ledger and out of the exploration count.
  constexpr int kHints = 5;
  constexpr int kFallback = kHints - 1;
  TierFixture fx(/*rows=*/11, kHints, /*shards=*/3, /*seed=*/77);
  const std::vector<core::TierServing> records = ServeFree(
      fx, kEnd, /*threads=*/3, [&fx](int q, int chosen, uint64_t seq) {
        if (seq % kDegradeEvery == 0) {
          return core::ServedOutcome{
              kFallback, fx.backend->ServeLatency(q, kFallback, seq),
              /*degraded=*/true};
        }
        return core::ServedOutcome{chosen,
                                   fx.backend->ServeLatency(q, chosen, seq)};
      });
  int explorations = 0;
  double regret = 0.0;
  for (uint64_t seq = 0; seq < kEnd; ++seq) {
    const core::ServingObservation& obs = records[seq].observation;
    if (seq % kDegradeEvery == 0) {
      EXPECT_EQ(obs.hint, kFallback) << "serving " << seq;
      EXPECT_FALSE(obs.exploratory) << "serving " << seq;
      EXPECT_EQ(obs.regret_delta, 0.0) << "serving " << seq;
    }
    explorations += obs.exploratory ? 1 : 0;
    regret += obs.regret_delta;
  }
  // The other servings still explore, and the fleet ledgers are exactly
  // what was recorded.
  EXPECT_GT(explorations, 0);
  EXPECT_EQ(fx.tier->explorations(), explorations);
  EXPECT_NEAR(fx.tier->regret_spent(), regret, 1e-9);
}

TEST(ServeFreeRunningTest, EmptyRangeOrTierServesNothing) {
  const auto never = [](int, int, uint64_t) -> core::ServedOutcome {
    ADD_FAILURE() << "nothing should be served";
    return {};
  };
  TierFixture fx(/*rows=*/5, /*hints=*/3, /*shards=*/2, /*seed=*/21);
  fx.tier->StartTraining();
  fx.tier->ServeFreeRunning(0, 3, never);
  fx.tier->StopTraining();
  EXPECT_EQ(fx.tier->claimed_servings(), 0u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(fx.tier->shard_engine(i).drained_servings(), 0u);
  }

  core::ShardedServingTier empty(core::WorkloadMatrix(0, 4), {},
                                 core::ShardedTierOptions{});
  empty.StartTraining();
  empty.ServeFreeRunning(64, 2, never);
  empty.StopTraining();
  EXPECT_EQ(empty.claimed_servings(), 0u);
  EXPECT_EQ(empty.shard_engine(0).drained_servings(), 0u);
}

// ---------------------------------------------------------------------------
// Growth smoke: AppendQueries routes new rows by the same hash, serving
// continues, and the budget split still sums to the fleet budget.
// ---------------------------------------------------------------------------

TEST(TierGrowthTest, PartitionIsStableAndSeedPure) {
  for (int shards : {1, 2, 4, 7}) {
    for (int row = 0; row < 64; ++row) {
      const int a = core::ShardedServingTier::PartitionShard(0xABCu, row,
                                                             shards);
      const int b = core::ShardedServingTier::PartitionShard(0xABCu, row,
                                                             shards);
      ASSERT_EQ(a, b);
      ASSERT_GE(a, 0);
      ASSERT_LT(a, shards);
    }
  }
  // Different seeds really produce different partitions (not a constant).
  int diffs = 0;
  for (int row = 0; row < 64; ++row) {
    diffs += core::ShardedServingTier::PartitionShard(1, row, 4) !=
             core::ShardedServingTier::PartitionShard(2, row, 4);
  }
  EXPECT_GT(diffs, 0);
}

TEST(TierGrowthTest, AppendRoutesByHashAndServingContinues) {
  TierFixture fx(10, 4, 2, 11, /*backend_rows=*/14);
  std::vector<ServingRecord> trace(40);
  fx.Serve(*fx.tier, 0, 40, 2, 0, &trace);

  const int first = fx.tier->AppendQueries(4);
  EXPECT_EQ(first, 10);
  EXPECT_EQ(fx.tier->num_queries(), 14);
  int mapped = 0;
  for (int g = 10; g < 14; ++g) {
    const int shard = fx.tier->ShardOfRow(g);
    EXPECT_EQ(shard, core::ShardedServingTier::PartitionShard(
                         fx.options.partition_seed, g, 2));
    EXPECT_EQ(fx.tier->GlobalRowOf(shard, fx.tier->LocalRowOf(g)), g);
    ++mapped;
    // Bring the new row up the way the driver does: observe the default
    // hint so the serving plane has a verified cell.
    fx.tier->shard_engine(shard).Observe(fx.tier->LocalRowOf(g), 0,
                                         fx.backend->TrueLatency(g, 0));
  }
  EXPECT_EQ(mapped, 4);
  fx.tier->RefreshAll(true);
  fx.tier->PublishAll();

  std::vector<ServingRecord> more(42);
  fx.Serve(*fx.tier, 40, 82, 2, 40, &more);
  for (const ServingRecord& rec : more) {
    EXPECT_GE(rec.query, 0);
    EXPECT_LT(rec.query, 14);
  }
  // Budget slices re-split proportionally and still sum to the fleet
  // budget.
  double sum = 0.0;
  for (int i = 0; i < 2; ++i) sum += fx.tier->shard_budget(i);
  EXPECT_NEAR(sum, fx.options.online.regret_budget_seconds, 1e-9);
}

}  // namespace
}  // namespace limeqo::scenarios
