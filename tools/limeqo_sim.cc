// limeqo_sim: command-line driver for offline exploration on the simulated
// workloads, with workload-matrix persistence so exploration can be run in
// increments across invocations (the deployment pattern of Fig. 2's offline
// path: explore during idle windows, keep the matrix on disk in between).
//
// Examples:
//   # Explore CEB at 20% scale with LimeQO for half the default time.
//   limeqo_sim --workload=ceb --scale=0.2 --policy=limeqo --budget=0.5 \
//              --save=ceb_matrix.txt
//   # Continue where the previous run left off.
//   limeqo_sim --workload=ceb --scale=0.2 --policy=limeqo --budget=0.5 \
//              --load=ceb_matrix.txt --save=ceb_matrix.txt
//   # Explore, then serve through the sharded tier with fleet checkpoints;
//   # a later run restores the fleet, explores on, and keeps serving.
//   limeqo_sim --workload=ceb --budget=0.5 --serve=50000 --checkpoint-dir=ck
//   limeqo_sim --workload=ceb --budget=0.2 --serve=50000 --restore=ck

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/als.h"
#include "core/engine.h"
#include "core/explorer.h"
#include "core/serialization.h"
#include "core/shard_router.h"
#include "core/simdb_backend.h"
#include "scenarios/faulty_backend.h"
#include "workloads/workloads.h"

namespace limeqo {
namespace {

struct Args {
  std::string workload = "job";
  double scale = 1.0;
  std::string policy = "limeqo";
  double budget = 1.0;  // multiples of the default workload time
  uint64_t seed = 42;
  std::string load;
  std::string save;
  bool list = false;
  /// Online servings pushed through the serving plane after exploration
  /// (0 skips the serving phase).
  int serve = 0;
  /// Serving threads for the serving phase (deterministic schedule: the
  /// merged trace is identical at any thread count).
  int serve_threads = 1;
  /// Shard the serving phase across N engines behind the deterministic
  /// router (>= 1). With --checkpoint-dir the tier writes per-shard
  /// checkpoints plus a tier manifest, and --restore=DIR reassembles the
  /// fleet from them.
  int shards = 1;
  /// Directory for crash-consistent tier checkpoints (`shard-<i>.ckpt`
  /// per shard plus `tier.manifest`): written once as soon as the serving
  /// tier is published and again after every serving epoch (atomic temp +
  /// fsync + rename, so a kill at any instant leaves a loadable set).
  /// Requires --serve > 0.
  std::string checkpoint_dir;
  /// Warm-restart the serving fleet from a --checkpoint-dir directory.
  /// The fleet is restored first and exploration continues from its
  /// merged matrix. An unusable directory (missing, truncated or
  /// corrupted files, wrong shape) is reported and the run falls back to
  /// a cold start. Requires --serve > 0; excludes --load.
  std::string restore;
  /// Fault world for the serving phase (see FaultWorlds(): none, flaky,
  /// spiky, storms, chaos). Failed servings retry up to --max-retries
  /// times, then degrade to the default hint (non-exploratory, zero
  /// regret).
  std::string faults;
  /// Retries before a faulted serving degrades to the default hint.
  int max_retries = 3;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: limeqo_sim [--workload=job|ceb|stack|dsb|stack2017]\n"
      "                  [--scale=F] [--seed=N]\n"
      "                  [--policy=limeqo|limeqo+|greedy|random|qo-advisor|"
      "bao-cache|tcnn]\n"
      "                  [--budget=F]   exploration budget, x default time\n"
      "                  [--load=PATH]  resume from a saved matrix\n"
      "                  [--save=PATH]  save the matrix afterwards\n"
      "                  [--serve=N]    online servings after exploring\n"
      "                  [--serve-threads=T]  serving threads (default 1)\n"
      "                  [--shards=N]   shard serving across N >= 1 engines\n"
      "                                 behind the deterministic router\n"
      "                                 (default 1)\n"
      "                  [--checkpoint-dir=DIR]  write crash-consistent\n"
      "                                 checkpoints: DIR/shard-<i>.ckpt per\n"
      "                                 shard plus DIR/tier.manifest\n"
      "                                 (requires --serve)\n"
      "                  [--restore=DIR]  warm-restart the fleet from a\n"
      "                                 checkpoint directory, then explore\n"
      "                                 from its matrix (requires --serve,\n"
      "                                 excludes --load; --shards must match\n"
      "                                 the run that wrote it; falls back to\n"
      "                                 a cold start if unusable)\n"
      "                  [--faults=W]   serving fault world: none|flaky|\n"
      "                                 spiky|storms|chaos\n"
      "                  [--max-retries=N]  serving retries before degrading\n"
      "                                 to the default hint (default 3)\n"
      "                  [--list]      list workloads and exit\n");
}

// Parses all of `text` as a T: false when it is empty, malformed, out of
// range or followed by anything else ("1e3" is not an int, "0.2x" is not a
// double).
template <typename T>
bool ParseNumber(const char* text, T* out) {
  const char* end = text + std::strlen(text);
  const auto [last, error] = std::from_chars(text, end, *out);
  return error == std::errc() && last == end;
}

bool Parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    bool parsed = true;
    if (const char* v = value("--workload=")) {
      args->workload = v;
    } else if (const char* v = value("--scale=")) {
      parsed = ParseNumber(v, &args->scale);
    } else if (const char* v = value("--policy=")) {
      args->policy = v;
    } else if (const char* v = value("--budget=")) {
      parsed = ParseNumber(v, &args->budget);
    } else if (const char* v = value("--seed=")) {
      parsed = ParseNumber(v, &args->seed);
    } else if (const char* v = value("--load=")) {
      args->load = v;
    } else if (const char* v = value("--save=")) {
      args->save = v;
    } else if (const char* v = value("--serve=")) {
      parsed = ParseNumber(v, &args->serve);
    } else if (const char* v = value("--serve-threads=")) {
      parsed = ParseNumber(v, &args->serve_threads);
    } else if (const char* v = value("--shards=")) {
      parsed = ParseNumber(v, &args->shards);
    } else if (const char* v = value("--checkpoint-dir=")) {
      args->checkpoint_dir = v;
    } else if (const char* v = value("--restore=")) {
      args->restore = v;
    } else if (const char* v = value("--faults=")) {
      args->faults = v;
    } else if (const char* v = value("--max-retries=")) {
      parsed = ParseNumber(v, &args->max_retries);
    } else if (arg == "--list") {
      args->list = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
    if (!parsed) {
      std::fprintf(stderr, "malformed number: %s\n", arg.c_str());
      return false;
    }
  }
  if (args->shards < 1) {
    std::fprintf(stderr, "--shards must be >= 1\n");
    return false;
  }
  if (args->serve_threads < 1) {
    std::fprintf(stderr, "--serve-threads must be >= 1\n");
    return false;
  }
  if (args->serve < 0 || args->max_retries < 0) {
    std::fprintf(stderr, "--serve and --max-retries must be >= 0\n");
    return false;
  }
  if ((!args->checkpoint_dir.empty() || !args->restore.empty()) &&
      args->serve <= 0) {
    std::fprintf(stderr, "--checkpoint-dir and --restore need --serve > 0\n");
    return false;
  }
  if (!args->load.empty() && !args->restore.empty()) {
    std::fprintf(stderr,
                 "--load and --restore both set the starting matrix; pick "
                 "one\n");
    return false;
  }
  return true;
}

// Replays every cell where `explored` differs from the fleet's merged
// matrix into the shard that holds its row, so a restored fleet serves
// from what this run's exploration observed. Clearing first makes the
// replay exact for any transition (Observe and ObserveCensored alone
// cannot lower a censoring bound).
void ReplayExploration(const core::WorkloadMatrix& explored,
                       core::ShardedServingTier* tier) {
  const core::WorkloadMatrix fleet = tier->MergedMatrix();
  for (int q = 0; q < explored.num_queries(); ++q) {
    core::ExplorationEngine& shard = tier->shard_engine(tier->ShardOfRow(q));
    const int local = tier->LocalRowOf(q);
    for (int j = 0; j < explored.num_hints(); ++j) {
      const core::CellState state = explored.state(q, j);
      if (state == fleet.state(q, j) &&
          explored.values()(q, j) == fleet.values()(q, j)) {
        continue;
      }
      shard.Clear(local, j);
      if (state == core::CellState::kComplete) {
        shard.Observe(local, j, explored.values()(q, j));
      } else if (state == core::CellState::kCensored) {
        shard.ObserveCensored(local, j, explored.timeout(q, j));
      }
    }
  }
}

StatusOr<workloads::WorkloadId> ParseWorkload(const std::string& name) {
  if (name == "job") return workloads::WorkloadId::kJob;
  if (name == "ceb") return workloads::WorkloadId::kCeb;
  if (name == "stack") return workloads::WorkloadId::kStack;
  if (name == "dsb") return workloads::WorkloadId::kDsb;
  if (name == "stack2017") return workloads::WorkloadId::kStack2017;
  return Status::InvalidArgument("unknown workload: " + name);
}

StatusOr<bench::Technique> ParseTechnique(const std::string& name) {
  if (name == "limeqo") return bench::Technique::kLimeQo;
  if (name == "limeqo+") return bench::Technique::kLimeQoPlus;
  if (name == "greedy") return bench::Technique::kGreedy;
  if (name == "random") return bench::Technique::kRandom;
  if (name == "qo-advisor") return bench::Technique::kQoAdvisor;
  if (name == "bao-cache") return bench::Technique::kBaoCache;
  if (name == "tcnn") return bench::Technique::kTcnn;
  return Status::InvalidArgument("unknown policy: " + name);
}

int Run(const Args& args) {
  if (args.list) {
    for (const workloads::WorkloadSpec& spec : workloads::AllWorkloadSpecs()) {
      std::printf("%-10s %5d queries  default %8.0f s  optimal %8.0f s\n",
                  spec.name.c_str(), spec.num_queries,
                  spec.default_total_seconds, spec.optimal_total_seconds);
    }
    return 0;
  }

  StatusOr<workloads::WorkloadId> id = ParseWorkload(args.workload);
  if (!id.ok()) {
    std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
    return 2;
  }
  StatusOr<bench::Technique> technique = ParseTechnique(args.policy);
  if (!technique.ok()) {
    std::fprintf(stderr, "%s\n", technique.status().ToString().c_str());
    return 2;
  }
  StatusOr<simdb::SimulatedDatabase> db =
      workloads::MakeWorkload(*id, args.scale, args.seed);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 2;
  }

  core::SimDbBackend backend(&*db);
  std::unique_ptr<core::ExplorationPolicy> policy =
      bench::MakePolicy(*technique, &backend);
  core::OfflineExplorer explorer(&backend, policy.get(),
                                 core::ExplorerOptions{});

  scenarios::FaultSpec fault_spec;
  if (!args.faults.empty()) {
    StatusOr<scenarios::FaultSpec> world =
        scenarios::FaultWorldByName(args.faults);
    if (!world.ok()) {
      std::fprintf(stderr, "%s\n", world.status().ToString().c_str());
      return 2;
    }
    fault_spec = *world;
  }
  if (!args.checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.checkpoint_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create checkpoint dir %s: %s\n",
                   args.checkpoint_dir.c_str(), ec.message().c_str());
      return 2;
    }
  }

  // The serving tier: N engines behind the deterministic router, built
  // once exploration is done (or restored before it, see --restore).
  const int threads = args.serve_threads;
  core::AlsOptions als;
  als.convergence_tol = 1e-3;  // warm-started refreshes stop early
  core::OnlineExplorationOptions online;
  online.epsilon = 0.1;
  online.min_predicted_ratio = 0.05;
  online.regret_budget_seconds = 0.02 * db->DefaultTotal();
  online.seed = args.seed;
  core::ShardedTierOptions tier_options;
  tier_options.num_shards = args.shards;
  tier_options.online = online;
  // The fleet's one train plane gets a worker per serving thread, so an
  // epoch barrier spreads over that many threads.
  tier_options.executor.workers = threads;
  std::vector<std::unique_ptr<core::Predictor>> predictors;
  std::vector<core::Predictor*> predictor_ptrs;
  for (int i = 0; i < args.shards; ++i) {
    predictors.push_back(std::make_unique<core::CompleterPredictor>(
        std::make_unique<core::AlsCompleter>(als)));
    predictor_ptrs.push_back(predictors.back().get());
  }

  // A restored fleet is reassembled before exploring: its merged matrix is
  // the starting matrix (as with --load), and the cells exploration then
  // changes are replayed into the shards below.
  std::unique_ptr<core::ShardedServingTier> tier;
  if (!args.restore.empty()) {
    StatusOr<std::unique_ptr<core::ShardedServingTier>> restored =
        core::ShardedServingTier::RestoreFromDirectory(
            args.restore, predictor_ptrs, tier_options);
    if (!restored.ok()) {
      // The documented recovery: any unusable checkpoint means cold start.
      std::fprintf(stderr, "tier checkpoints unusable (%s); starting cold\n",
                   restored.status().ToString().c_str());
    } else if ((*restored)->num_queries() != db->num_queries() ||
               (*restored)->num_hints() != db->num_hints()) {
      std::fprintf(stderr,
                   "checkpoint shape %dx%d does not match workload %dx%d "
                   "(same --workload/--scale/--seed?); starting cold\n",
                   (*restored)->num_queries(), (*restored)->num_hints(),
                   db->num_queries(), db->num_hints());
    } else {
      tier = std::move(*restored);
      explorer.LoadMatrix(tier->MergedMatrix());
      std::printf(
          "fleet restart from %s: %d shards, %d rows, serving seq %llu, "
          "regret spent %.2f s\n",
          args.restore.c_str(), tier->num_shards(), tier->num_queries(),
          static_cast<unsigned long long>(tier->scheduled_servings()),
          tier->regret_spent());
    }
  }

  if (!args.load.empty()) {
    StatusOr<core::WorkloadMatrix> loaded =
        core::LoadWorkloadMatrixFromFile(args.load);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 2;
    }
    if (loaded->num_queries() != db->num_queries() ||
        loaded->num_hints() != db->num_hints()) {
      std::fprintf(stderr,
                   "loaded matrix shape %dx%d does not match workload "
                   "%dx%d (same --workload/--scale/--seed?)\n",
                   loaded->num_queries(), loaded->num_hints(),
                   db->num_queries(), db->num_hints());
      return 2;
    }
    explorer.LoadMatrix(*loaded);
    std::printf("resumed: %d complete / %d censored cells\n",
                loaded->NumComplete(), loaded->NumCensored());
  }

  const double before = explorer.WorkloadLatency();
  explorer.Explore(args.budget * db->DefaultTotal());
  std::printf(
      "%s on %s (n=%d): %.0f s -> %.0f s of %.0f s default (optimal %.0f "
      "s)\n"
      "offline time spent: %.0f s, model overhead: %.2f s\n",
      policy->name().c_str(), args.workload.c_str(), db->num_queries(),
      before, explorer.WorkloadLatency(), db->DefaultTotal(),
      db->OptimalTotal(), explorer.offline_seconds(),
      explorer.overhead_seconds());

  // ---- Online serving phase (the tier's concurrent serving plane) ----
  if (args.serve > 0) {
    if (tier != nullptr) {
      ReplayExploration(explorer.matrix(), tier.get());
    } else {
      tier = std::make_unique<core::ShardedServingTier>(
          explorer.matrix(), predictor_ptrs, tier_options);
    }
    tier->RefreshAll(/*force=*/true);
    tier->PublishAll();
    // Every checkpoint is taken at a fleet-wide op boundary (here, and
    // after each epoch barrier): every shard's checkpoint and the tier
    // manifest agree, so RestoreFromDirectory reassembles a fleet that
    // continues bitwise (tests/shard_router_test.cc).
    const auto checkpoint = [&]() -> bool {
      if (args.checkpoint_dir.empty()) return true;
      const Status st = tier->SaveCheckpoints(args.checkpoint_dir);
      if (!st.ok()) {
        std::fprintf(stderr, "tier checkpoint failed: %s\n",
                     st.ToString().c_str());
      }
      return st.ok();
    };
    if (!checkpoint()) return 2;

    const double before_serving = explorer.WorkloadLatency();
    const auto t0 = std::chrono::steady_clock::now();
    const int epoch_len = online.refresh_every;
    // A warm restart resumes the serving sequence where the checkpoint
    // left off; a fresh tier starts at 0.
    const uint64_t base = tier->scheduled_servings();
    // Serving faults retry up to max_retries attempts, then degrade to the
    // default hint — reported non-exploratory with zero regret, so fault
    // cost never touches the exploration ledger. The counters are atomics
    // because the resolver runs on the serving threads.
    std::atomic<long> serve_failures{0};
    std::atomic<long> serve_fallbacks{0};
    const auto resolve = [&](int q, int chosen,
                             uint64_t seq) -> core::ServedOutcome {
      const scenarios::ResolvedServing r = scenarios::ResolveServingFaults(
          fault_spec, args.max_retries, /*backoff_base=*/0.0, q, chosen, seq);
      serve_failures.fetch_add(r.failures, std::memory_order_relaxed);
      if (r.degraded) serve_fallbacks.fetch_add(1, std::memory_order_relaxed);
      // The online path always runs to completion; the simulated latency
      // is the database's ground truth.
      return core::ServedOutcome{r.hint, db->TrueLatency(q, r.hint),
                                 r.degraded};
    };
    for (uint64_t epoch = base; epoch < base + args.serve;
         epoch += epoch_len) {
      const uint64_t end =
          std::min<uint64_t>(base + args.serve, epoch + epoch_len);
      tier->ServeSchedule(epoch, end, threads, resolve);
      if (!checkpoint()) return 2;
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    // Fold the merged reassembly back into the explorer so the final
    // latency report and --save reflect what the fleet observed.
    explorer.LoadMatrix(tier->MergedMatrix());
    std::printf(
        "served %d queries across %d shard(s) on %d thread(s) in %.3f s "
        "(%.0f servings/s)\n"
        "  workload latency %.0f s -> %.0f s, explorations: %d, regret "
        "spent: %.2f / %.2f s\n",
        args.serve, tier->num_shards(), threads, wall,
        args.serve / std::max(wall, 1e-9), before_serving,
        explorer.WorkloadLatency(), tier->explorations(),
        tier->regret_spent(), online.regret_budget_seconds);
    if (fault_spec.any()) {
      std::printf(
          "  fault world '%s': %ld failed serving attempts, %ld degraded "
          "to the default hint\n",
          fault_spec.name.c_str(), serve_failures.load(),
          serve_fallbacks.load());
    }
  }

  if (!args.save.empty()) {
    Status st = core::SaveWorkloadMatrixToFile(explorer.matrix(), args.save);
    if (!st.ok()) {
      std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
      return 2;
    }
    std::printf("matrix saved to %s\n", args.save.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace limeqo

int main(int argc, char** argv) {
  limeqo::Args args;
  if (!limeqo::Parse(argc, argv, &args)) {
    limeqo::Usage();
    return 2;
  }
  return limeqo::Run(args);
}
