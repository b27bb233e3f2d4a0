// Online exploration (the paper's Sec. 6 future-work direction): instead of
// dedicating offline idle time, let a small, regret-bounded fraction of
// production servings try the model's predicted-best unverified plans. The
// workload matrix fills in from traffic the system was going to serve
// anyway; cumulative slowdown versus the verified plans is capped by an
// explicit regret budget.
//
//   build/online_exploration

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>

#include "core/als.h"
#include "core/shard_router.h"
#include "workloads/workloads.h"

int main() {
  using namespace limeqo;

  StatusOr<simdb::SimulatedDatabase> db =
      workloads::MakeWorkload(workloads::WorkloadId::kJob, 1.0, 11);
  if (!db.ok()) return 1;
  const int n = db->num_queries();

  // The serving-side state: a one-shard serving tier over the workload
  // matrix (defaults observed from normal operation) and a linear
  // completion model, warm-started across the periodic refreshes.
  core::WorkloadMatrix matrix(n, db->num_hints());
  for (int q = 0; q < n; ++q) matrix.Observe(q, 0, db->TrueLatency(q, 0));
  core::CompleterPredictor predictor(std::make_unique<core::AlsCompleter>());

  core::ShardedTierOptions options;
  options.online.epsilon = 0.10;  // at most 10% of servings explore
  options.online.min_predicted_ratio = 0.10;  // only clearly promising plans
  options.online.regret_budget_seconds = 30.0;  // cap on total extra time
  core::ShardedServingTier tier(matrix, {&predictor}, options);
  tier.RefreshAll(/*force=*/true);
  tier.PublishAll();

  std::printf("JOB: %d queries, default pass %.0f s, optimal %.0f s\n", n,
              db->DefaultTotal(), db->OptimalTotal());

  // The resolver runs the chosen plan; the recorder sums what was served.
  double served = 0.0;
  const auto run_plan = [&](int q, int hint, uint64_t) {
    return core::ServedOutcome{hint, db->TrueLatency(q, hint)};
  };
  const auto add_served = [&](const core::TierServing& s) {
    served += s.observation.latency;
  };

  // Serve twelve full round-robin passes over the workload (a "day" of
  // dashboard refreshes each) and watch served time fall as exploration
  // verifies faster plans. Each epoch of publish_every servings decides on
  // one snapshot, then drains, refits on cadence and republishes.
  const uint64_t epoch = static_cast<uint64_t>(options.online.publish_every);
  for (int pass = 1; pass <= 12; ++pass) {
    served = 0.0;
    const uint64_t end = static_cast<uint64_t>(pass) * n;
    for (uint64_t s = end - n; s < end; s += epoch) {
      tier.ServeSchedule(s, std::min(s + epoch, end), /*threads=*/1,
                         run_plan, add_served);
    }
    if (pass == 1 || pass % 3 == 0) {
      std::printf(
          "pass %2d: served %.0f s   (explorations so far: %d, regret "
          "spent: %.1f / %.0f s)\n",
          pass, served, tier.explorations(), tier.regret_spent(),
          options.online.regret_budget_seconds);
    }
  }
  return 0;
}
