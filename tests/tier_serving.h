#ifndef LIMEQO_TESTS_TIER_SERVING_H_
#define LIMEQO_TESTS_TIER_SERVING_H_

/// Serving loop over a ShardedServingTier against a known latency matrix,
/// shared by the online-exploration property tests
/// (tests/core_online_exploration_test.cc, tests/policy_invariants_test.cc).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/shard_router.h"
#include "linalg/matrix.h"

namespace limeqo::tests {

/// Serves the next `count` servings of the tier's round-robin schedule
/// (global indices from scheduled_servings() on), each answered with
/// truth(query, hint), in ServeSchedule epochs of `epoch` servings on
/// `threads` serving threads. At epoch == 1 every decision sees a snapshot
/// that has drained every earlier serving, so the gate reads the live
/// regret ledger. Returns the total latency served, summed in serving
/// order; appends the served hints to `hints` when it is non-null.
inline double ServeTruth(core::ShardedServingTier& tier,
                         const linalg::Matrix& truth, int count,
                         int epoch = 1, int threads = 1,
                         std::vector<int>* hints = nullptr) {
  const uint64_t begin = tier.scheduled_servings();
  const uint64_t end = begin + static_cast<uint64_t>(count);
  std::vector<int> served_hint(static_cast<size_t>(count));
  std::vector<double> served_latency(static_cast<size_t>(count));
  const auto resolve = [&truth](int q, int hint, uint64_t) {
    return core::ServedOutcome{hint, truth(static_cast<size_t>(q),
                                           static_cast<size_t>(hint))};
  };
  const auto record = [&](const core::TierServing& s) {
    served_hint[s.seq - begin] = s.observation.hint;
    served_latency[s.seq - begin] = s.observation.latency;
  };
  for (uint64_t s = begin; s < end; s += static_cast<uint64_t>(epoch)) {
    tier.ServeSchedule(s, std::min(end, s + static_cast<uint64_t>(epoch)),
                       threads, resolve, record);
  }
  double total = 0.0;
  for (const double latency : served_latency) total += latency;
  if (hints != nullptr) {
    hints->insert(hints->end(), served_hint.begin(), served_hint.end());
  }
  return total;
}

}  // namespace limeqo::tests

#endif  // LIMEQO_TESTS_TIER_SERVING_H_
