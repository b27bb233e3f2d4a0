#ifndef LIMEQO_TESTS_TRACE_HASH_H_
#define LIMEQO_TESTS_TRACE_HASH_H_

/// The fingerprints the pinned-trace tests compare against captured
/// constants (tests/decision_kernel_test.cc, tests/shard_router_test.cc,
/// tests/train_executor_test.cc).

#include <cstddef>
#include <cstdint>

#include "scenarios/simulation.h"

namespace limeqo::tests {

/// FNV-1a accumulator over the raw bytes of trivially copyable values.
/// Doubles go in as their exact bit patterns, so a fingerprint pins its
/// inputs bitwise, not approximately.
class Fnv1a {
 public:
  template <typename T>
  void Mix(const T& value) {
    const unsigned char* bytes = reinterpret_cast<const unsigned char*>(&value);
    for (size_t i = 0; i < sizeof(T); ++i) {
      h_ ^= bytes[i];
      h_ *= 0x100000001B3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// FNV-1a over the serving trace: every (query, hint, latency-bits) triple
/// in sequence order.
inline uint64_t TraceHash(const scenarios::SimulationResult& r) {
  Fnv1a h;
  for (const scenarios::ServingRecord& rec : r.serving_trace) {
    h.Mix(rec.query);
    h.Mix(rec.hint);
    h.Mix(rec.latency);
  }
  return h.value();
}

}  // namespace limeqo::tests

#endif  // LIMEQO_TESTS_TRACE_HASH_H_
