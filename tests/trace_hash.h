#ifndef LIMEQO_TESTS_TRACE_HASH_H_
#define LIMEQO_TESTS_TRACE_HASH_H_

/// The serving-trace fingerprint the pinned-trace tests compare against
/// captured constants (tests/decision_kernel_test.cc,
/// tests/shard_router_test.cc).

#include <cstddef>
#include <cstdint>

#include "scenarios/simulation.h"

namespace limeqo::tests {

/// FNV-1a over the serving trace: every (query, hint, latency-bits) triple
/// in sequence order. Latency goes in as its exact bit pattern, so the hash
/// pins the trace bitwise, not approximately.
inline uint64_t TraceHash(const scenarios::SimulationResult& r) {
  uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](const void* p, size_t len) {
    const unsigned char* bytes = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < len; ++i) {
      h ^= bytes[i];
      h *= 0x100000001B3ULL;
    }
  };
  for (const scenarios::ServingRecord& rec : r.serving_trace) {
    mix(&rec.query, sizeof(rec.query));
    mix(&rec.hint, sizeof(rec.hint));
    mix(&rec.latency, sizeof(rec.latency));
  }
  return h;
}

}  // namespace limeqo::tests

#endif  // LIMEQO_TESTS_TRACE_HASH_H_
