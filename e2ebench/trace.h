#ifndef LIMEQO_E2EBENCH_TRACE_H_
#define LIMEQO_E2EBENCH_TRACE_H_

// Bench-side tracing for bench_e2e: a mergeable log-linear histogram, a
// single-writer span log with exact per-stage aggregates and a bounded
// deterministic span sample, the parent/child coverage check, and the
// Chrome trace-event writer. Nothing here is linked into the library; the
// spans are recorded around calls into each layer's public functions.

#include <array>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace limeqo::e2e {

/// Monotonic nanoseconds (steady_clock): every span boundary and every
/// end-to-end timing in the benchmark reads this one clock.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Log-linear histogram of non-negative integers (nanoseconds, servings):
/// 32 linear sub-buckets per power of two, so a bucket is at most 1/32 of
/// its value wide. Count, sum, min and max are exact; percentiles
/// interpolate by rank inside the bucket that holds them. Fixed memory,
/// mergeable, single writer.
class Histogram {
 public:
  Histogram() : counts_(kBuckets, 0) {}

  void Add(uint64_t v) {
    ++counts_[BucketOf(v)];
    ++count_;
    sum_ += static_cast<double>(v);
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  uint64_t max() const { return count_ > 0 ? max_ : 0; }
  /// Value at quantile q in [0, 1]; 0 when empty.
  double Percentile(double q) const;

 private:
  static constexpr int kSubBits = 5;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = (64 - kSubBits + 1) * kSub;
  static int BucketOf(uint64_t v);
  static double BucketLow(int bucket);
  static double BucketWidth(int bucket);

  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  uint64_t min_ = std::numeric_limits<uint64_t>::max();
  uint64_t max_ = 0;
};

/// Span names. One enum value per layer boundary the benchmark times; the
/// dotted names carry the module the span measures (see README.md).
enum class Stage : uint8_t {
  kExploreStep = 0,  // core.explorer: one SelectBatch + its executions
  kPolicySelect,     // core.policy: ExplorationPolicy::SelectBatch
  kAlsComplete,      // core.als: one Complete / CompleteFrom
  kBackendExecute,   // backend: WorkloadBackend::Execute
  kServeThread,      // one closed-loop serving thread's whole phase
  kServeBatch,       // one claimed batch of servings
  kClaim,            // AcquireServingIndices
  kRoute,            // ShardOfRow / LocalRowOf (fleet only)
  kProbe,            // snapshot_version probe + snapshot() handoff
  kDecide,           // ChooseHints / ChooseHint (core.decision_kernel)
  kExecute,          // ServeLatency (backend)
  kObserve,          // MakeObservation
  kReport,           // ExplorationEngine::Report (queue back-pressure)
  kTrainThread,      // the bench-driven train loop's whole phase
  kTrainIter,        // one TrainStep plus its idle sleep
  kTrainStep,        // ExplorationEngine::TrainStep
  kTrainSleep,       // the 50 us idle backoff after an idle step
  kCount,
};
constexpr int kNumStages = static_cast<int>(Stage::kCount);
const char* StageName(Stage s);

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // explore step, serving batch, or train step
  Stage stage = Stage::kCount;
};

/// How much of a parent span its child spans cover. Every parent span is
/// checked on its own: a coverage outside [kMinCoverage, 1] is a
/// violation (children missing from the accounting, or overlapping).
struct Coverage {
  static constexpr double kMinCoverage = 0.9;
  uint64_t parents = 0;
  uint64_t violations = 0;
  double min = std::numeric_limits<double>::infinity();
  double parent_ns = 0.0;
  double child_ns = 0.0;

  void Add(uint64_t parent, uint64_t children);
  void Merge(const Coverage& other);
};

/// One writer's spans: exact aggregates for every recorded span, plus a
/// capped sample kept for the trace file. A log belongs to one thread at a
/// time (a train plane, a serving thread, the explorer thread, or one
/// shard's completer, whose refits the executor serializes).
class SpanLog {
 public:
  /// Sampled spans kept per log (aggregates are never capped).
  static constexpr size_t kSampleCap = 250000;

  /// `track` labels the writer in the trace file.
  SpanLog(uint32_t track, std::string track_name);

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Bounds the span start times that count: spans starting outside
  /// [begin, end) are dropped, so set-up refits and shutdown drains stay
  /// out of the measured phase's numbers.
  void SetWindow(uint64_t begin_ns, uint64_t end_ns) {
    window_begin_ = begin_ns;
    window_end_ = end_ns;
  }
  /// A fresh span id, unique across logs (track in the high bits).
  uint64_t NextId() { return (static_cast<uint64_t>(track_) << 40) | ++ids_; }

  /// Records one span into the aggregates, and into the sample when
  /// `keep` is set. Returns false when the span started outside the window.
  bool Record(Stage stage, uint64_t start, uint64_t end, uint64_t id,
              uint64_t parent, uint64_t request, bool keep);
  /// Records `children` ns of child time against one parent span.
  void Reconcile(Stage parent_stage, uint64_t parent_ns, uint64_t children_ns);

  /// The innermost open span on this log (nested decorator calls), and the
  /// request it serves. Drivers set them around calls that may nest.
  uint64_t current_parent = 0;
  uint64_t current_request = 0;

  uint32_t track() const { return track_; }
  const std::string& track_name() const { return track_name_; }
  const Histogram& hist(Stage s) const {
    return hists_[static_cast<int>(s)];
  }
  const Coverage& coverage(Stage s) const {
    return coverage_[static_cast<int>(s)];
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t track_;
  std::string track_name_;
  uint64_t ids_ = 0;
  uint64_t window_begin_ = 0;
  uint64_t window_end_ = std::numeric_limits<uint64_t>::max();
  std::array<Histogram, kNumStages> hists_;
  std::array<Coverage, kNumStages> coverage_;
  std::vector<Span> spans_;
};

/// Per-stage aggregates merged across logs.
struct StageTotals {
  std::array<Histogram, kNumStages> hists;
  std::array<Coverage, kNumStages> coverage;

  void Merge(const SpanLog& log);
  const Histogram& hist(Stage s) const { return hists[static_cast<int>(s)]; }
  /// Sum of span durations in ns.
  double sum(Stage s) const { return hist(s).sum(); }
  uint64_t count(Stage s) const { return hist(s).count(); }
};

/// Writes the sampled spans of `logs` as Chrome trace-event JSON ("X"
/// complete events, one track per log, timestamps relative to `origin_ns`)
/// that chrome://tracing and ui.perfetto.dev open directly. Returns false
/// on I/O error.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs,
                      uint64_t origin_ns);

}  // namespace limeqo::e2e

#endif  // LIMEQO_E2EBENCH_TRACE_H_
