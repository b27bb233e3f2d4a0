#include "trace.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <utility>

namespace limeqo::e2e {

int Histogram::BucketOf(uint64_t v) {
  if (v < static_cast<uint64_t>(kSub)) return static_cast<int>(v);
  const int e = 63 - std::countl_zero(v);  // floor(log2(v)) >= kSubBits
  const int sub = static_cast<int>((v >> (e - kSubBits)) & (kSub - 1));
  return ((e - kSubBits + 1) << kSubBits) + sub;
}

double Histogram::BucketLow(int bucket) {
  if (bucket < kSub) return bucket;
  const int e = (bucket >> kSubBits) + kSubBits - 1;
  const int sub = bucket & (kSub - 1);
  return static_cast<double>(static_cast<uint64_t>(kSub + sub)
                             << (e - kSubBits));
}

double Histogram::BucketWidth(int bucket) {
  if (bucket < kSub) return 1.0;
  const int e = (bucket >> kSubBits) + kSubBits - 1;
  return static_cast<double>(uint64_t{1} << (e - kSubBits));
}

void Histogram::Merge(const Histogram& other) {
  for (int b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Histogram::Percentile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(count_ - 1);
  double before = 0.0;
  for (int b = 0; b < kBuckets; ++b) {
    const double c = static_cast<double>(counts_[b]);
    if (c == 0.0) continue;
    if (before + c > rank) {
      // Spread the bucket's samples evenly over its width.
      const double value =
          BucketLow(b) + BucketWidth(b) * (rank - before + 0.5) / c;
      return std::clamp(value, static_cast<double>(min_),
                        static_cast<double>(max_));
    }
    before += c;
  }
  return static_cast<double>(max_);
}

const char* StageName(Stage s) {
  switch (s) {
    case Stage::kExploreStep: return "explorer.step";
    case Stage::kPolicySelect: return "policy.select";
    case Stage::kAlsComplete: return "als.complete";
    case Stage::kBackendExecute: return "backend.execute";
    case Stage::kServeThread: return "serve.thread";
    case Stage::kServeBatch: return "serve.batch";
    case Stage::kClaim: return "serve.claim";
    case Stage::kRoute: return "serve.route";
    case Stage::kProbe: return "serve.probe";
    case Stage::kDecide: return "serve.decide";
    case Stage::kExecute: return "serve.execute";
    case Stage::kObserve: return "serve.observe";
    case Stage::kReport: return "serve.report";
    case Stage::kTrainThread: return "train.thread";
    case Stage::kTrainIter: return "train.iter";
    case Stage::kTrainStep: return "train.step";
    case Stage::kTrainSleep: return "train.sleep";
    case Stage::kCount: break;
  }
  return "?";
}

void Coverage::Add(uint64_t parent, uint64_t children) {
  ++parents;
  parent_ns += static_cast<double>(parent);
  child_ns += static_cast<double>(children);
  // A parent shorter than the clock can resolve is fully covered by
  // definition; its children read zero too.
  const double frac = parent == 0 ? 1.0
                                  : static_cast<double>(children) /
                                        static_cast<double>(parent);
  min = std::min(min, frac);
  if (frac < kMinCoverage || children > parent) ++violations;
}

void Coverage::Merge(const Coverage& other) {
  parents += other.parents;
  violations += other.violations;
  min = std::min(min, other.min);
  parent_ns += other.parent_ns;
  child_ns += other.child_ns;
}

SpanLog::SpanLog(uint32_t track, std::string track_name)
    : track_(track), track_name_(std::move(track_name)) {}

bool SpanLog::Record(Stage stage, uint64_t start, uint64_t end, uint64_t id,
                     uint64_t parent, uint64_t request, bool keep) {
  if (start < window_begin_ || start >= window_end_) return false;
  hists_[static_cast<int>(stage)].Add(end - start);
  if (keep && spans_.size() < kSampleCap) {
    spans_.push_back(Span{start, end, id, parent, request, stage});
  }
  return true;
}

void SpanLog::Reconcile(Stage parent_stage, uint64_t parent_ns,
                        uint64_t children_ns) {
  coverage_[static_cast<int>(parent_stage)].Add(parent_ns, children_ns);
}

void StageTotals::Merge(const SpanLog& log) {
  for (int s = 0; s < kNumStages; ++s) {
    hists[s].Merge(log.hist(static_cast<Stage>(s)));
    coverage[s].Merge(log.coverage(static_cast<Stage>(s)));
  }
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs,
                      uint64_t origin_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  const auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  for (const SpanLog* log : logs) {
    sep();
    std::fprintf(f,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                 log->track(), log->track_name().c_str());
    for (const Span& s : log->spans()) {
      sep();
      const double ts_us =
          static_cast<double>(s.start_ns - std::min(s.start_ns, origin_ns)) /
          1e3;
      const double dur_us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"e2e\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                   "\"id\":%llu,\"parent\":%llu,\"request\":%llu}}",
                   StageName(s.stage), log->track(), ts_us, dur_us,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace limeqo::e2e
