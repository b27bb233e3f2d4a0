#ifndef LIMEQO_E2EBENCH_DECORATORS_H_
#define LIMEQO_E2EBENCH_DECORATORS_H_

// Tracing decorators for the traced bench_e2e run. Each wraps the real
// object behind its public interface, forwards every virtual unchanged, and
// records one span per call into a SpanLog, so the traced run computes
// exactly what the untraced run computes (bench_e2e checks this bitwise on
// the offline workload).

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/als.h"
#include "core/backend.h"
#include "core/completer.h"
#include "core/policy.h"
#include "core/workload_matrix.h"
#include "trace.h"

namespace limeqo::e2e {

/// Explore-step boundaries on the offline path. OfflineExplorer::Explore
/// has no per-step hook, so a step is the interval from one SelectBatch
/// call to the next (or to the end of Explore). Its children are the
/// select and the executions inside it; the rest is explorer self time.
class StepTracker {
 public:
  explicit StepTracker(SpanLog* log) : log_(log) {}

  /// Closes the open step, if any, and opens the next one.
  void BeginStep() {
    const uint64_t now = NowNs();
    Close(now);
    open_ = true;
    start_ = now;
    children_ = 0;
    id_ = log_->NextId();
    log_->current_parent = id_;
    log_->current_request = ++steps_;
  }
  /// Closes the open step (call when Explore returns).
  void EndStep() { Close(NowNs()); }
  void AddChild(uint64_t ns) {
    if (open_) children_ += ns;
  }
  bool open() const { return open_; }
  SpanLog* log() const { return log_; }

 private:
  void Close(uint64_t now) {
    if (!open_) return;
    open_ = false;
    if (log_->Record(Stage::kExploreStep, start_, now, id_, 0, steps_,
                     /*keep=*/true)) {
      log_->Reconcile(Stage::kExploreStep, now - start_, children_);
    }
    log_->current_parent = 0;
  }

  SpanLog* log_;
  bool open_ = false;
  uint64_t start_ = 0;
  uint64_t children_ = 0;
  uint64_t id_ = 0;
  uint64_t steps_ = 0;
};

/// Completer decorator over the ALS completer: one als.complete span per
/// Complete / CompleteFrom, plus the sweeps each completion ran.
class TimedCompleter : public core::Completer {
 public:
  TimedCompleter(std::unique_ptr<core::AlsCompleter> inner, SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}

  StatusOr<linalg::Matrix> Complete(const core::WorkloadMatrix& w) override {
    return Timed([&] { return inner_->Complete(w); });
  }
  StatusOr<linalg::Matrix> CompleteFrom(
      const core::WorkloadMatrix& w,
      core::CompletionFactors* factors) override {
    return Timed([&] { return inner_->CompleteFrom(w, factors); });
  }
  void SetArena(core::CompletionArena* arena) override {
    inner_->SetArena(arena);
  }
  std::string name() const override { return inner_->name(); }

  /// ALS sweeps summed over the completions recorded inside the window.
  uint64_t sweeps() const { return sweeps_; }
  SpanLog* log() const { return log_; }

 private:
  template <typename F>
  StatusOr<linalg::Matrix> Timed(F&& complete) {
    const uint64_t id = log_->NextId();
    const uint64_t parent = log_->current_parent;
    log_->current_parent = id;
    const uint64_t start = NowNs();
    StatusOr<linalg::Matrix> result = complete();
    const uint64_t end = NowNs();
    log_->current_parent = parent;
    if (log_->Record(Stage::kAlsComplete, start, end, id, parent,
                     log_->current_request, /*keep=*/true)) {
      sweeps_ += static_cast<uint64_t>(inner_->last_iterations());
    }
    return result;
  }

  std::unique_ptr<core::AlsCompleter> inner_;
  SpanLog* log_;
  uint64_t sweeps_ = 0;
};

/// Policy decorator: one policy.select span per SelectBatch, which also
/// marks the explore-step boundary.
class TimedPolicy : public core::ExplorationPolicy {
 public:
  TimedPolicy(std::unique_ptr<core::ExplorationPolicy> inner,
              StepTracker* steps)
      : inner_(std::move(inner)), steps_(steps) {}

  StatusOr<std::vector<core::Candidate>> SelectBatch(
      const core::WorkloadMatrix& w, int batch_size, Rng* rng) override {
    steps_->BeginStep();
    SpanLog* log = steps_->log();
    const uint64_t id = log->NextId();
    const uint64_t parent = log->current_parent;
    log->current_parent = id;
    const uint64_t start = NowNs();
    StatusOr<std::vector<core::Candidate>> batch =
        inner_->SelectBatch(w, batch_size, rng);
    const uint64_t end = NowNs();
    log->current_parent = parent;
    if (log->Record(Stage::kPolicySelect, start, end, id, parent,
                    log->current_request, /*keep=*/true)) {
      steps_->AddChild(end - start);
      if (batch.ok()) candidates_ += batch->size();
    }
    return batch;
  }
  std::string name() const override { return inner_->name(); }

  /// Candidates returned by the selects recorded inside the window.
  uint64_t candidates() const { return candidates_; }

 private:
  std::unique_ptr<core::ExplorationPolicy> inner_;
  StepTracker* steps_;
  uint64_t candidates_ = 0;
};

/// Backend decorator: one backend.execute span per Execute, plus the
/// timeout and improvement tallies of executions inside an explore step.
/// An execution is *improving* when it completes below its row's best
/// complete observation at the time it ran.
class TimedBackend : public core::WorkloadBackend {
 public:
  TimedBackend(std::unique_ptr<core::WorkloadBackend> inner,
               StepTracker* steps)
      : inner_(std::move(inner)), steps_(steps) {}

  /// The matrix the explorer fills (read for the improvement tally).
  void set_matrix(const core::WorkloadMatrix* matrix) { matrix_ = matrix; }

  int num_queries() const override { return inner_->num_queries(); }
  int num_hints() const override { return inner_->num_hints(); }
  core::BackendResult Execute(int query, int hint,
                              double timeout_seconds) override {
    const double row_best = steps_->open() && matrix_ != nullptr
                                ? matrix_->RowMinObserved(query)
                                : 0.0;
    SpanLog* log = steps_->log();
    const uint64_t start = NowNs();
    const core::BackendResult r =
        inner_->Execute(query, hint, timeout_seconds);
    const uint64_t end = NowNs();
    if (steps_->open() &&
        log->Record(Stage::kBackendExecute, start, end, log->NextId(),
                    log->current_parent, log->current_request,
                    /*keep=*/true)) {
      steps_->AddChild(end - start);
      ++executions_;
      if (r.timed_out) ++timeouts_;
      if (!r.timed_out && !r.failed && r.observed_latency < row_best) {
        ++improving_;
      }
    }
    return r;
  }
  double OptimizerCost(int query, int hint) const override {
    return inner_->OptimizerCost(query, hint);
  }
  const plan::PlanNode* Plan(int query, int hint) const override {
    return inner_->Plan(query, hint);
  }
  std::vector<int> EquivalentHints(int query, int hint) const override {
    return inner_->EquivalentHints(query, hint);
  }

  uint64_t executions() const { return executions_; }
  uint64_t timeouts() const { return timeouts_; }
  uint64_t improving() const { return improving_; }

 private:
  std::unique_ptr<core::WorkloadBackend> inner_;
  StepTracker* steps_;
  const core::WorkloadMatrix* matrix_ = nullptr;
  uint64_t executions_ = 0;
  uint64_t timeouts_ = 0;
  uint64_t improving_ = 0;
};

}  // namespace limeqo::e2e

#endif  // LIMEQO_E2EBENCH_DECORATORS_H_
