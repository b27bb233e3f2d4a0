#ifndef LIMEQO_CORE_PREDICTOR_H_
#define LIMEQO_CORE_PREDICTOR_H_

#include <memory>
#include <string>

#include "core/completer.h"
#include "core/workload_matrix.h"

namespace limeqo::core {

/// The predictive model plugged into Algorithm 1 (the `pred` argument):
/// given the partially observed workload matrix, produce an estimate W-hat
/// of every entry. Implemented by CompleterPredictor (linear methods,
/// LimeQO) and by nn::TcnnPredictor (neural methods, LimeQO+ / Bao / TCNN).
class Predictor {
 public:
  virtual ~Predictor() = default;

  virtual StatusOr<linalg::Matrix> Predict(const WorkloadMatrix& w) = 0;

  /// Warm-started prediction for the train plane's refresh path
  /// (ExplorationEngine): may seed the model from `factors` and writes the
  /// refit state back, per the Completer::CompleteFrom contract. The base
  /// implementation delegates to Predict — correct for models that carry
  /// their warm state internally (the retained TCNN) or have none.
  virtual StatusOr<linalg::Matrix> PredictFrom(const WorkloadMatrix& w,
                                               CompletionFactors* factors) {
    (void)factors;
    return Predict(w);
  }

  /// Drops any training state the model carries across Predict calls, so
  /// nothing fitted on old data leaks into later predictions: a policy
  /// calls it on a data shift, an engine on a checkpoint restore. The base
  /// implementation is a no-op (stateless models).
  virtual void Reset() {}

  /// Borrows a scratch arena for subsequent fits (nullptr removes it), per
  /// the Completer::SetArena contract: the caller owns the arena, keeps it
  /// alive and unshared while a fit runs, and results are bitwise identical
  /// with or without it. The shared train executor installs its per-worker
  /// arena through this before driving a shard's refit. The base
  /// implementation ignores it (models with no poolable scratch).
  virtual void SetCompletionArena(CompletionArena* arena) { (void)arena; }

  virtual std::string name() const = 0;
};

/// Adapts a matrix-completion algorithm into a Predictor.
class CompleterPredictor : public Predictor {
 public:
  explicit CompleterPredictor(std::unique_ptr<Completer> completer)
      : completer_(std::move(completer)) {
    LIMEQO_CHECK(completer_ != nullptr);
  }

  StatusOr<linalg::Matrix> Predict(const WorkloadMatrix& w) override {
    return completer_->Complete(w);
  }

  StatusOr<linalg::Matrix> PredictFrom(const WorkloadMatrix& w,
                                       CompletionFactors* factors) override {
    return completer_->CompleteFrom(w, factors);
  }

  std::string name() const override { return completer_->name(); }

  void SetCompletionArena(CompletionArena* arena) override {
    completer_->SetArena(arena);
  }

 private:
  std::unique_ptr<Completer> completer_;
};

}  // namespace limeqo::core

#endif  // LIMEQO_CORE_PREDICTOR_H_
