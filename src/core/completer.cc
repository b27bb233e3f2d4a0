#include "core/completer.h"

#include <utility>

namespace limeqo::core {
namespace {

// Callback of this thread's innermost ScopedRefitYield (null = none open).
thread_local const std::function<void()>* t_refit_yield = nullptr;

}  // namespace

ScopedRefitYield::ScopedRefitYield(std::function<void()> yield)
    : yield_(std::move(yield)), previous_(t_refit_yield) {
  t_refit_yield = &yield_;
}

ScopedRefitYield::~ScopedRefitYield() { t_refit_yield = previous_; }

void RefitYieldPoint() {
  const std::function<void()>* yield = t_refit_yield;
  if (yield == nullptr) return;
  // Closed while the callback runs, so a callback that reaches a yield
  // point (directly or through a nested completion) cannot recurse.
  t_refit_yield = nullptr;
  (*yield)();
  t_refit_yield = yield;
}

}  // namespace limeqo::core
