#include "core/completer.h"

#include <utility>

namespace limeqo::core {
namespace {

// This thread's open ScopedRefitYield (null = none).
thread_local ScopedRefitYield* t_refit_yield = nullptr;

}  // namespace

ScopedRefitYield::ScopedRefitYield(std::function<void()> yield)
    : yield_(std::move(yield)) {
  LIMEQO_CHECK(t_refit_yield == nullptr);
  LIMEQO_CHECK(yield_ != nullptr);
  t_refit_yield = this;
}

ScopedRefitYield::~ScopedRefitYield() { t_refit_yield = nullptr; }

void RefitYieldPoint() {
  ScopedRefitYield* scope = t_refit_yield;
  if (scope == nullptr || scope->yielded()) return;
  // Emptied before it runs, so the callback fires once even when it
  // reaches a yield point itself.
  const std::function<void()> yield = std::move(scope->yield_);
  scope->yield_ = nullptr;
  yield();
}

}  // namespace limeqo::core
