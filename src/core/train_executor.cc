#include "core/train_executor.h"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "common/status.h"
#include "common/thread_pool.h"

namespace limeqo::core {

TrainExecutor::TrainExecutor(TrainExecutorOptions options)
    : options_(options),
      arenas_(static_cast<size_t>(std::max(1, options.workers))) {}

TrainExecutor::~TrainExecutor() {
  if (running_) Stop();
}

int TrainExecutor::FleetWorkers(size_t fleet_size) const {
  return std::max(1, std::min(options_.workers, static_cast<int>(fleet_size)));
}

int TrainExecutor::PerJobBudget(int workers) const {
  const int linalg =
      options_.linalg_threads > 0 ? options_.linalg_threads : NumThreads();
  return std::max(1, linalg / std::max(1, workers));
}

void TrainExecutor::Start(std::vector<ExplorationEngine*> engines) {
  LIMEQO_CHECK(!running_);
  LIMEQO_CHECK(!engines.empty());
  std::vector<ShardSlot> slots;
  slots.reserve(engines.size());
  for (ExplorationEngine* engine : engines) {
    LIMEQO_CHECK(engine != nullptr);
    ShardSlot slot;
    slot.engine = engine;
    slots.push_back(slot);
    // Serially, before any worker exists: the stepping state is plain
    // train-plane state.
    engine->BeginTrainSteps();
  }
  {
    MutexLock lock(mu_);
    slots_ = std::move(slots);
  }
  const int workers = FleetWorkers(engines.size());
  const int budget = PerJobBudget(workers);
  stop_.store(false, std::memory_order_relaxed);
  running_ = true;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i, budget] { WorkerLoop(i, budget); });
  }
}

void TrainExecutor::Stop() {
  LIMEQO_CHECK(running_);
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  running_ = false;
  std::vector<ExplorationEngine*> engines;
  {
    MutexLock lock(mu_);
    engines.reserve(slots_.size());
    for (const ShardSlot& slot : slots_) engines.push_back(slot.engine);
    slots_.clear();
  }
  // Serial finish with the full budget: no concurrent jobs remain (the
  // workers are joined), so each shard's final drain / refresh / publish /
  // checkpoint may use the whole pool. arenas_[0] keeps the pooled buffers
  // warm across the fleet.
  for (ExplorationEngine* engine : engines) {
    engine->SetCompletionArena(&arenas_[0]);
    engine->FinishTrainSteps();
    engine->SetCompletionArena(nullptr);
  }
}

ExplorationEngine* TrainExecutor::ClaimHottest(int* idx,
                                               uint64_t* pre_step_claimed) {
  MutexLock lock(mu_);
  int best = -1;
  uint64_t best_score = 0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    ShardSlot& slot = slots_[i];
    if (slot.claimed) continue;
    // The pre-step read: any serving claim that lands after this read
    // changes claimed_servings() and therefore unparks the shard on a
    // later scan, even if it raced the step itself.
    const uint64_t claimed_now = slot.engine->claimed_servings();
    if (claimed_now == slot.parked_at) continue;
    const uint64_t score = slot.engine->queue_backlog() +
                           slot.engine->unpublished_updates() + 1;
    // Strict > keeps the lowest index on ties, so the scan order (and the
    // schedule) is deterministic given the counter values.
    if (score > best_score) {
      best = static_cast<int>(i);
      best_score = score;
      *pre_step_claimed = claimed_now;
    }
  }
  if (best < 0) return nullptr;
  slots_[static_cast<size_t>(best)].claimed = true;
  *idx = best;
  // The engine pointer leaves the critical section with the claim, so the
  // caller never re-reads slots_ without the lock.
  return slots_[static_cast<size_t>(best)].engine;
}

void TrainExecutor::WorkerLoop(int worker, int budget) {
  CompletionArena& arena = arenas_[static_cast<size_t>(worker)];
  while (!stop_.load(std::memory_order_relaxed)) {
    int idx = -1;
    uint64_t pre_step_claimed = 0;
    ExplorationEngine* engine = ClaimHottest(&idx, &pre_step_claimed);
    if (engine == nullptr) {
      // lint:allow(sleep): idle scheduler backoff on the train plane; the
      // serving path never blocks on it, and no serving decision depends
      // on when a worker rescans.
      std::this_thread::sleep_for(kTrainIdleSleep);
      continue;
    }
    engine->SetCompletionArena(&arena);
    bool progress;
    {
      ScopedParallelBudget parallel_budget(budget);
      progress = engine->TrainStep();
    }
    engine->SetCompletionArena(nullptr);
    steps_executed_.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(mu_);
    ShardSlot& slot = slots_[static_cast<size_t>(idx)];
    slot.claimed = false;
    slot.parked_at = progress ? kNotParked : pre_step_claimed;
  }
}

void TrainExecutor::SyncEpochAll(
    const std::vector<ExplorationEngine*>& engines) {
  LIMEQO_CHECK(!running_);
  if (engines.empty()) return;
  // Hottest shard first: with fewer workers than shards the longest drain
  // starts earliest, which minimizes the barrier's makespan.
  std::vector<size_t> order(engines.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<uint64_t> score(engines.size());
  for (size_t i = 0; i < engines.size(); ++i) {
    score[i] =
        engines[i]->queue_backlog() + engines[i]->unpublished_updates();
  }
  std::stable_sort(order.begin(), order.end(), [&score](size_t a, size_t b) {
    return score[a] > score[b];
  });
  const int workers = FleetWorkers(engines.size());
  std::atomic<size_t> cursor{0};
  // Transient threads rather than the live workers: the barrier runs on a
  // stopped executor (the epoch-synchronized path never Starts one). Each
  // thread borrows the arena of the worker slot it stands in for, so refit
  // scratch stays warm across barriers. Bitwise-neutral parallelism:
  // shards are disjoint, each sync is a pure function of its own shard's
  // state, and arena + budget are bitwise-neutral by contract.
  const auto run_shards = [this, &engines, &order, &cursor, workers](int i) {
    CompletionArena& arena = arenas_[static_cast<size_t>(i)];
    ScopedParallelBudget parallel_budget(PerJobBudget(workers));
    for (;;) {
      const size_t slot = cursor.fetch_add(1, std::memory_order_relaxed);
      if (slot >= order.size()) break;
      ExplorationEngine* engine = engines[order[slot]];
      engine->SetCompletionArena(&arena);
      engine->SyncEpoch();
      engine->SetCompletionArena(nullptr);
    }
  };
  std::vector<std::thread> helpers;
  helpers.reserve(static_cast<size_t>(workers - 1));
  for (int i = 1; i < workers; ++i) helpers.emplace_back(run_shards, i);
  run_shards(0);
  for (std::thread& t : helpers) t.join();
}

}  // namespace limeqo::core
