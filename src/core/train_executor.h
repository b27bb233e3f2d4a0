#ifndef LIMEQO_CORE_TRAIN_EXECUTOR_H_
#define LIMEQO_CORE_TRAIN_EXECUTOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "core/completer.h"
#include "core/engine.h"

namespace limeqo::core {

/// Sizing knobs for a fleet's train plane.
struct TrainExecutorOptions {
  /// Train-plane worker threads shared by the whole fleet. One worker
  /// serializes all shards onto a single thread (the cheapest correct
  /// configuration); more workers let that many shards drain and refit
  /// concurrently. Clamped to the fleet size at Start.
  int workers = 1;
  /// Global linear-algebra fan-out budget for the fleet, divided evenly
  /// among the workers: each refit job runs under a
  /// ScopedParallelBudget(linalg_threads / workers) so N shards share one
  /// bounded pool instead of each fanning out to LIMEQO_THREADS. 0 means
  /// "use the global pool size" (limeqo::NumThreads()).
  int linalg_threads = 0;
};

/// One train plane for a whole fleet — the only one ShardedServingTier
/// uses: a fixed pool of workers drives every shard's drain / refit /
/// publish loop as prioritized jobs, so N shards on a small box never
/// oversubscribe the cores with N train threads when load concentrates on
/// few shards.
///
/// Scheduling: each worker repeatedly claims the hottest unclaimed shard —
/// score = queue_backlog() + unpublished_updates() + 1 (drain work plus
/// publication work, both atomic engine counters), lowest index on ties —
/// and runs exactly one ExplorationEngine::TrainStep on it. At most one job
/// per shard is ever in flight, so each shard's steps stay serialized (the engine's stepping contract); which worker
/// runs a given step is immaterial. A step that makes no progress parks the
/// shard at the serving sequence it had claimed *before* the step; the
/// shard is skipped until a new serving claim moves that sequence, so an
/// idle shard costs nothing (the pre-step read means traffic that arrives
/// during the step is never missed). The +1 base score gives a freshly
/// unparked shard exactly one probe step even when its counters read zero.
///
/// Refit scratch: every worker slot owns a CompletionArena, sized once at
/// construction and installed into the engine for the duration of each
/// job, so Gram / Cholesky / factor-update buffers are pooled per worker
/// slot (live refits and epoch barriers alike), not per shard and not per
/// call. Every job also runs under a ScopedParallelBudget so the fleet's
/// total linalg fan-out is bounded by TrainExecutorOptions::linalg_threads.
///
/// Determinism: a shard's refit remains a pure function of its own drained
/// prefix — the executor changes only *when* steps run and on which thread,
/// and both the arena and the budget are bitwise-neutral by contract
/// (Completer::SetArena, ScopedParallelBudget). On the epoch-synchronized
/// path, tests/train_executor_test.cc pins the tier bit for bit against a
/// golden table frozen from the thread-per-shard plane this executor
/// superseded, at 1, 2 and 4 serving threads.
///
/// Thread safety: Start / Stop / SyncEpochAll are serving-control-plane
/// calls and must come from one thread at a time, like the engine's
/// StartTraining / StopTraining.
class TrainExecutor {
 public:
  /// Builds a stopped executor; workers start at Start.
  explicit TrainExecutor(TrainExecutorOptions options = {});

  /// Stops the workers if still running (Stop's drain-and-finish included).
  ~TrainExecutor();

  TrainExecutor(const TrainExecutor&) = delete;
  TrainExecutor& operator=(const TrainExecutor&) = delete;

  /// Takes over the train plane of `engines`: initializes each engine's
  /// stepping state (BeginTrainSteps, serially) and spawns the workers.
  /// The engines must not have their own training threads running, must
  /// outlive the executor's run, and their train planes must not be
  /// touched by anyone else until Stop returns.
  void Start(std::vector<ExplorationEngine*> engines);

  /// Joins the workers, then runs each engine's FinishTrainSteps serially
  /// with the full linalg budget: drains the remainders, refreshes,
  /// publishes a final snapshot, and writes the shutdown checkpoint when
  /// the engine is configured for one.
  void Stop();

  /// Epoch barrier for a fleet that is *not* free-running: SyncEpoch on
  /// every engine, hottest first, spread over up to `workers` transient
  /// threads with the same per-slot arenas and budget as live jobs. Must be
  /// called on a stopped executor (the epoch-synchronized path never
  /// Starts one). Bitwise
  /// equal to a serial SyncEpoch loop: shards are disjoint, each shard's
  /// sync is a pure function of its own state, and the kernels are
  /// chunk-count invariant.
  void SyncEpochAll(const std::vector<ExplorationEngine*>& engines);

  /// True between Start and Stop.
  bool running() const { return running_; }

  /// Total TrainStep jobs executed by the workers since Start; parked
  /// shards contribute nothing, which is the "idle shard costs nothing"
  /// property the executor exists for.
  uint64_t steps_executed() const {
    return steps_executed_.load(std::memory_order_relaxed);
  }

 private:
  /// Sentinel for ShardSlot::parked_at: not parked, always runnable.
  static constexpr uint64_t kNotParked = ~uint64_t{0};

  /// Per-shard scheduling state, guarded by mu_.
  struct ShardSlot {
    ExplorationEngine* engine = nullptr;
    /// A worker is stepping this shard right now (at most one in flight).
    bool claimed = false;
    /// claimed_servings() observed before the step that made no progress;
    /// the shard is skipped while the live value still equals this.
    uint64_t parked_at = kNotParked;
  };

  /// Claims the hottest runnable shard (strict max score, lowest index on
  /// ties). Returns its engine — read under mu_, since slots_ must not be
  /// touched again without the lock — and writes the slot index into *idx
  /// and the pre-claim claimed_servings() into *pre_step_claimed. Returns
  /// nullptr when nothing is runnable.
  ExplorationEngine* ClaimHottest(int* idx, uint64_t* pre_step_claimed)
      EXCLUDES(mu_);

  /// Worker `worker`'s job loop; every job runs under `budget`.
  void WorkerLoop(int worker, int budget);

  /// Workers that serve a fleet of `fleet_size` shards: the configured
  /// count clamped to [1, fleet_size].
  int FleetWorkers(size_t fleet_size) const;

  /// Per-job ParallelFor budget when `workers` jobs may run concurrently.
  int PerJobBudget(int workers) const;

  TrainExecutorOptions options_;

  Mutex mu_;
  std::vector<ShardSlot> slots_ GUARDED_BY(mu_);

  /// One refit-scratch arena per configured worker, sized once at
  /// construction and pooled across every shard that worker slot steps:
  /// live jobs, the barrier's transient threads, and (arenas_[0]) Stop's
  /// serial finish all reuse them.
  std::vector<CompletionArena> arenas_;

  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};
  bool running_ = false;
  std::atomic<uint64_t> steps_executed_{0};
};

}  // namespace limeqo::core

#endif  // LIMEQO_CORE_TRAIN_EXECUTOR_H_
