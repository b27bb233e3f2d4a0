#ifndef LIMEQO_CORE_SHARD_ROUTER_H_
#define LIMEQO_CORE_SHARD_ROUTER_H_

/// \file
/// The sharded serving tier: N ExplorationEngine shards over a
/// deterministic partition of the query rows, behind a routing layer whose
/// merged serving trace stays a pure function of (seed, serving index).
///
/// Partition function: global row q lives on shard
/// MixSeed(partition_seed, q) % num_shards — stable (a row's shard never
/// depends on arrival order), seed-pure (two tiers with the same
/// partition_seed agree on every placement), and uniform in expectation.
/// Within a shard, rows are in ascending global order (construction and
/// AppendQueries both attach rows in that order), so at num_shards == 1 the
/// local order is the identity and the tier degenerates to a bare engine,
/// decision for decision (tests/shard_router_test.cc pins it against frozen
/// bare-engine trace hashes over the full scenario grid). It is the
/// driver's only concurrent serving path, at any shard count.
///
/// Trace-merge determinism: every serving decision is
/// shard_snapshot->ChooseHint(local_row, global_index) — the *global*
/// serving index drives the gate/pick streams (all shards share the fleet
/// seed, so the fleet consumes exactly one gate draw per global index,
/// like a single engine would), while the observation queue of each shard
/// uses *local* contiguous sequence numbers (the Vyukov queue requires a
/// contiguous prefix to drain). ServeSchedule assigns local sequence
/// numbers by walking the global schedule in order, so the assignment — and
/// with it the merged trace — is independent of serving thread count.
///
/// Aggregate invariants (derivations in docs/ARCHITECTURE.md):
///  * regret: the fleet budget B splits into slices B * m_i / n by row
///    count; Sum_i spent_i <= Sum_i (B_i + allowance_i) = B + Sum_i
///    allowance_i, so the fleet overshoot is slack-bounded by the sum of
///    the per-shard allowances.
///  * staleness: each shard obeys the single-engine local bound L =
///    2 * capacity + threads * batch + publish_every, which stays hard
///    because a ServeFreeRunning thread claims its shard-local index
///    *before* probing the shard snapshot (the drain cannot pass a claimed,
///    unreported index). Fleet-wide, the earlier global servings on a
///    serving's shard that its deciding snapshot had not drained number at
///    most L + (threads - 1) * batch: those ahead of it in local order
///    are within L, and those behind it were claimed globally earlier but
///    took their local index later — at most one claimed batch per other
///    serving thread.
///  * checkpoint/restore: each shard reuses the EngineCheckpoint path
///    verbatim; a tier manifest (same CRC'd header convention) records the
///    tier shape, the partition seed and the per-row serving counts.
///    Placement is a pure function of the seed, so RestoreFromDirectory
///    rebuilds the assignment and reassembles the fleet at an op boundary.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/engine.h"
#include "core/predictor.h"
#include "core/train_executor.h"
#include "core/workload_matrix.h"

namespace limeqo::core {

/// Construction options for ShardedServingTier.
struct ShardedTierOptions {
  /// Number of engine shards (>= 1).
  int num_shards = 1;
  /// Seed of the row->shard partition function. Independent of the serving
  /// seed: re-seeding serving randomness must not reshuffle data placement.
  uint64_t partition_seed = 0x53484152u;  // "SHAR"
  /// Fleet-wide serving options. The regret budget is the *fleet* budget;
  /// each shard is configured with its row-count-proportional slice (at
  /// one shard the slice is the whole budget, exactly). The seed is shared
  /// by every shard — decisions are keyed by global serving index, so
  /// shards can never consume each other's gate draws.
  OnlineExplorationOptions online;
  /// Per-shard engine template (queue capacity, checkpointing). The
  /// `online` member inside is ignored — the split fleet options above are
  /// installed instead.
  EngineOptions engine;
  /// Sizing of the fleet's train plane: one TrainExecutor drives every
  /// shard's drain / refit / publish (StartTraining spawns
  /// `executor.workers` threads for the whole fleet; SyncEpochAll is its
  /// prioritized barrier).
  TrainExecutorOptions executor;
  /// Ignored. Every tier trains through the executor above; the field
  /// remains only because the end-to-end benchmark harness still assigns
  /// it, and ROADMAP 6(a) deletes that assignment and this field together.
  bool shared_train_plane = false;
};

/// One tier serving as ServeSchedule and ServeFreeRunning report it to
/// their `record` callback, after the observation is built and before it is
/// queued on the shard.
struct TierServing {
  /// Global serving index.
  uint64_t seq = 0;
  /// Global query row served (seq % num_queries()).
  int query = 0;
  /// Shard the serving was routed to and reported on.
  int shard = 0;
  /// The observation reported to the shard: its `seq` is the shard-local
  /// index, `query` the shard-local row, `hint` the served hint.
  ServingObservation observation;
  /// published_seq() of the shard snapshot the decision was made on.
  uint64_t snapshot_seq = 0;
};

/// N ExplorationEngine shards behind a deterministic router. Train-plane
/// methods (ServeSchedule, AppendQueries, checkpoints) must be called from
/// one thread at a time with no background train threads running, except
/// where noted; ServeFreeRunning is their mirror and needs
/// the train plane running. Serving-plane reads (shard_engine(i)
/// snapshots, AcquireServingIndices, routing lookups) are safe from any
/// number of threads.
class ShardedServingTier {
 public:
  /// Resolves one serving: `resolve(query, chosen_hint, seq)` returns the
  /// hint actually served and its latency (see ServeSchedule).
  using Resolver =
      std::function<ServedOutcome(int query, int chosen_hint, uint64_t seq)>;
  /// Receives every reported serving (see TierServing).
  using Recorder = std::function<void(const TierServing& serving)>;

  /// Global indices a free-running serving thread claims per atomic RMW.
  static constexpr uint64_t kFreeRunningBatch = 16;

  /// Builds the tier over a copy of `matrix`: rows are partitioned by the
  /// seed-pure hash and replayed bitwise into per-shard matrices.
  /// `predictors[i]` (not owned, may be empty => no predictors) supplies
  /// shard i's completion model; pass per-shard instances of the same
  /// predictor configuration so refits stay independent.
  ShardedServingTier(const WorkloadMatrix& matrix,
                     std::vector<Predictor*> predictors,
                     const ShardedTierOptions& options);

  /// Not copyable: the tier owns engines with atomics and queues.
  ShardedServingTier(const ShardedServingTier&) = delete;
  /// Not assignable (see the copy constructor).
  ShardedServingTier& operator=(const ShardedServingTier&) = delete;

  /// Number of engine shards.
  int num_shards() const { return static_cast<int>(engines_.size()); }
  /// Global query rows across all shards.
  int num_queries() const { return static_cast<int>(shard_of_row_.size()); }
  /// Hint columns (shared by every shard).
  int num_hints() const { return num_hints_; }

  /// The partition function: the shard global row q lives on. Pure.
  static int PartitionShard(uint64_t partition_seed, int row, int num_shards);

  /// Shard holding global row `row`: PartitionShard of the tier's seed,
  /// cached.
  int ShardOfRow(int row) const { return shard_of_row_[row]; }
  /// Local row index of global row `row` within its shard's matrix.
  int LocalRowOf(int row) const { return local_of_row_[row]; }
  /// Global row index of shard `shard`'s local row `local`.
  int GlobalRowOf(int shard, int local) const {
    return shard_rows_[shard][local];
  }
  /// Rows currently on `shard`.
  int ShardRowCount(int shard) const {
    return static_cast<int>(shard_rows_[shard].size());
  }

  /// Shard i's engine. Serving threads use this for snapshots and
  /// Report; train-plane use follows the engine's own threading contract.
  ExplorationEngine& shard_engine(int shard) { return *engines_[shard]; }
  const ExplorationEngine& shard_engine(int shard) const {
    return *engines_[shard];
  }

  /// The regret-budget slice shard i is configured with.
  double shard_budget(int shard) const {
    return engines_[shard]->online_options().regret_budget_seconds;
  }
  /// Fleet-wide regret ledger: the sum of the shard ledgers.
  double regret_spent() const;
  /// Fleet-wide exploratory servings.
  int explorations() const;
  /// True when every shard's budget slice is exhausted (fleet freeze).
  bool budget_exhausted() const;

  // --- Train-plane lifecycle ---------------------------------------------
  /// RefreshPredictions on every shard.
  void RefreshAll(bool force = false);
  /// Publish on every shard.
  void PublishAll();
  /// Drain on every shard.
  void DrainAll();
  /// SyncEpoch (drain + refresh + publish) on every shard: the executor's
  /// prioritized parallel barrier (hottest shard first, bitwise equal to
  /// a serial per-shard loop).
  void SyncEpochAll();
  /// Starts the fleet's train plane (free-running mode): the executor's
  /// worker pool.
  void StartTraining() EXCLUDES(train_mu_);
  /// Stops the train plane, drains, publishes, and re-syncs the
  /// deterministic-schedule counters to the drained fronts (so
  /// ServeSchedule may continue after a free-running phase).
  void StopTraining() EXCLUDES(train_mu_);

  // --- Deterministic schedule serving (train plane) ------------------------
  /// Serves the global round-robin schedule [begin, end) — serving s maps
  /// to global query s % num_queries() — as one epoch across all shards,
  /// then runs the epoch barrier (SyncEpochAll) on every shard. Decisions
  /// are made on the per-shard snapshots current at entry; local sequence
  /// numbers are preassigned by walking the schedule in global order, so
  /// the merged trace is bitwise identical at every `threads` count. An
  /// empty range or a zero-row tier serves nothing and runs only the
  /// barrier. Ranges wider than a shard queue are served in chunks with a
  /// drain between them, still deciding on the entry snapshots.
  ///
  /// `resolve(query, chosen_hint, seq)` returns the hint actually served
  /// and its latency. It may substitute a different hint than the chosen
  /// one (graceful degradation: a faulted serving retries, then falls back
  /// to the default plan); the observation is built for the served hint,
  /// so the regret ledger charges what really ran, and a degraded serving
  /// is reported non-exploratory with zero regret. `resolve` must be
  /// thread-safe and a pure function of its arguments (fault schedules are
  /// seed-pure per serving index), which is what keeps the trace
  /// independent of `threads`. `record`, when set, is invoked once per
  /// serving from the serving threads (each global index exactly once, so
  /// writes to seq-indexed storage need no locking).
  void ServeSchedule(uint64_t begin, uint64_t end, int threads,
                     const Resolver& resolve,
                     const Recorder& record = nullptr) EXCLUDES(train_mu_);

  /// Global servings scheduled so far via ServeSchedule (the sum of the
  /// per-shard schedule counters; after StopTraining, the sum of the
  /// drained fronts).
  uint64_t scheduled_servings() const EXCLUDES(train_mu_);

  // --- Free-running serving (any thread) -----------------------------------
  /// Serves global indices [claimed_servings(), end) while the train plane
  /// runs (between StartTraining and StopTraining); serving s maps to
  /// global query s % num_queries(), as in ServeSchedule. Each of
  /// `threads` serving threads (the caller's own when threads == 1) claims
  /// kFreeRunningBatch global indices at a time with AcquireServingIndices
  /// and stops at the first claim at or past `end`; indices claimed there
  /// are never served or reported. It routes the claimed indices below
  /// `end`, claims their shard-local indices (one
  /// ExplorationEngine::AcquireServingIndices per shard the batch
  /// touches), and only then probes each serving's shard snapshot (cached
  /// per thread, re-read when the shard's version moves) — the
  /// claim-then-probe order the per-shard staleness bound rests on (see
  /// the file comment). Decide, `resolve`, observe, `record` and Report
  /// then run exactly as in ServeSchedule. Which snapshot a serving sees
  /// depends on timing, so the trace is not deterministic;
  /// TierServing::snapshot_seq records it. `resolve` and `record` must be
  /// thread-safe; each global index below `end` is recorded exactly once.
  /// An empty tier or `end == 0` serves nothing.
  void ServeFreeRunning(uint64_t end, int threads, const Resolver& resolve,
                        const Recorder& record = nullptr) EXCLUDES(train_mu_);

  /// Hands out `count` consecutive *global* serving indices (the tier-wide
  /// analogue of ExplorationEngine::AcquireServingIndices) — the claim step
  /// of ServeFreeRunning's protocol. Global indices never enter any shard's
  /// queue, so indices claimed past the end of traffic are simply never
  /// reported — no hole, no stall.
  uint64_t AcquireServingIndices(uint64_t count) {
    return next_global_seq_.fetch_add(count, std::memory_order_relaxed);
  }
  /// Global indices claimed so far (monotonic; includes overshoot claims).
  uint64_t claimed_servings() const {
    return next_global_seq_.load(std::memory_order_relaxed);
  }

  // --- Growth (train plane, op boundary) ----------------------------------
  /// Appends `count` new global query rows, each placed by the partition
  /// function, and re-splits the fleet regret budget over the new row
  /// counts. Returns the first new global row index. Op-boundary method:
  /// all train threads stopped, no in-flight servings.
  int AppendQueries(int count) EXCLUDES(train_mu_);

  // --- Views ---------------------------------------------------------------
  /// Reassembles the global workload matrix from the shard matrices
  /// (global row q read from its shard's local row). Train-plane view.
  WorkloadMatrix MergedMatrix() const;

  // --- Checkpoint / restore (train plane, op boundary) ---------------------
  /// Writes one EngineCheckpoint per shard (`shard-<i>.ckpt`, the
  /// crash-atomic path) plus a `tier.manifest` recording the tier shape,
  /// fleet budget, partition seed, and per-row serving counts into
  /// directory `dir` (which must exist). Every file is written
  /// crash-atomically; the manifest is written last, so a manifest that
  /// parses refers to shard files that were durable before it.
  Status SaveCheckpoints(const std::string& dir) const EXCLUDES(train_mu_);

  /// Reassembles a fleet from SaveCheckpoints output. The manifest is
  /// authoritative for tier state: `options.num_shards`, the fleet regret
  /// budget, and the partition seed are overridden by its values (the
  /// remaining options must match the saving tier's, the same contract as
  /// ExplorationEngine::RestoreFromCheckpoint); `predictors` must be empty
  /// or match the manifest's shard count. The row assignment is rebuilt
  /// from the partition seed, and each shard checkpoint's row count must
  /// match it. Each shard engine warm-restarts through
  /// ExplorationEngine::RestoreFromCheckpoint, then its per-row serving
  /// counts are restored from the manifest and the budget split is
  /// re-applied — so a tier restored at an op boundary replays the
  /// remaining schedule bitwise-identically to one that never stopped.
  static StatusOr<std::unique_ptr<ShardedServingTier>> RestoreFromDirectory(
      const std::string& dir, std::vector<Predictor*> predictors,
      const ShardedTierOptions& options);

 private:
  struct RestoreTag {};
  ShardedServingTier(RestoreTag, const ShardedTierOptions& options);

  /// Installs the row-count-proportional budget slice into every shard
  /// (ConfigureServing; takes effect at each shard's next Publish).
  void ApplyBudgetSplit();
  /// The shard engines in shard order, as the executor takes them.
  std::vector<ExplorationEngine*> Fleet();
  /// Registers global row `row` on `shard` (appending to the local order)
  /// and returns its local index.
  int AttachRow(int row, int shard);

  /// The per-serving body both serving loops share: decide global serving
  /// `seq` (query `query`, routed to `shard`'s local row `local_row` under
  /// local index `local_seq`) on `snap`, resolve it, build the observation
  /// for the served hint (a degraded serving is non-exploratory with zero
  /// regret), record it, and report it to the shard.
  void ServeOne(const ServingSnapshot& snap, uint64_t seq, int query,
                int shard, int local_row, uint64_t local_seq,
                const Resolver& resolve, const Recorder& record);

  ShardedTierOptions options_;
  int num_hints_ = 0;
  std::vector<Predictor*> predictors_;
  std::vector<std::unique_ptr<ExplorationEngine>> engines_;
  /// The routing tables below cache PartitionShard and the local row
  /// order. They are deliberately *not* guarded: serving threads read them
  /// lock-free, which is safe under the op-boundary contract (growth and
  /// restore run with all train threads stopped and no in-flight
  /// servings). The capability analysis checks the mutable train-plane
  /// bookkeeping that *does* have a lock; the op-boundary contract stays on
  /// the TSan jobs.
  std::vector<int> shard_of_row_;              // global row -> shard
  std::vector<int> local_of_row_;              // global row -> local row
  std::vector<std::vector<int>> shard_rows_;   // shard -> global rows
  /// Serializes the train-plane control state: the schedule counters and
  /// the training flag. `mutable` so const readers (scheduled_servings,
  /// SaveCheckpoints' state check) can lock it.
  mutable Mutex train_mu_;
  /// ServeSchedule counters.
  std::vector<uint64_t> next_local_seq_ GUARDED_BY(train_mu_);
  std::atomic<uint64_t> next_global_seq_{0};   // free-running claims
  bool training_ GUARDED_BY(train_mu_) = false;
  /// The fleet's train plane.
  TrainExecutor executor_;
};

}  // namespace limeqo::core

#endif  // LIMEQO_CORE_SHARD_ROUTER_H_
