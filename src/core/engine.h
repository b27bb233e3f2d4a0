#ifndef LIMEQO_CORE_ENGINE_H_
#define LIMEQO_CORE_ENGINE_H_

/// \file
/// The two-plane exploration engine. The *train plane* owns the mutable
/// state — the WorkloadMatrix, the completion model and its warm-start
/// factors, and the regret ledger — and periodically condenses it into an
/// immutable ServingSnapshot published by one atomic shared_ptr swap. The
/// *serving plane* is any number of threads that read the latest snapshot
/// (lock-free) to decide hints and push their observations into a
/// sequence-numbered queue that the train plane drains in serving order.
/// Because every serving decision is a pure function of (snapshot, serving
/// index) and the queue is applied in index order, a serving trace over a
/// deterministic schedule is bitwise identical at every thread count.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/decision_kernel.h"
#include "core/predictor.h"
#include "core/serialization.h"
#include "core/workload_matrix.h"

namespace limeqo::core {

/// One serving's observation, produced on the serving plane and drained by
/// the train plane in `seq` order. `exploratory` and `regret_delta` are
/// classified against the snapshot the decision was made on (not against
/// live state), which keeps the record a pure function of
/// (snapshot, seq, latency) — the determinism contract.
struct ServingObservation {
  /// Global serving index (the queue position this record drains at).
  uint64_t seq = 0;
  /// Query served.
  int query = 0;
  /// Hint it was served with.
  int hint = 0;
  /// Observed latency of the serving, in seconds.
  double latency = 0.0;
  /// True when the serving probed an unverified plan.
  bool exploratory = false;
  /// Regret charged against the budget (>= 0, seconds).
  double regret_delta = 0.0;
};

/// What a serving resolver actually did for one serving (see
/// ShardedServingTier::ServeSchedule): the hint that was really served
/// — normally the chosen one, but a fault-degradation policy may
/// substitute the default plan after exhausting its retries — and the
/// latency that was observed for it.
struct ServedOutcome {
  /// Hint actually served (may differ from the chosen hint under graceful
  /// degradation).
  int hint = 0;
  /// Observed latency of the serving, in seconds.
  double latency = 0.0;
  /// True when the serving was *degraded*: the chosen hint failed and the
  /// resolver substituted a fallback. A degraded serving is recorded as
  /// non-exploratory with zero regret — its cost is an infrastructure
  /// fault, not an exploration decision, and is accounted separately
  /// (SimulationResult's fault block) so faults can never double-charge
  /// the regret ledger.
  bool degraded = false;
};

/// One fixed-size block of snapshot rows (kRows of them; the last chunk of
/// a matrix may be partly unused). Laid out as struct-of-arrays — one
/// contiguous array per field — so the serving hot path touches only the
/// cache lines of the fields it reads (the non-exploring fast path needs
/// just verified_best). The last three arrays are the model-scan
/// precompute (ScanHintRow per row): the predicted-best unobserved hint,
/// its prediction, and the row's unobserved count, making the serve-time
/// model and fallback steps O(1).
///
/// A chunk is immutable once a snapshot holds it. The engine keeps its own
/// chunks current at drain time (ExplorationEngine::ApplyObservation folds
/// each observation into its row) and copies a chunk on its first write
/// after a publication, so a publication only shares the current chunk
/// pointers. New predictions after a refit rescan only the model-scan
/// arrays of each row; the states and verified bests are already current.
/// Only a restore or a shape change rebuilds every chunk from the matrix.
/// Precompute invariant: every row of every chunk a snapshot carries was
/// scanned against exactly the predictions that snapshot serves (none when
/// has_predictions() is false).
struct SnapshotChunk {
  /// log2 of the rows per chunk.
  static constexpr int kRowsLog2 = 8;
  /// Rows per chunk.
  static constexpr int kRows = 1 << kRowsLog2;

  /// The verified-best hint per row (the OnlineOptimizer rule).
  int verified_best[kRows];
  /// Observed latency of verified_best; +infinity without a complete
  /// default observation.
  double verified_latency[kRows];
  /// Predicted-best unobserved hint per row; -1 when none.
  int best_unobserved[kRows];
  /// Prediction of best_unobserved (+infinity when none).
  double best_unobserved_pred[kRows];
  /// Unobserved cells per row.
  int unobserved_count[kRows];
  /// Cell states, row-major kRows * num_hints.
  std::vector<CellState> states;
};

/// An immutable, shareable picture of everything the serving plane needs:
/// the verified-best table, the cell states, the per-row model scans of
/// the latest predictions, and the frozen regret ledger. Built by
/// ExplorationEngine::Publish; read by any number of serving threads with
/// no synchronization beyond the shared_ptr that delivered it.
///
/// Representation: the rows live in fixed-size SnapshotChunk blocks shared
/// by shared_ptr with the engine and with every other snapshot that
/// published the same chunk. A row lookup is one chunk index and one
/// in-chunk offset — O(1), no search — and a publication copies only the
/// chunk-pointer vector.
class ServingSnapshot {
 public:
  /// Monotonic publication counter (compare with
  /// ExplorationEngine::snapshot_version for a cheap staleness probe).
  uint64_t version() const { return version_; }
  /// Highest serving sequence number drained into this snapshot; a serving
  /// with index s decided on this snapshot has staleness s - published_seq.
  uint64_t published_seq() const { return published_seq_; }

  /// Workload-matrix rows at publication time.
  int num_queries() const { return num_queries_; }
  /// Workload-matrix columns (hint 0 is the default plan).
  int num_hints() const { return num_hints_; }

  /// The verified-best hint for `query` (the OnlineOptimizer rule at
  /// publication time): the fastest complete observation, else 0.
  int VerifiedHint(int query) const {
    LIMEQO_CHECK(query >= 0 && query < num_queries_);
    return chunks_[static_cast<size_t>(query) >> SnapshotChunk::kRowsLog2]
        ->verified_best[query & (SnapshotChunk::kRows - 1)];
  }
  /// Observed latency of the verified-best hint; +infinity when the row
  /// has no complete default observation (serving falls back to hint 0).
  double VerifiedLatency(int query) const;
  /// The row's model-scan precompute: ScanHintRow over the row's states
  /// and this snapshot's predictions (have_predictions mirrors
  /// has_predictions()).
  HintScan RowScan(int query) const;

  /// Regret ledger as frozen at publication. Serving decisions in the
  /// epoch after this snapshot gate on this value; regret charged inside
  /// the epoch lands in the *next* snapshot, so the budget can be overshot
  /// by at most one epoch's exploratory regret (see docs/ARCHITECTURE.md,
  /// "Regret accounting under concurrency").
  double regret_spent() const { return frozen_regret_spent_; }
  /// True when the regret budget was exhausted at publication.
  bool budget_exhausted() const {
    return frozen_regret_spent_ >= options_.regret_budget_seconds;
  }
  /// True when the snapshot carries model predictions.
  bool has_predictions() const { return have_predictions_; }
  /// The serving options frozen into this snapshot.
  const OnlineExplorationOptions& options() const { return options_; }
  /// Observation state of (query, hint) at publication time.
  CellState state(int query, int hint) const;

  /// The serving decision: usually the verified best, sometimes (bounded
  /// by the options) the model's predicted-best unverified hint. A pure
  /// function of (this snapshot, query, serving_index) — the epsilon gate
  /// and the random-fallback pick for index s are drawn from streams
  /// seeded by MixSeed(seed, s), so the decision is independent of call
  /// order and thread placement. Lock-free and const. An adapter over
  /// DecideServingHint (decision_kernel.h): the model step reads the row
  /// precompute, so the decision is O(1) — no per-hint scan on the
  /// serving path.
  int ChooseHint(int query, uint64_t serving_index) const;

  /// Batched ChooseHint: decides queries[i] at serving index first_seq + i,
  /// writing the chosen hint to out[i]. Decision-for-decision identical to
  /// the scalar calls (each index keeps its own gate/pick stream), but
  /// skips the full kernel for every serving whose gate says "serve the
  /// verified best" — the free-running serving loops and the bench use it
  /// to shave per-serving overhead. Requires out.size() >= queries.size().
  /// Lock-free and const.
  void ChooseHints(std::span<const int> queries, uint64_t first_seq,
                   std::span<int> out) const;

  /// Builds the observation record for a served latency: classifies the
  /// serving as exploratory and computes its regret against this
  /// snapshot's verified baseline. Pure; pass the result to
  /// ExplorationEngine::Report.
  ServingObservation MakeObservation(uint64_t seq, int query, int hint,
                                     double latency) const;

 private:
  friend class ExplorationEngine;
  ServingSnapshot() = default;

  /// One resolved row, with the scan precompute alongside.
  struct RowView {
    int verified_best;
    double verified_latency;
    const CellState* states;  // num_hints_ entries
    int best_unobserved;
    double best_unobserved_pred;
    int unobserved_count;
  };
  RowView Row(int query) const;

  uint64_t version_ = 0;
  uint64_t published_seq_ = 0;
  int num_queries_ = 0;
  int num_hints_ = 0;
  /// ceil(num_queries_ / kRows) chunks, in row order.
  std::vector<std::shared_ptr<const SnapshotChunk>> chunks_;
  /// Whether the chunks' model scans ran against predictions. The
  /// predictions themselves stay with the engine: serving reads only the
  /// per-row scan results.
  bool have_predictions_ = false;
  double frozen_regret_spent_ = 0.0;
  OnlineExplorationOptions options_;
  uint64_t gate_seed_ = 0;
  uint64_t pick_seed_ = 0;
};

/// How long an idle train loop — an engine's own train thread, or a
/// TrainExecutor worker that found no runnable shard — sleeps before it
/// looks again, so an unloaded train plane costs no CPU.
inline constexpr std::chrono::microseconds kTrainIdleSleep{50};

/// Construction options for the engine.
struct EngineOptions {
  /// Serving-plane behaviour (epsilon gate, regret budget, refresh
  /// cadence). Can be replaced later with ConfigureServing.
  OnlineExplorationOptions online;
  /// Observation-queue capacity, rounded up to a power of two. Must cover
  /// the servings in flight between drains; producers spin when the queue
  /// is a full lap ahead of the train plane (back-pressure, not loss).
  size_t queue_capacity = 4096;
  /// When non-empty, the free-running train loop writes crash-consistent
  /// checkpoints (SaveEngineCheckpointToFile: temp file + fsync + rename)
  /// to this path on the checkpoint_every cadence, and StopTraining writes
  /// a final one. Checkpointing happens entirely on the train plane — the
  /// serving plane is never paused, and a reader (or a post-crash restart)
  /// always sees a complete previous or complete current checkpoint.
  std::string checkpoint_path;
  /// Checkpoint cadence in drained observations (0 disables). Like
  /// publish_every it is measured at the drain front, so every checkpoint
  /// captures a consistent prefix of the serving history.
  int checkpoint_every = 0;
};

/// The engine joining the two planes. The train-plane state (the matrix,
/// predictions, ledgers, snapshot chunks and stepping marks) is guarded by
/// one drain lock, so the train-plane methods (Drain, RefreshPredictions,
/// Publish, the Observe family, ...) are safe from any thread; callers
/// still sequence them as one logical train plane — either the owner's
/// thread or the background train thread started with StartTraining, not
/// both. Serving-plane methods (snapshot, AcquireServingIndex, Report) are
/// safe from any number of threads concurrently with the train plane.
///
/// Combining drain: between BeginTrainSteps and FinishTrainSteps, a
/// producer whose queue slot is still a lap behind does not just wait for
/// the train plane — it try-locks the drain lock and, when it gets it,
/// publishes if due, drains one queue lap and publishes if due again. The
/// fitter holds the lock while it copies the matrix into a train-owned
/// buffer, for the prediction swap and for the publication after it,
/// which rescans every row's model half; every predictor fits the copy
/// with the lock released, so serving never waits for the fit. (With the
/// combining drain off nothing else drains, and a refit fits the matrix
/// itself under the lock.) While the
/// train plane waits for the lock, producers stop trying it, so a steady
/// stream of combiners cannot starve the fitter.
class ExplorationEngine {
 public:
  /// Takes ownership of the matrix. `predictor` (not owned, may be null
  /// until SetPredictor) supplies the completion model for refits.
  explicit ExplorationEngine(WorkloadMatrix matrix,
                             Predictor* predictor = nullptr,
                             const EngineOptions& options = {});
  /// Stops the background train thread when one is still running.
  ~ExplorationEngine();

  /// Not copyable: the engine owns atomics, the queue, and possibly a
  /// running train thread.
  ExplorationEngine(const ExplorationEngine&) = delete;
  /// Not assignable (see the copy constructor).
  ExplorationEngine& operator=(const ExplorationEngine&) = delete;

  // --- Train-plane configuration -----------------------------------------
  /// Replaces the serving options (and the gate/pick seed derivation).
  /// Call before serving traffic starts; takes effect at the next Publish.
  void ConfigureServing(const OnlineExplorationOptions& online)
      EXCLUDES(drain_mu_);
  /// The serving options currently in force (frozen into snapshots at
  /// each Publish).
  const OnlineExplorationOptions& online_options() const {
    return options_.online;
  }
  /// Attaches / replaces the completion model (not owned). Replacing it
  /// drops the previous model's predictions and warm-start factors — they
  /// describe a different model and must neither be served nor seed the
  /// new one.
  void SetPredictor(Predictor* predictor) EXCLUDES(drain_mu_);

  // --- Serving plane (any thread) ----------------------------------------
  /// Publication counter; a relaxed atomic load. Serving threads cache the
  /// snapshot and re-acquire only when this changes, so the steady-state
  /// per-serving read path — this probe, then ChooseHint/MakeObservation
  /// on the cached snapshot, then Report — takes no locks at all.
  uint64_t snapshot_version() const {
    return snapshot_version_.load(std::memory_order_relaxed);
  }
  /// The latest published snapshot (never null after construction). The
  /// pointer handoff is a micro critical section (one shared_ptr copy
  /// under a mutex) entered only when the version probe said a new
  /// snapshot exists — once per publication, not per serving. (A
  /// std::atomic<std::shared_ptr> swap would make even this wait-free,
  /// but libstdc++'s implementation is not ThreadSanitizer-instrumented,
  /// and a race-checkable serving plane is worth more than a lock-free
  /// once-per-epoch pointer copy.)
  std::shared_ptr<const ServingSnapshot> snapshot() const EXCLUDES(snapshot_mu_) {
    MutexLock lock(snapshot_mu_);
    return snapshot_;
  }
  /// Hands out the next global serving index (free-running mode). Every
  /// acquired index must be Report()ed exactly once or the drain stalls at
  /// the hole. Schedule-driven callers (the deterministic simulation mode)
  /// assign indices themselves instead and must not mix with this.
  uint64_t AcquireServingIndex() {
    return next_seq_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Hands out `count` consecutive serving indices in one fetch_add
  /// (returns the first; the caller owns [first, first + count)). The
  /// batched serving loops pair this with ServingSnapshot::ChooseHints so
  /// a batch pays one atomic RMW instead of one per serving. The same
  /// report-exactly-once contract applies to every index in the range.
  uint64_t AcquireServingIndices(uint64_t count) {
    return next_seq_.fetch_add(count, std::memory_order_relaxed);
  }
  /// Queues one observation. Wait-free unless the queue is a full lap
  /// ahead of the drain; then the producer combines (drains a lap itself,
  /// see the class comment) when train stepping is on and the drain lock
  /// is free, and otherwise spins for back-pressure. Thread-safe.
  void Report(const ServingObservation& obs) EXCLUDES(drain_mu_);
  /// Observation-queue capacity actually in force (the rounded-up power of
  /// two). A producer of serving s blocks in Report until the drain has
  /// passed s - queue_capacity(), which is what bounds snapshot staleness
  /// in free-running operation.
  size_t queue_capacity() const { return slots_.size(); }

  // --- Train plane -------------------------------------------------------
  /// No cap for Drain: consume the whole contiguous published prefix.
  static constexpr size_t kDrainAll = ~size_t{0};
  /// Applies contiguously published observations, in sequence order:
  /// matrix updates, snapshot-row folds, regret ledger, exploration
  /// counters. Stops after `max_observations`. Returns how many
  /// observations were applied.
  size_t Drain(size_t max_observations = kDrainAll) EXCLUDES(drain_mu_);
  /// Re-runs the completion model when predictions are stale (never ran,
  /// refresh_every matrix updates ago, or the matrix grew). Warm-starts
  /// from the previous factors when there are any. Returns true when usable
  /// predictions are available afterwards. `force` refits regardless of
  /// staleness.
  bool RefreshPredictions(bool force = false) EXCLUDES(drain_mu_);
  /// Publishes the current snapshot chunks with one pointer swap: O(n /
  /// SnapshotChunk::kRows) pointer copies, because the chunks were kept
  /// current at drain time. After a refit the next publication copies
  /// every chunk and rescans each row's model half against the new
  /// predictions. A checkpoint restore or a shape change (AppendQueries)
  /// makes it rebuild every chunk from the matrix instead.
  /// The version stamped into the snapshot and the published counter come
  /// from a single fetch_add, so they can never drift apart. Readers
  /// holding the previous snapshot keep it alive through their own
  /// shared_ptr.
  void Publish() EXCLUDES(drain_mu_, snapshot_mu_);
  /// The epoch boundary: Drain + RefreshPredictions + Publish. Returns the
  /// number of observations drained.
  size_t SyncEpoch() EXCLUDES(drain_mu_);

  /// Starts the free-running train plane: a background thread that drains,
  /// refits on cadence, and republishes until StopTraining. While it runs,
  /// no other thread may call train-plane methods.
  void StartTraining();
  /// Stops and joins the background train thread, then drains any
  /// remaining observations and publishes a final snapshot (and, when
  /// checkpointing is configured, writes a final checkpoint).
  void StopTraining();

  // --- Executor-drivable train stepping (train plane) ----------------------
  /// The free-running train loop, decomposed so an external scheduler (the
  /// shared cross-shard TrainExecutor) can drive many engines' train
  /// planes from one thread pool: BeginTrainSteps initializes the stepping
  /// state and turns the combining drain on, then each TrainStep call runs
  /// exactly one iteration of the loop body — drain (capped at one queue
  /// lap), refit when due, publish on cadence, checkpoint on cadence —
  /// with no sleeping. The in-house StartTraining thread is literally
  /// BeginTrainSteps + TrainStep in a loop, so the two drivers execute
  /// identical per-step behaviour. Steps for one engine must be
  /// serialized, though consecutive steps may run on different threads
  /// (the scheduler's claim/release handoff provides the ordering).
  void BeginTrainSteps() EXCLUDES(drain_mu_);
  /// One train-loop iteration (see BeginTrainSteps). Returns true when the
  /// step made progress — drained observations, refitted, published, or
  /// wrote a checkpoint — and false when the engine was idle, so a
  /// scheduler can park idle engines instead of spinning on them.
  ///
  /// A refit stops the drain only while it copies the matrix: the step
  /// then releases the drain lock, and lapped producers drain and publish
  /// while the model fits the copy. The refit fits the matrix as of the
  /// copy, so what was drained while it ran counts toward the next
  /// refit's refresh_every. The epoch path (SyncEpoch,
  /// RefreshPredictions) has no concurrent drainer, so its traces stay a
  /// pure function of the schedule.
  bool TrainStep() EXCLUDES(drain_mu_);
  /// The shutdown tail of the train plane: turns the combining drain off,
  /// drains everything left, refreshes, publishes a final snapshot, and
  /// (when configured) writes a final checkpoint — exactly what
  /// StopTraining does after joining its thread. External drivers call
  /// this once per engine when tearing the shared train plane down.
  void FinishTrainSteps() EXCLUDES(drain_mu_);
  /// Installs a borrowed completion-scratch arena into the predictor (per
  /// Predictor::SetCompletionArena; no-op without a predictor). The shared
  /// train executor points this at the claiming worker's arena before each
  /// step so refit scratch is pooled per worker, not per shard.
  void SetCompletionArena(CompletionArena* arena) {
    if (predictor_ != nullptr) predictor_->SetCompletionArena(arena);
  }

  // --- Crash-consistent checkpoints (train plane) --------------------------
  /// Captures the train-plane state as of the current drain front: the
  /// workload matrix, warm-start factors, published predictions, the
  /// frozen regret ledger, and the serving / refresh counters. Serving
  /// threads may keep running (they never touch the state being copied).
  /// The captured `serving_seq` is the drained prefix — every observation
  /// at or past it is deliberately excluded, because only the drained
  /// prefix is consistent with the matrix and ledgers.
  EngineCheckpoint MakeCheckpoint() const EXCLUDES(drain_mu_);

  /// Warm-restarts this engine from a checkpoint taken by an engine with
  /// the same construction options: replaces the matrix, factors,
  /// predictions, ledgers, and counters, rewinds the serving plane to the
  /// checkpointed `serving_seq`, and publishes a fresh snapshot. Because
  /// serving decisions are pure functions of (snapshot, serving index) and
  /// the factors seed the next refit via CompleteFrom, an engine restored
  /// at an op boundary (drain / refit / publish / append) replays the
  /// remaining schedule bitwise-identically to an engine that never died
  /// (tests/engine_checkpoint_test.cc). Must not be called while serving
  /// traffic or the background train thread runs.
  void RestoreFromCheckpoint(EngineCheckpoint c) EXCLUDES(drain_mu_);

  /// Writes MakeCheckpoint() crash-atomically to
  /// EngineOptions::checkpoint_path. Returns FailedPrecondition when no
  /// path was configured. The train loop calls it on the checkpoint_every
  /// cadence; callers may also invoke it manually at an op boundary. The
  /// file write runs outside the drain lock.
  Status SaveCheckpoint() EXCLUDES(drain_mu_);

  // --- Direct train-plane writes ------------------------------------------
  /// Records a completed execution directly (no queue, no regret): replaying
  /// an explored matrix into a serving engine, and tests.
  void Observe(int query, int hint, double latency) EXCLUDES(drain_mu_);
  /// Records a censored execution directly.
  void ObserveCensored(int query, int hint, double timeout)
      EXCLUDES(drain_mu_);
  /// Forgets an observation (data-shift invalidation).
  void Clear(int query, int hint) EXCLUDES(drain_mu_);
  /// Appends new all-unobserved query rows; returns the first new index.
  int AppendQueries(int count) EXCLUDES(drain_mu_);

  /// Overwrites one row's serving count without touching the engine
  /// totals: the tier restore path, where EngineCheckpoint carries only the
  /// engine totals and the tier manifest carries the per-row counts.
  void RestoreRowServings(int query, uint64_t servings) EXCLUDES(drain_mu_);

  // --- Train-plane views ---------------------------------------------------
  // Unlocked reads of drain-lock state: call them only at an op boundary —
  // no train step, combining producer or other train-plane call in flight
  // (for example after StopTraining, or between epochs). The references
  // stay valid until the next train-plane call.

  /// The live workload matrix. Serving threads must read the snapshot
  /// instead.
  const WorkloadMatrix& matrix() const NO_THREAD_SAFETY_ANALYSIS {
    return matrix_;
  }
  /// Matrix updates the current predictions have not absorbed: what was
  /// applied since the last refit read the matrix, including what
  /// producers drained while that refit ran. A refit is due once this reaches
  /// refresh_every.
  int updates_since_refresh() const NO_THREAD_SAFETY_ANALYSIS {
    return updates_since_refresh_;
  }
  /// Latest predictions (empty until a refit succeeds, possibly stale
  /// afterwards).
  const linalg::Matrix& predictions() const NO_THREAD_SAFETY_ANALYSIS {
    static const linalg::Matrix kEmpty;
    return predictions_ != nullptr ? *predictions_ : kEmpty;
  }
  /// True once a refit has succeeded (predictions() is meaningful).
  bool have_predictions() const NO_THREAD_SAFETY_ANALYSIS {
    return predictions_ != nullptr;
  }
  /// Warm-start factor state (empty before the first fit and after an
  /// invalidation).
  const CompletionFactors& warm_factors() const { return factors_; }
  /// Servings of `query` drained from the queue so far. Reset by
  /// RestoreFromCheckpoint.
  uint64_t row_servings(int query) const NO_THREAD_SAFETY_ANALYSIS {
    return row_servings_[query];
  }

  // --- Ledgers and counters (atomic; readable from any thread) -------------
  /// Cumulative regret charged by exploratory servings, in seconds.
  double regret_spent() const {
    return regret_spent_.load(std::memory_order_relaxed);
  }
  /// Exploratory servings recorded so far.
  int explorations() const {
    return explorations_.load(std::memory_order_relaxed);
  }
  /// True once the regret budget is exhausted (exploration freezes at the
  /// next publication).
  bool budget_exhausted() const {
    return regret_spent() >= options_.online.regret_budget_seconds;
  }
  /// Regret budget still available for exploration.
  double remaining_regret_budget() const {
    const double left = options_.online.regret_budget_seconds - regret_spent();
    return left > 0.0 ? left : 0.0;
  }
  /// Observations drained from the queue so far (not counting the direct
  /// train-plane Observe family).
  uint64_t drained_servings() const {
    return drained_seq_.load(std::memory_order_relaxed);
  }
  /// Serving indices handed out so far (the claim front). With
  /// drained_servings this gives the queue backlog a scheduler prioritizes
  /// on; readable from any thread.
  uint64_t claimed_servings() const {
    return next_seq_.load(std::memory_order_relaxed);
  }
  /// Claimed-but-not-yet-drained servings (the scheduler's backlog
  /// signal). Monotonicity is not guaranteed across the two relaxed loads,
  /// so treat the value as a heuristic, which is all a priority needs.
  uint64_t queue_backlog() const {
    const uint64_t claimed = claimed_servings();
    const uint64_t drained = drained_servings();
    return claimed > drained ? claimed - drained : 0;
  }
  /// Matrix updates applied since the last publication (drained servings
  /// plus direct Observe-family calls): the scheduler's publication-work
  /// signal.
  uint64_t unpublished_updates() const {
    return unpublished_updates_.load(std::memory_order_relaxed);
  }
  /// Queue laps drained by producers through the combining path (see the
  /// class comment); 0 whenever no producer ever found its slot lapped
  /// while train stepping was on.
  uint64_t combined_drains() const {
    return combined_drains_.load(std::memory_order_relaxed);
  }
  /// Snapshot-chunk buffers allocated from the heap so far. Chunks whose
  /// last holder released them are recycled through a free list, so under
  /// steady-state publication this stops growing.
  uint64_t snapshot_chunks_allocated() const;
  /// Successful refits completed so far (TryRefit with a usable fit).
  uint64_t refits_completed() const {
    return refits_completed_.load(std::memory_order_relaxed);
  }
  /// Wall-clock nanoseconds spent fitting inside refit attempts (successful
  /// or not): from the start of the fit to the completion's return, with
  /// the drain lock released. refit_nanos() / refits_completed() is the
  /// per-refit latency the serving bench reports per shard.
  uint64_t refit_nanos() const {
    return refit_nanos_.load(std::memory_order_relaxed);
  }
  /// Checkpoints successfully written by SaveCheckpoint (including the
  /// train loop's cadence-driven writes and StopTraining's final one).
  uint64_t checkpoints_written() const {
    return checkpoints_written_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    /// Vyukov turn stamp: equals the slot's next expected seq when free,
    /// seq + 1 once that observation is published.
    std::atomic<uint64_t> turn{0};
    ServingObservation obs;
  };
  /// Recycles snapshot-chunk storage (defined in engine.cc).
  class ChunkPool;
  class SCOPED_CAPABILITY TrainPlaneLock;

  size_t DrainLocked(size_t max_observations) REQUIRES(drain_mu_);
  bool RefreshLocked(bool force) REQUIRES(drain_mu_);
  void PublishLocked() REQUIRES(drain_mu_) EXCLUDES(snapshot_mu_);
  void ApplyObservation(const ServingObservation& obs) REQUIRES(drain_mu_);
  /// Refits unconditionally; true when the fit succeeded (predictions_
  /// replaced, updates_since_refresh_ reduced to the observations drained
  /// while it fitted). A successful refit makes the next Publish rescan
  /// the model half of every row (RescanModels) against the new
  /// predictions; the drain kept the verified half current.
  bool TryRefit() REQUIRES(drain_mu_);
  /// Runs the predictor; *fit_ns receives the fitting time. The drain lock
  /// is held at entry and at exit. While the combining drain is on, the
  /// predictor fits fit_matrix_, a copy of matrix_ taken under the lock,
  /// with the lock released; otherwise it fits matrix_ under the lock.
  StatusOr<linalg::Matrix> FitReleasingDrainLock(uint64_t* fit_ns)
      REQUIRES(drain_mu_);
  /// Takes the drain lock for the train plane: raises train_waiting_
  /// while it blocks, so producers stop trying the lock and the train
  /// plane gets it after at most the lap a combiner is already draining.
  void LockForTrainPlane() const ACQUIRE(drain_mu_);
  /// Publishes when publish_every observations have drained since the last
  /// stepping publication (or unconditionally with `force`) and moves the
  /// cadence mark to the current drain front. Returns whether it published.
  bool PublishIfDue(bool force) REQUIRES(drain_mu_);
  /// The combining drain (see the class comment): when stepping is on, the
  /// train plane is not waiting and the drain lock is free, publishes if
  /// due, drains one lap and publishes if due. True when it drained.
  bool TryCombine() EXCLUDES(drain_mu_);
  /// Folds the matrix's new (query, hint) cell into the row's snapshot
  /// chunk: O(1) unless the verified best or the predicted-best unobserved
  /// hint may have moved away from the cell, in which case that half of
  /// the row is rescanned. The verified half rescans only when the default
  /// changes completeness, the best leaves the complete set, or the best
  /// gets slower to at least the row's runner-up bound (runner_up_); a
  /// slower best still under the bound keeps its place. `before` is the
  /// cell's state before the update.
  void FoldCell(int query, int hint, CellState before) REQUIRES(drain_mu_);
  /// The row's chunk, copied first when a published snapshot shares it.
  SnapshotChunk& WritableChunk(int query) REQUIRES(drain_mu_);
  /// Recomputes every chunk from the live matrix against `preds` (null:
  /// no predictions served).
  void RebuildChunks(std::shared_ptr<const linalg::Matrix> preds)
      REQUIRES(drain_mu_);
  /// Rescans only the model half of every row against `preds`, copying
  /// each chunk a snapshot shares first. Valid only while the chunks are
  /// not stale: the fold keeps the states and verified bests current.
  void RescanModels(std::shared_ptr<const linalg::Matrix> preds)
      REQUIRES(drain_mu_);
  /// The row's verified best, its latency and its runner_up_ bound, from
  /// one OnlineOptimizer pass.
  void ScanVerified(SnapshotChunk& chunk, int row, int query)
      REQUIRES(drain_mu_);
  void ScanModel(SnapshotChunk& chunk, int row, int query) const
      REQUIRES(drain_mu_);
  /// Records `count` matrix updates applied but not yet published. Only
  /// the drain-lock holder writes the counter, so a plain load + store
  /// suffices (no read-modify-write on the drain path).
  void CountUnpublished(uint64_t count) REQUIRES(drain_mu_) {
    unpublished_updates_.store(
        unpublished_updates_.load(std::memory_order_relaxed) + count,
        std::memory_order_relaxed);
  }
  void TrainLoop();

  EngineOptions options_;
  Predictor* predictor_;

  // One lock for the train-plane state. Producers take it only through
  // TryCombine; the train plane takes it through TrainPlaneLock, which
  // raises train_waiting_ first so combiners back off.
  mutable Mutex drain_mu_;
  mutable std::atomic<bool> train_waiting_{false};
  std::atomic<bool> combining_{false};
  std::atomic<uint64_t> combined_drains_{0};

  WorkloadMatrix matrix_ GUARDED_BY(drain_mu_);

  // Snapshot chunks, kept current at drain time. chunk_shared_[c] is set
  // once a published snapshot holds chunks_[c]; the next write to that
  // chunk copies it first. chunk_preds_ is what the chunks' model scans
  // were computed against: when it differs from the predictions to serve,
  // the next Publish rescans only the model half of every row.
  // chunks_stale_ forces a full rebuild there instead (restore, shape
  // change).
  std::shared_ptr<ChunkPool> chunk_pool_;
  std::vector<std::shared_ptr<SnapshotChunk>> chunks_ GUARDED_BY(drain_mu_);
  std::vector<uint8_t> chunk_shared_ GUARDED_BY(drain_mu_);
  std::shared_ptr<const linalg::Matrix> chunk_preds_ GUARDED_BY(drain_mu_);
  bool chunks_stale_ GUARDED_BY(drain_mu_) = true;
  // Per row, a lower bound on the latency of every complete cell other
  // than the verified best (+infinity when there is none or the default is
  // incomplete). ScanVerified sets it exactly; FoldCell keeps it a bound,
  // so a best that gets slower but stays under it needs no row rescan.
  // Train-plane only: never published, never copied on write.
  std::vector<double> runner_up_ GUARDED_BY(drain_mu_);
  std::atomic<uint64_t> unpublished_updates_{0};

  // Model state. predictions_ is shared into snapshots and replaced (never
  // mutated) on refit. factors_ and fit_matrix_ (the copy of matrix_ a
  // refit fits while producers combine) belong to the thread running the
  // refit: it uses them after the drain lock was released, and nothing on
  // the combining path reads them.
  std::shared_ptr<const linalg::Matrix> predictions_ GUARDED_BY(drain_mu_);
  int updates_since_refresh_ GUARDED_BY(drain_mu_) = 0;
  CompletionFactors factors_;
  WorkloadMatrix fit_matrix_;

  // Ledgers: written under the drain lock, read anywhere.
  std::atomic<double> regret_spent_{0.0};
  std::atomic<int> explorations_{0};
  std::atomic<uint64_t> checkpoints_written_{0};
  std::atomic<uint64_t> refits_completed_{0};
  std::atomic<uint64_t> refit_nanos_{0};

  // Drained servings per row (updated in drain order). Always sized to the
  // matrix rows.
  std::vector<uint64_t> row_servings_ GUARDED_BY(drain_mu_);

  // Snapshot publication: the pointer is guarded by snapshot_mu_ (held
  // only for the copy/swap); the version counter is the lock-free probe.
  // The observation queue and the ledgers are atomic publication
  // protocols (explicit memory orders, enforced by
  // tools/lint_determinism.py) rather than capabilities.
  mutable Mutex snapshot_mu_;
  std::shared_ptr<const ServingSnapshot> snapshot_ GUARDED_BY(snapshot_mu_);
  std::atomic<uint64_t> snapshot_version_{0};

  // Observation queue (power-of-two ring of Vyukov slots).
  std::vector<Slot> slots_;
  size_t queue_mask_ = 0;
  std::atomic<uint64_t> next_seq_{0};
  std::atomic<uint64_t> drained_seq_{0};  // == head; the lock holder advances

  // Train stepping state (BeginTrainSteps / TrainStep / the combining
  // drain): the cadence marks and refit gates of the free-running loop.
  struct TrainStepState {
    /// Drain front at the last refit attempt; blocks failure storms.
    uint64_t drained_at_last_attempt = ~uint64_t{0};
    /// Drain front at the last publication (publish_every cadence mark).
    uint64_t published_seen = 0;
    /// The next refit may not start before the drain front passes this:
    /// the claim front when the previous refit finished, so everything in
    /// flight then lands first. Under saturation this spaces refits at
    /// least a backlog apart; the drain itself never waits on a refit
    /// (producers combine while the model fits).
    uint64_t refit_after_seq = 0;
    /// Drain front at the last checkpoint (checkpoint_every cadence mark).
    uint64_t checkpointed_seen = 0;
    /// Whether any complete observation exists (evaluated once, then
    /// remembered: every drained observation is complete).
    bool has_complete = false;
  };
  TrainStepState step_ GUARDED_BY(drain_mu_);

  // Background train plane.
  std::thread train_thread_;
  std::atomic<bool> stop_training_{false};
  bool training_ = false;
};

}  // namespace limeqo::core

#endif  // LIMEQO_CORE_ENGINE_H_
