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

/// An immutable, shareable picture of everything the serving plane needs:
/// the verified-best table, the cell states, the latest predictions, and
/// the frozen regret ledger. Built by ExplorationEngine::Publish; read by
/// any number of serving threads with no synchronization beyond the
/// shared_ptr that delivered it.
///
/// Representation: a snapshot is a *base* (full per-row tables, shared
/// across consecutive snapshots by shared_ptr) plus a small sorted *delta
/// overlay* of rows changed since the base was built. Row lookups check the
/// overlay first (binary search over at most a few dozen entries), so reads
/// stay lock-free and cheap while publication cost drops from O(n*k) to
/// O(changed rows * k). The base is rebuilt — and the overlay emptied — on
/// refit, ResetMatrix, AppendQueries, or overlay compaction (see
/// EngineOptions::delta_publication).
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
  int VerifiedHint(int query) const;
  /// Observed latency of the verified-best hint; +infinity when the row
  /// has no complete default observation (serving falls back to hint 0).
  double VerifiedLatency(int query) const;

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
  /// Rows this snapshot carries in its delta overlay; 0 means the snapshot
  /// is served entirely from its (possibly freshly rebuilt) base.
  int delta_rows() const { return static_cast<int>(delta_queries_.size()); }

  /// The serving decision: usually the verified best, sometimes (bounded
  /// by the options) the model's predicted-best unverified hint. A pure
  /// function of (this snapshot, query, serving_index) — the epsilon gate
  /// and the random-fallback pick for index s are drawn from streams
  /// seeded by MixSeed(seed, s), so the decision is independent of call
  /// order and thread placement. Lock-free and const. An adapter over
  /// DecideServingHint (decision_kernel.h): the model step reads the
  /// publication-time row precompute, so the decision is O(1) — no per-hint
  /// scan on the serving path.
  int ChooseHint(int query, uint64_t serving_index) const;

  /// Batched ChooseHint: decides queries[i] at serving index first_seq + i,
  /// writing the chosen hint to out[i]. Decision-for-decision identical to
  /// the scalar calls (each index keeps its own gate/pick stream), but
  /// amortizes the row resolution setup and the snapshot-wide gate checks
  /// (exhausted budget, empty overlay) across the batch — the free-running
  /// serving loops and the bench use it to shave per-serving overhead.
  /// Requires out.size() >= queries.size(). Lock-free and const.
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

  /// The full per-row tables, shared across every snapshot published since
  /// the last base rebuild. Never mutated after construction. Laid out as
  /// struct-of-arrays — one contiguous array per field — so the serving
  /// hot path touches only the cache lines of the fields it reads (the
  /// non-exploring fast path needs just verified_best) instead of striding
  /// over interleaved row structs. The last three arrays are the
  /// publication-time model-scan precompute (ScanHintRow per row): the
  /// predicted-best unobserved hint, its prediction, and the row's
  /// unobserved count, making the serve-time model and fallback steps O(1).
  /// Precompute invariant: whenever the snapshot's have_predictions_ is
  /// true, every row (base and delta) was scanned against exactly the
  /// predictions_ the snapshot carries — predictions only change on a
  /// successful refit or a checkpoint restore, and both invalidate the base.
  struct BaseTables {
    std::vector<int> verified_best;
    std::vector<double> verified_latency;
    std::vector<CellState> states;  // row-major n*k
    std::vector<int> best_unobserved;
    std::vector<double> best_unobserved_pred;
    std::vector<int> unobserved_count;
  };
  /// One resolved row: either the overlay's copy or the base's, with the
  /// publication-time scan precompute alongside.
  struct RowView {
    int verified_best;
    double verified_latency;
    const CellState* states;  // num_hints_ entries
    int best_unobserved;
    double best_unobserved_pred;
    int unobserved_count;
  };
  /// Resolves `query` against the delta overlay, falling back to the base.
  RowView Row(int query) const;

  uint64_t version_ = 0;
  uint64_t published_seq_ = 0;
  int num_queries_ = 0;
  int num_hints_ = 0;
  std::shared_ptr<const BaseTables> base_;
  /// Delta overlay: rows changed since the base was built, sorted by query
  /// index, with their tables stored row-major alongside.
  std::vector<int> delta_queries_;
  std::vector<int> delta_verified_best_;
  std::vector<double> delta_verified_latency_;
  std::vector<CellState> delta_states_;  // delta_queries_.size() * num_hints_
  std::vector<int> delta_best_unobserved_;
  std::vector<double> delta_best_unobserved_pred_;
  std::vector<int> delta_unobserved_count_;
  /// Shared with the engine and other snapshots: predictions only change
  /// on a successful refit, so publication shares the pointer instead of
  /// copying n*k doubles per epoch.
  std::shared_ptr<const linalg::Matrix> predictions_;
  bool have_predictions_ = false;
  double frozen_regret_spent_ = 0.0;
  OnlineExplorationOptions options_;
  uint64_t gate_seed_ = 0;
  uint64_t pick_seed_ = 0;
};

/// One query row packaged for migration between engines (shard
/// rebalancing, see src/core/shard_router.h): the row's cell payload —
/// per-hint observation states and values, copied bitwise from the source
/// matrix — plus the row's slice of the regret and exploration ledgers.
/// Produced by ExplorationEngine::ExtractRow, consumed by
/// ExplorationEngine::AdoptRow on the destination engine; replaying the
/// payload there reconstructs the row cell-for-cell, so a migrated row is
/// indistinguishable from one that was always observed on the
/// destination.
struct MigratedRow {
  /// Per-hint observation states (num_hints entries).
  std::vector<CellState> states;
  /// Per-hint observed values: exact latency for complete cells, the
  /// censoring threshold for censored cells, 0 for unobserved cells.
  std::vector<double> values;
  /// Regret charged by exploratory servings of this row, in seconds.
  double regret_spent = 0.0;
  /// Exploratory servings of this row.
  int explorations = 0;
  /// Servings of this row applied on the train plane (the traffic weight
  /// used by load-aware rebalancing; travels with the row like the ledger
  /// slice).
  uint64_t servings = 0;
};

/// Construction options for the engine.
struct EngineOptions {
  /// Serving-plane behaviour (epsilon gate, regret budget, refresh
  /// cadence). Can be replaced later with ConfigureServing.
  OnlineExplorationOptions online;
  /// Seed model refits from the previous factors (CompleteFrom) instead of
  /// cold-starting each refresh. Factors are dropped on any event that
  /// invalidates past observations (data shift, matrix replacement).
  bool warm_start = true;
  /// Observation-queue capacity, rounded up to a power of two. Must cover
  /// the servings in flight between drains; producers spin when the queue
  /// is a full lap ahead of the train plane (back-pressure, not loss).
  size_t queue_capacity = 4096;
  /// Publish snapshots incrementally: each Publish ships the persistent
  /// base plus a delta overlay of the rows changed since the base was
  /// built (O(changed rows * k) instead of O(n*k) per publication). The
  /// base is fully rebuilt on a successful refit, on ResetMatrix /
  /// AppendQueries, and when the overlay grows past a quarter of the rows
  /// (compaction). Delta snapshots are bitwise-equivalent to full rebuilds
  /// at every publication point (tests/engine_delta_test.cc); disable only
  /// for the equivalence tests and the publication-cost bench.
  bool delta_publication = true;
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

/// The engine joining the two planes. All train-plane methods (Drain,
/// RefreshPredictions, Publish, the Observe family) must be called from
/// one thread at a time — either the owner's thread or the background
/// train thread started with StartTraining, never both. Serving-plane
/// methods (snapshot, AcquireServingIndex, Report) are safe from any
/// number of threads concurrently with the train plane.
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
  void ConfigureServing(const OnlineExplorationOptions& online);
  /// The serving options currently in force (frozen into snapshots at
  /// each Publish).
  const OnlineExplorationOptions& online_options() const {
    return options_.online;
  }
  /// Attaches / replaces the completion model (not owned). The offline
  /// exploration path runs without one; the serving path needs one for
  /// exploratory candidates. Replacing the predictor drops the previous
  /// model's predictions and warm-start factors — they describe a
  /// different model and must neither be served nor seed the new one.
  void SetPredictor(Predictor* predictor) {
    if (predictor == predictor_) return;
    predictor_ = predictor;
    factors_.clear();
    predictions_.reset();
    updates_since_refresh_ = 0;
  }

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
  /// ahead of the drain (then spins for back-pressure). Thread-safe.
  void Report(const ServingObservation& obs);
  /// Observation-queue capacity actually in force (the rounded-up power of
  /// two). A producer of serving s blocks in Report until the drain has
  /// passed s - queue_capacity(), which is what bounds snapshot staleness
  /// in free-running operation.
  size_t queue_capacity() const { return slots_.size(); }

  // --- Train plane -------------------------------------------------------
  /// No cap for Drain: consume the whole contiguous published prefix.
  static constexpr size_t kDrainAll = ~size_t{0};
  /// Applies contiguously published observations, in sequence order:
  /// matrix updates, regret ledger, exploration counters. Stops after
  /// `max_observations` (the free-running train loop caps each batch at
  /// one queue lap so publications can never lag the drain front by more
  /// than queue_capacity() + publish_every). Returns how many observations
  /// were applied.
  size_t Drain(size_t max_observations = kDrainAll);
  /// Re-runs the completion model when predictions are stale (never ran,
  /// refresh_every matrix updates ago, or the matrix grew). Warm-starts
  /// from the previous factors when enabled. Returns true when usable
  /// predictions are available afterwards. `force` refits regardless of
  /// staleness.
  bool RefreshPredictions(bool force = false);
  /// Builds a ServingSnapshot from the train-plane state — a delta overlay
  /// over the persistent base when possible, a full base rebuild on refit /
  /// ResetMatrix / AppendQueries / compaction — and publishes it with one
  /// pointer swap. The version stamped into the snapshot and the published
  /// counter come from a single fetch_add, so they can never drift apart.
  /// Readers holding the previous snapshot keep it alive through their
  /// own shared_ptr; there is no reclamation to coordinate. The EXCLUDES
  /// makes a re-entrant publication (calling Publish while already inside
  /// the critical section) a compile error under the Clang lane.
  void Publish() EXCLUDES(snapshot_mu_);
  /// The epoch boundary: Drain + RefreshPredictions + Publish. Returns the
  /// number of observations drained.
  size_t SyncEpoch();

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
  /// state, then each TrainStep call runs exactly one iteration of the
  /// loop body — drain (capped at one queue lap), refit when due, publish
  /// on cadence, checkpoint on cadence — with no sleeping. The in-house
  /// StartTraining thread is literally BeginTrainSteps + TrainStep in a
  /// loop, so the two drivers execute identical per-step behaviour.
  /// Train-plane method: steps for one engine must be serialized, though
  /// consecutive steps may run on different threads (the scheduler's
  /// claim/release handoff provides the ordering).
  void BeginTrainSteps();
  /// One train-loop iteration (see BeginTrainSteps). Returns true when the
  /// step made progress — drained observations, refitted, published, or
  /// wrote a checkpoint — and false when the engine was idle, so a
  /// scheduler can park idle engines instead of spinning on them.
  ///
  /// A refit does not stop the drain: the step runs it inside a
  /// ScopedRefitYield (completer.h) whose callback publishes if due,
  /// drains at most one queue lap and publishes if due again, which keeps
  /// the free-running staleness bound through the refit. The refit fits
  /// the matrix as of its start, so updates_since_refresh() afterwards
  /// counts what its yields drained. The epoch path (SyncEpoch,
  /// RefreshPredictions) never yields, so its traces stay a pure function
  /// of the schedule.
  bool TrainStep();
  /// The shutdown tail of the train plane: drains everything left,
  /// refreshes, publishes a final snapshot, and (when configured) writes a
  /// final checkpoint — exactly what StopTraining does after joining its
  /// thread. External drivers call this once per engine when tearing the
  /// shared train plane down.
  void FinishTrainSteps();
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
  /// frozen regret ledger, and the serving / refresh counters. Train-plane
  /// method; serving threads may keep running (they never touch the state
  /// being copied). The captured `serving_seq` is the drained prefix —
  /// every observation at or past it is deliberately excluded, because
  /// only the drained prefix is consistent with the matrix and ledgers.
  EngineCheckpoint MakeCheckpoint() const;

  /// Warm-restarts this engine from a checkpoint taken by an engine with
  /// the same construction options: replaces the matrix, factors,
  /// predictions, ledgers, and counters, rewinds the serving plane to the
  /// checkpointed `serving_seq`, and publishes a fresh snapshot. Because
  /// serving decisions are pure functions of (snapshot, serving index) and
  /// the factors seed the next refit via CompleteFrom, an engine restored
  /// at an op boundary (drain / refit / publish / append) replays the
  /// remaining schedule bitwise-identically to an engine that never died
  /// (tests/engine_checkpoint_test.cc). Train-plane method; must not be
  /// called while serving traffic or the background train thread runs.
  void RestoreFromCheckpoint(EngineCheckpoint c);

  /// Writes MakeCheckpoint() crash-atomically to
  /// EngineOptions::checkpoint_path. Returns FailedPrecondition when no
  /// path was configured. Train-plane method (the train loop calls it on
  /// the checkpoint_every cadence; callers may also invoke it manually at
  /// an op boundary).
  Status SaveCheckpoint();

  // --- Train-plane observation entry points (offline loop, adapters) -----
  /// Records a completed execution directly (no queue, no regret): the
  /// offline exploration path.
  void Observe(int query, int hint, double latency);
  /// Records a censored execution directly.
  void ObserveCensored(int query, int hint, double timeout);
  /// Forgets an observation (data-shift invalidation).
  void Clear(int query, int hint);
  /// Appends new all-unobserved query rows; returns the first new index.
  int AppendQueries(int count);
  /// Records a serving observed synchronously on the train plane (the
  /// single-threaded OnlineExplorationOptimizer path): applies the matrix
  /// update and charges the ledgers immediately, bypassing the queue.
  void ObserveServing(int query, int hint, double latency, bool exploratory,
                      double regret_delta);
  /// Replaces the matrix wholesale (resume-from-disk) and invalidates the
  /// model state.
  void ResetMatrix(WorkloadMatrix matrix);

  // --- Row migration (shard rebalancing, train plane) ----------------------
  /// Packages row `query` for migration: the cell payload copied bitwise
  /// from the live matrix plus the row's ledger slice. Train-plane method;
  /// call at an op boundary (queue drained) so the payload is consistent
  /// with the ledgers.
  MigratedRow ExtractRow(int query) const;
  /// Removes row `query` from the matrix and subtracts its ledger slice
  /// from the engine totals; rows above it shift down by one. Invalidates
  /// the model (factor rows no longer line up with the shrunk matrix) and
  /// publishes a fresh snapshot. Train-plane method at an op boundary: no
  /// in-flight serving may still target the old row indices, because every
  /// row above the removed one is renumbered.
  void RemoveRow(int query);
  /// Appends the migrated row to this engine's matrix, replays its cell
  /// payload bitwise, adds its ledger slice to the engine totals,
  /// invalidates the model, and publishes. Returns the new local row
  /// index (always the last row). Same op-boundary contract as RemoveRow.
  int AdoptRow(const MigratedRow& row);
  /// Overwrites one row's ledger slice — regret, explorations, and the
  /// serving-traffic weight — without touching the engine totals: the tier
  /// restore path, where EngineCheckpoint carries only the engine totals
  /// and the tier manifest carries the per-row split.
  void RestoreRowLedgerSlice(int query, double regret, int explorations,
                             uint64_t servings = 0);
  /// Drops predictions, warm-start factors, and any state the predictor
  /// retains: after a data shift nothing fitted on the old data may leak
  /// into the new fit (the warm-start no-leak contract).
  void InvalidateModel();

  // --- Train-plane views ---------------------------------------------------
  /// The live workload matrix. Train plane only: serving threads must read
  /// the snapshot instead.
  const WorkloadMatrix& matrix() const { return matrix_; }
  /// Latest predictions (train-plane view; empty until a refit succeeds,
  /// possibly stale afterwards).
  const linalg::Matrix& predictions() const {
    static const linalg::Matrix kEmpty;
    return predictions_ != nullptr ? *predictions_ : kEmpty;
  }
  /// True once a refit has succeeded (predictions() is meaningful).
  bool have_predictions() const { return predictions_ != nullptr; }
  /// Matrix updates the last successful refit has not absorbed: those
  /// since it finished plus those its own yields drained while it ran.
  int updates_since_refresh() const { return updates_since_refresh_; }
  /// Warm-start factor state (empty when cold or disabled).
  const CompletionFactors& warm_factors() const { return factors_; }

  // --- Ledgers (atomic; readable from any thread) --------------------------
  /// Cumulative regret charged by exploratory servings, in seconds.
  double regret_spent() const {
    return regret_spent_.load(std::memory_order_relaxed);
  }
  /// Exploratory servings recorded so far.
  int explorations() const {
    return explorations_.load(std::memory_order_relaxed);
  }
  /// Regret charged by exploratory servings of `query` alone (the
  /// per-row split of regret_spent; travels with the row on migration).
  /// Train-plane view: updated at drain time, in serving order.
  double row_regret(int query) const { return row_regret_[query]; }
  /// Exploratory servings of `query` alone (the per-row split of
  /// explorations). Train-plane view.
  int row_explorations(int query) const { return row_explorations_[query]; }
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
  /// Rows changed since the snapshot base was built and not yet folded
  /// into a publication (the scheduler's dirty-work signal). Train-plane
  /// view: read it only when no train step for this engine is in flight.
  size_t pending_dirty_rows() const { return dirty_rows_.size(); }
  /// Train-plane servings applied to `query` so far (the per-row traffic
  /// weight; travels with the row on migration). Train-plane view.
  uint64_t row_servings(int query) const { return row_servings_[query]; }
  /// Successful refits completed so far (TryRefit with a usable fit).
  uint64_t refits_completed() const {
    return refits_completed_.load(std::memory_order_relaxed);
  }
  /// Wall-clock nanoseconds spent fitting inside refit attempts (successful
  /// or not), excluding the time TrainStep's refit yields spent draining
  /// and publishing (refit_yield_nanos). refit_nanos() / refits_completed()
  /// is the per-refit latency the serving bench reports per shard.
  uint64_t refit_nanos() const {
    return refit_nanos_.load(std::memory_order_relaxed);
  }
  /// Wall-clock nanoseconds TrainStep spent inside refit yields: the
  /// draining and publishing it did while a refit was in flight.
  uint64_t refit_yield_nanos() const {
    return refit_yield_nanos_.load(std::memory_order_relaxed);
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

  void ApplyObservation(const ServingObservation& obs);
  void TrainLoop();
  /// Refits unconditionally; true when the fit succeeded (predictions_
  /// replaced, updates_since_refresh_ reduced to the observations drained
  /// by the refit's own yields). A successful refit schedules a full
  /// snapshot-base rebuild for the next Publish.
  bool TryRefit();
  /// Publishes when publish_every observations have drained since the last
  /// stepping publication (or unconditionally with `force`) and moves the
  /// cadence mark to the current drain front. Returns whether it published.
  bool PublishIfDue(bool force = false);
  /// TrainStep's refit yield (the ScopedRefitYield callback): publish if
  /// due, drain at most one queue lap, publish if due.
  void RefitYield();
  /// Marks one row changed since the snapshot base was built; the next
  /// Publish ships it in the delta overlay.
  void MarkRowDirty(int query);
  /// Invalidates the snapshot base entirely (shape change, refit,
  /// wholesale matrix replacement): the next Publish rebuilds it.
  void InvalidateSnapshotBase();

  EngineOptions options_;
  WorkloadMatrix matrix_;
  Predictor* predictor_;

  // Delta-publication state: the persistent base shared into snapshots,
  // the rows changed since it was built (flag array + insertion list — the
  // drain hot path marks a row dirty in O(1) with no allocation; Publish
  // sorts the short list), and the rebuild flag.
  std::shared_ptr<const ServingSnapshot::BaseTables> base_tables_;
  std::vector<uint8_t> dirty_flags_;  // sized to the matrix rows
  std::vector<int> dirty_rows_;       // unsorted insertion order
  bool snapshot_base_stale_ = true;

  // Model state (train plane). predictions_ is shared into snapshots and
  // replaced (never mutated) on refit.
  std::shared_ptr<const linalg::Matrix> predictions_;
  int updates_since_refresh_ = 0;
  CompletionFactors factors_;

  // Ledgers: written by the train plane, read anywhere.
  std::atomic<double> regret_spent_{0.0};
  std::atomic<int> explorations_{0};
  std::atomic<uint64_t> checkpoints_written_{0};
  std::atomic<uint64_t> refits_completed_{0};
  std::atomic<uint64_t> refit_nanos_{0};
  std::atomic<uint64_t> refit_yield_nanos_{0};

  // Per-row ledger split (train plane only, updated in drain order): the
  // regret / exploration slice each row contributed, so a migrating row
  // can carry its charges to the destination shard. row_servings_ is the
  // per-row traffic weight load-aware rebalancing scores on. Always sized
  // to the matrix rows.
  std::vector<double> row_regret_;
  std::vector<int> row_explorations_;
  std::vector<uint64_t> row_servings_;

  // Snapshot publication: the pointer is guarded by snapshot_mu_ (held
  // only for the copy/swap, the publication-only critical section); the
  // version counter is the lock-free probe. GUARDED_BY makes any lock-free
  // touch of the pointer a compile error under the Clang thread-safety
  // lane. The surrounding train-plane state (matrix_, predictions_, the
  // dirty-row tracking, the step_ marks) is deliberately *not* guarded by
  // any capability: it is single-writer by the class contract and read
  // only on the train plane, so there is no lock whose discipline the
  // analysis could check — the TSan jobs and the bitwise twin tests cover
  // that contract instead. The observation queue and the ledgers are
  // atomic publication protocols (explicit memory orders, enforced by
  // tools/lint_determinism.py) rather than capabilities.
  mutable Mutex snapshot_mu_;
  std::shared_ptr<const ServingSnapshot> snapshot_ GUARDED_BY(snapshot_mu_);
  std::atomic<uint64_t> snapshot_version_{0};

  // Observation queue (power-of-two ring of Vyukov slots).
  std::vector<Slot> slots_;
  size_t queue_mask_ = 0;
  std::atomic<uint64_t> next_seq_{0};
  std::atomic<uint64_t> drained_seq_{0};  // == head; train plane advances

  // Train stepping state (BeginTrainSteps / TrainStep): the cadence marks
  // and refit gates the free-running loop used to keep in locals, hoisted
  // so an external scheduler can drive one iteration at a time.
  struct TrainStepState {
    /// Drain front at the last refit attempt; blocks failure storms.
    uint64_t drained_at_last_attempt = ~uint64_t{0};
    /// Drain front at the last publication (publish_every cadence mark).
    uint64_t published_seen = 0;
    /// The next refit may not start before the drain front passes this:
    /// the claim front when the previous refit finished, so everything in
    /// flight then lands first. Under saturation this spaces refits at
    /// least a backlog apart; the drain itself never waits on a refit
    /// (TrainStep's refit yields keep it running).
    uint64_t refit_after_seq = 0;
    /// Drain front at the last checkpoint (checkpoint_every cadence mark).
    uint64_t checkpointed_seen = 0;
    /// Whether any complete observation exists (evaluated once, then
    /// remembered: every drained observation is complete).
    bool has_complete = false;
  };
  TrainStepState step_;

  // Background train plane.
  std::thread train_thread_;
  std::atomic<bool> stop_training_{false};
  bool training_ = false;
};

}  // namespace limeqo::core

#endif  // LIMEQO_CORE_ENGINE_H_
