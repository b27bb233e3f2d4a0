#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "core/completer.h"
#include "core/online.h"

namespace limeqo::core {
namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 64;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// ServingSnapshot
// ---------------------------------------------------------------------------

ServingSnapshot::RowView ServingSnapshot::Row(int query) const {
  LIMEQO_CHECK(query >= 0 && query < num_queries_);
  const SnapshotChunk& chunk =
      *chunks_[static_cast<size_t>(query) >> SnapshotChunk::kRowsLog2];
  const int r = query & (SnapshotChunk::kRows - 1);
  return {chunk.verified_best[r],
          chunk.verified_latency[r],
          &chunk.states[static_cast<size_t>(r) * num_hints_],
          chunk.best_unobserved[r],
          chunk.best_unobserved_pred[r],
          chunk.unobserved_count[r]};
}

double ServingSnapshot::VerifiedLatency(int query) const {
  return Row(query).verified_latency;
}

HintScan ServingSnapshot::RowScan(int query) const {
  const RowView row = Row(query);
  HintScan scan;
  scan.have_predictions = have_predictions_;
  scan.best_unobserved = row.best_unobserved;
  scan.best_unobserved_pred = row.best_unobserved_pred;
  scan.unobserved_count = row.unobserved_count;
  return scan;
}

CellState ServingSnapshot::state(int query, int hint) const {
  LIMEQO_CHECK(hint >= 0 && hint < num_hints_);
  return Row(query).states[hint];
}

int ServingSnapshot::ChooseHint(int query, uint64_t serving_index) const {
  const RowView row = Row(query);
  DecisionInputs in;
  in.verified_best = row.verified_best;
  in.verified_latency = row.verified_latency;
  in.states = row.states;
  in.num_hints = num_hints_;
  // The frozen ledger: regret charged since publication is invisible here
  // by design (see the regret accounting contract in docs/ARCHITECTURE.md).
  in.regret_spent = frozen_regret_spent_;
  const OnlineExplorationOptions& opt = options_;
  return DecideServingHint(
      opt, in,
      // The epsilon gate for serving s is its own stream — a pure function
      // of (seed, s), so the gate sequence is identical no matter which
      // thread serves which index. It consumes exactly one draw, so
      // FirstUniform skips the full generator setup while staying
      // bitwise-equal to Rng(MixSeed(...)).Bernoulli(epsilon).
      [&] {
        return FirstUniform(MixSeed(gate_seed_, serving_index)) < opt.epsilon;
      },
      // The model scan is the row precompute kept current at drain time;
      // serving just reads it.
      [&] { return RowScan(query); },
      // The pick may need several draws (rejection sampling), so it pays
      // for a full per-index generator — but only on fallback servings.
      [&](uint64_t n) {
        Rng pick_rng(MixSeed(pick_seed_, serving_index));
        return pick_rng.NextUint64Below(n);
      });
}

void ServingSnapshot::ChooseHints(std::span<const int> queries,
                                  uint64_t first_seq,
                                  std::span<int> out) const {
  LIMEQO_CHECK(out.size() >= queries.size());
  const size_t count = queries.size();
  const OnlineExplorationOptions& opt = options_;
  const bool frozen =
      opt.epsilon <= 0.0 || frozen_regret_spent_ >= opt.regret_budget_seconds;
  for (size_t i = 0; i < count; ++i) {
    const uint64_t s = first_seq + i;
    // Gate first: on the (1 - epsilon) fast path the decision needs only
    // the verified-best field — one chunk read, no full DecisionInputs.
    // The gate draw is the same per-index stream the scalar path uses, so
    // batched and scalar decisions are identical for every (query, index)
    // pair.
    if (frozen || !(FirstUniform(MixSeed(gate_seed_, s)) < opt.epsilon)) {
      out[i] = VerifiedHint(queries[i]);
      continue;
    }
    // Exploration-eligible serving: run the full kernel. Re-drawing the
    // gate inside ChooseHint returns the same value (the stream is a pure
    // function of (seed, s)), so this stays decision-identical to the
    // scalar path at a cost paid only on the epsilon fraction of servings.
    out[i] = ChooseHint(queries[i], s);
  }
}

ServingObservation ServingSnapshot::MakeObservation(uint64_t seq, int query,
                                                    int hint,
                                                    double latency) const {
  LIMEQO_CHECK(hint >= 0 && hint < num_hints_);
  LIMEQO_CHECK(latency >= 0.0);
  const RowView row = Row(query);
  ServingObservation obs;
  obs.seq = seq;
  obs.query = query;
  obs.hint = hint;
  obs.latency = latency;
  const ServingClassification c = ClassifyServing(
      row.verified_best, row.verified_latency,
      row.states[hint] == CellState::kComplete, hint, latency);
  obs.exploratory = c.exploratory;
  obs.regret_delta = c.regret_delta;
  return obs;
}

// ---------------------------------------------------------------------------
// ExplorationEngine
// ---------------------------------------------------------------------------

/// Free list of chunk buffers. Every chunk the engine hands to a snapshot
/// carries a deleter that returns its buffer here once the last holder —
/// the engine or any snapshot on any serving thread — drops it, so
/// steady-state publication reuses a bounded working set instead of
/// allocating a fresh buffer for every copied chunk.
class ExplorationEngine::ChunkPool {
 public:
  /// A buffer from `pool` whose states hold kRows * num_hints cells
  /// (contents unspecified: the caller overwrites every field it reads).
  /// Its deleter holds `pool`, so a snapshot may outlive the engine.
  static std::shared_ptr<SnapshotChunk> Acquire(
      const std::shared_ptr<ChunkPool>& pool, int num_hints) {
    std::unique_ptr<SnapshotChunk> chunk = pool->TakeFree();
    if (chunk == nullptr) {
      chunk = std::make_unique<SnapshotChunk>();
      pool->allocated_.fetch_add(1, std::memory_order_relaxed);
    }
    chunk->states.resize(static_cast<size_t>(SnapshotChunk::kRows) *
                         static_cast<size_t>(num_hints));
    return std::shared_ptr<SnapshotChunk>(
        chunk.release(), [pool](SnapshotChunk* c) { pool->Release(c); });
  }

  /// Keeps at most `chunks` free buffers (one full set of the engine's
  /// chunks): enough for a publication cycle to run on recycled storage,
  /// without holding on to a burst's worth after it passes.
  void SetMaxFree(size_t chunks) {
    MutexLock lock(mu_);
    max_free_ = chunks;
  }

  uint64_t allocated() const {
    return allocated_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<SnapshotChunk> TakeFree() {
    MutexLock lock(mu_);
    if (free_.empty()) return nullptr;
    std::unique_ptr<SnapshotChunk> chunk = std::move(free_.back());
    free_.pop_back();
    return chunk;
  }

  void Release(SnapshotChunk* chunk) {
    std::unique_ptr<SnapshotChunk> owned(chunk);
    MutexLock lock(mu_);
    if (free_.size() < max_free_) free_.push_back(std::move(owned));
  }

  Mutex mu_;
  std::vector<std::unique_ptr<SnapshotChunk>> free_ GUARDED_BY(mu_);
  size_t max_free_ GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> allocated_{0};
};

/// The train plane's scoped hold on the drain lock (LockForTrainPlane).
class SCOPED_CAPABILITY ExplorationEngine::TrainPlaneLock {
 public:
  explicit TrainPlaneLock(const ExplorationEngine* engine)
      ACQUIRE(engine->drain_mu_)
      : engine_(engine) { engine_->LockForTrainPlane(); }
  ~TrainPlaneLock() RELEASE() { engine_->drain_mu_.Unlock(); }

  TrainPlaneLock(const TrainPlaneLock&) = delete;
  TrainPlaneLock& operator=(const TrainPlaneLock&) = delete;

 private:
  const ExplorationEngine* engine_;
};

void ExplorationEngine::LockForTrainPlane() const {
  train_waiting_.store(true, std::memory_order_relaxed);
  drain_mu_.Lock();
  train_waiting_.store(false, std::memory_order_relaxed);
}

ExplorationEngine::ExplorationEngine(WorkloadMatrix matrix,
                                     Predictor* predictor,
                                     const EngineOptions& options)
    : options_(options),
      predictor_(predictor),
      matrix_(std::move(matrix)),
      chunk_pool_(std::make_shared<ChunkPool>()),
      fit_matrix_(0, matrix_.num_hints()),
      row_servings_(static_cast<size_t>(matrix_.num_queries()), 0),
      slots_(RoundUpPow2(options.queue_capacity)) {
  queue_mask_ = slots_.size() - 1;
  LIMEQO_CHECK(options.online.refresh_every > 0);
  LIMEQO_CHECK(options.online.publish_every > 0);
  LIMEQO_CHECK(options.checkpoint_every >= 0);
  for (size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].turn.store(i, std::memory_order_relaxed);
  }
  Publish();
}

ExplorationEngine::~ExplorationEngine() {
  if (training_) StopTraining();
}

uint64_t ExplorationEngine::snapshot_chunks_allocated() const {
  return chunk_pool_->allocated();
}

void ExplorationEngine::ConfigureServing(
    const OnlineExplorationOptions& online) {
  LIMEQO_CHECK(online.refresh_every > 0);
  LIMEQO_CHECK(online.publish_every > 0);
  TrainPlaneLock lock(this);
  options_.online = online;
}

void ExplorationEngine::SetPredictor(Predictor* predictor) {
  TrainPlaneLock lock(this);
  if (predictor == predictor_) return;
  predictor_ = predictor;
  factors_.clear();
  predictions_.reset();
  updates_since_refresh_ = 0;
}

void ExplorationEngine::Report(const ServingObservation& obs) {
  Slot& slot = slots_[obs.seq & queue_mask_];
  // Wait for the drain to free the slot from the previous lap; only
  // possible when producers run a full queue length ahead. A lapped
  // producer drains the lap itself when it can (the combining drain).
  while (slot.turn.load(std::memory_order_acquire) != obs.seq) {
    if (!TryCombine()) std::this_thread::yield();
  }
  slot.obs = obs;
  slot.turn.store(obs.seq + 1, std::memory_order_release);
}

bool ExplorationEngine::TryCombine() {
  if (!combining_.load(std::memory_order_relaxed) ||
      train_waiting_.load(std::memory_order_relaxed)) {
    return false;
  }
  if (!drain_mu_.TryLock()) return false;
  // The same publish / drain-one-lap / publish order as a train step, so
  // the publication lag stays below queue_capacity() + publish_every at
  // every drain and the free-running staleness bound holds whoever drains.
  PublishIfDue(/*force=*/false);
  const size_t drained = DrainLocked(slots_.size());
  if (drained > 0) step_.has_complete = true;
  PublishIfDue(/*force=*/false);
  drain_mu_.Unlock();
  if (drained == 0) return false;
  combined_drains_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

size_t ExplorationEngine::Drain(size_t max_observations) {
  TrainPlaneLock lock(this);
  return DrainLocked(max_observations);
}

size_t ExplorationEngine::DrainLocked(size_t max_observations) {
  uint64_t head = drained_seq_.load(std::memory_order_relaxed);
  size_t applied = 0;
  while (applied < max_observations) {
    Slot& slot = slots_[head & queue_mask_];
    if (slot.turn.load(std::memory_order_acquire) != head + 1) break;
    ApplyObservation(slot.obs);
    slot.turn.store(head + slots_.size(), std::memory_order_release);
    ++head;
    ++applied;
  }
  drained_seq_.store(head, std::memory_order_relaxed);
  CountUnpublished(applied);
  return applied;
}

void ExplorationEngine::ApplyObservation(const ServingObservation& obs) {
  const CellState before = matrix_.state(obs.query, obs.hint);
  matrix_.Observe(obs.query, obs.hint, obs.latency);
  FoldCell(obs.query, obs.hint, before);
  ++updates_since_refresh_;
  row_servings_[obs.query] += 1;
  if (obs.exploratory) {
    explorations_.store(explorations_.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
  }
  if (obs.regret_delta > 0.0) {
    regret_spent_.store(
        regret_spent_.load(std::memory_order_relaxed) + obs.regret_delta,
        std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Snapshot chunks
// ---------------------------------------------------------------------------

SnapshotChunk& ExplorationEngine::WritableChunk(int query) {
  const size_t c = static_cast<size_t>(query) >> SnapshotChunk::kRowsLog2;
  if (chunk_shared_[c]) {
    // Copy-on-write: a published snapshot holds this chunk, so the write
    // goes to a recycled buffer and the snapshot keeps the old one.
    std::shared_ptr<SnapshotChunk> copy =
        ChunkPool::Acquire(chunk_pool_, matrix_.num_hints());
    *copy = *chunks_[c];
    chunks_[c] = std::move(copy);
    chunk_shared_[c] = 0;
  }
  return *chunks_[c];
}

void ExplorationEngine::ScanVerified(SnapshotChunk& chunk, int row,
                                     int query) {
  // The OnlineOptimizer rule, delegated to the one implementation so the
  // snapshot path and every other OnlineOptimizer reader (the driver's
  // no-regression check among them) can never drift apart.
  const int best =
      OnlineOptimizer(&matrix_).ChooseHint(query, &runner_up_[query]);
  chunk.verified_best[row] = best;
  chunk.verified_latency[row] =
      matrix_.row_states(query)[best] == CellState::kComplete
          ? matrix_.row_values(query)[best]
          : std::numeric_limits<double>::infinity();
}

void ExplorationEngine::ScanModel(SnapshotChunk& chunk, int row,
                                  int query) const {
  const int k = matrix_.num_hints();
  const HintScan scan = ScanHintRow(
      &chunk.states[static_cast<size_t>(row) * k],
      chunk_preds_ != nullptr
          ? chunk_preds_->data() + static_cast<size_t>(query) * k
          : nullptr,
      k);
  chunk.best_unobserved[row] = scan.best_unobserved;
  chunk.best_unobserved_pred[row] = scan.best_unobserved_pred;
  chunk.unobserved_count[row] = scan.unobserved_count;
}

void ExplorationEngine::RebuildChunks(
    std::shared_ptr<const linalg::Matrix> preds) {
  const int n = matrix_.num_queries();
  const int k = matrix_.num_hints();
  const size_t count = (static_cast<size_t>(n) + SnapshotChunk::kRows - 1) >>
                       SnapshotChunk::kRowsLog2;
  chunk_preds_ = std::move(preds);
  runner_up_.resize(static_cast<size_t>(n));
  // Drop the old set first: chunks no snapshot holds go straight back to
  // the pool and are reused by this very rebuild.
  chunks_.clear();
  chunk_pool_->SetMaxFree(count);
  chunks_.reserve(count);
  for (size_t c = 0; c < count; ++c) {
    std::shared_ptr<SnapshotChunk> chunk = ChunkPool::Acquire(chunk_pool_, k);
    const int first = static_cast<int>(c << SnapshotChunk::kRowsLog2);
    const int rows = std::min(SnapshotChunk::kRows, n - first);
    for (int r = 0; r < rows; ++r) {
      const CellState* states = matrix_.row_states(first + r);
      std::copy(states, states + k,
                &chunk->states[static_cast<size_t>(r) * k]);
      ScanVerified(*chunk, r, first + r);
      ScanModel(*chunk, r, first + r);
    }
    chunks_.push_back(std::move(chunk));
  }
  chunk_shared_.assign(count, 0);
  chunks_stale_ = false;
}

void ExplorationEngine::RescanModels(
    std::shared_ptr<const linalg::Matrix> preds) {
  const int n = matrix_.num_queries();
  chunk_preds_ = std::move(preds);
  for (int first = 0; first < n; first += SnapshotChunk::kRows) {
    SnapshotChunk& chunk = WritableChunk(first);
    const int rows = std::min(SnapshotChunk::kRows, n - first);
    for (int r = 0; r < rows; ++r) ScanModel(chunk, r, first + r);
  }
}

void ExplorationEngine::FoldCell(int query, int hint, CellState before) {
  // A pending rebuild recomputes every row anyway (and the chunk geometry
  // may no longer match the matrix).
  if (chunks_stale_) return;
  SnapshotChunk& chunk = WritableChunk(query);
  const int r = query & (SnapshotChunk::kRows - 1);
  const int k = matrix_.num_hints();
  const CellState* states = matrix_.row_states(query);
  const CellState after = states[hint];
  chunk.states[static_cast<size_t>(r) * k + hint] = after;

  // Model precompute. Observing a cell only removes it from the
  // unobserved set: the predicted-best unobserved hint survives unless it
  // was that cell. A cell turning unobserved (Clear) may beat it.
  if (before == CellState::kUnobserved && after != CellState::kUnobserved) {
    --chunk.unobserved_count[r];
    if (hint == chunk.best_unobserved[r]) ScanModel(chunk, r, query);
  } else if (before != CellState::kUnobserved &&
             after == CellState::kUnobserved) {
    ScanModel(chunk, r, query);
  }

  // Verified best: the lowest-index argmin over complete cells, served
  // only against a complete default (OnlineOptimizer::ChooseHint).
  if (hint == 0 && (before == CellState::kComplete) !=
                       (after == CellState::kComplete)) {
    ScanVerified(chunk, r, query);  // the default became (in)complete
    return;
  }
  if (states[0] != CellState::kComplete) return;  // best stays 0 at +inf
  int& best = chunk.verified_best[r];
  double& best_latency = chunk.verified_latency[r];
  // A lower bound on every other complete cell's latency. A cell leaving
  // the complete set only raises the true runner-up, so the bound holds.
  double& runner_up = runner_up_[query];
  if (after != CellState::kComplete) {
    if (hint == best) ScanVerified(chunk, r, query);
    return;
  }
  const double latency = matrix_.row_values(query)[hint];
  if (hint == best) {
    // Equal or faster, the best is still the lowest-index argmin. Slower
    // but strictly under the runner-up bound, it still beats every other
    // cell; only at or past the bound may another cell win.
    if (latency > best_latency && !(latency < runner_up)) {
      ScanVerified(chunk, r, query);
    } else {
      best_latency = latency;
    }
  } else if (latency < best_latency ||
             (latency == best_latency && hint < best)) {
    runner_up = std::min(runner_up, best_latency);
    best = hint;
    best_latency = latency;
  } else {
    runner_up = std::min(runner_up, latency);
  }
}

// ---------------------------------------------------------------------------
// Refits and publication
// ---------------------------------------------------------------------------

StatusOr<linalg::Matrix> ExplorationEngine::FitReleasingDrainLock(
    uint64_t* fit_ns) {
  const auto fit = [this, fit_ns](const WorkloadMatrix& w) {
    const auto start = std::chrono::steady_clock::now();
    StatusOr<linalg::Matrix> prediction = predictor_->PredictFrom(w, &factors_);
    *fit_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    return prediction;
  };
  // Combining producers are the only writers of matrix_ outside the train
  // plane (see the class comment). Without them nothing can write it
  // during the fit, so the model fits matrix_ itself and an engine that
  // never free-runs allocates no copy.
  if (!combining_.load(std::memory_order_relaxed)) return fit(matrix_);
  // The fit reads a train-owned copy of the drain front, so producers may
  // drain into matrix_ while the model fits. The copy is kept across
  // refits: once it has grown to the matrix's size, assigning it reuses
  // its buffers.
  fit_matrix_ = matrix_;
  drain_mu_.Unlock();
  StatusOr<linalg::Matrix> prediction = fit(fit_matrix_);
  LockForTrainPlane();
  return prediction;
}

bool ExplorationEngine::TryRefit() {
  if (predictor_ == nullptr) return false;
  const int updates_before = updates_since_refresh_;
  uint64_t fit_ns = 0;
  StatusOr<linalg::Matrix> prediction = FitReleasingDrainLock(&fit_ns);
  refit_nanos_.fetch_add(fit_ns, std::memory_order_relaxed);
  if (!prediction.ok()) return false;
  refits_completed_.fetch_add(1, std::memory_order_relaxed);
  predictions_ = std::make_shared<const linalg::Matrix>(
      std::move(prediction).value());
  // The fit saw the matrix as of its copy; observations drained while it
  // ran are updates it has not absorbed yet. (The next Publish sees new
  // predictions and rescans every row's model half against them.)
  updates_since_refresh_ -= updates_before;
  return true;
}

bool ExplorationEngine::RefreshPredictions(bool force) {
  TrainPlaneLock lock(this);
  return RefreshLocked(force);
}

bool ExplorationEngine::RefreshLocked(bool force) {
  const size_t n = static_cast<size_t>(matrix_.num_queries());
  const size_t k = static_cast<size_t>(matrix_.num_hints());
  // Shape staleness covers both dimensions: a stale prediction matrix with
  // the right row count but a different hint-column count would be indexed
  // out of bounds by ChooseHint.
  const bool shape_stale =
      predictions_ != nullptr &&
      (predictions_->rows() != n || predictions_->cols() != k);
  const bool stale = predictions_ == nullptr || shape_stale ||
                     updates_since_refresh_ >= options_.online.refresh_every;
  if (force || stale) TryRefit();
  return predictions_ != nullptr && predictions_->rows() == n &&
         predictions_->cols() == k;
}

void ExplorationEngine::Publish() {
  TrainPlaneLock lock(this);
  PublishLocked();
}

void ExplorationEngine::PublishLocked() {
  const int n = matrix_.num_queries();
  const int k = matrix_.num_hints();
  // Whether this publication serves predictions — and therefore what the
  // per-row model scans must have been computed against.
  const bool serve_predictions =
      predictions_ != nullptr &&
      predictions_->rows() == static_cast<size_t>(n) &&
      predictions_->cols() == static_cast<size_t>(k);
  std::shared_ptr<const linalg::Matrix> preds =
      serve_predictions ? predictions_ : nullptr;
  // Between shape changes the fold keeps states, verified bests and the
  // runner-up bounds current, so new predictions rescan only the model
  // half of each row.
  if (chunks_stale_) {
    RebuildChunks(preds);
  } else if (chunk_preds_ != preds) {
    RescanModels(preds);
  }

  auto snap = std::shared_ptr<ServingSnapshot>(new ServingSnapshot());
  snap->chunks_.assign(chunks_.begin(), chunks_.end());
  // Every chunk is now held by a snapshot: the next write to any of them
  // copies first.
  std::fill(chunk_shared_.begin(), chunk_shared_.end(), uint8_t{1});
  snap->published_seq_ = drained_seq_.load(std::memory_order_relaxed);
  snap->num_queries_ = n;
  snap->num_hints_ = k;
  snap->have_predictions_ = serve_predictions;
  snap->frozen_regret_spent_ = regret_spent_.load(std::memory_order_relaxed);
  snap->options_ = options_.online;
  snap->gate_seed_ = MixSeed(options_.online.seed, kGateStreamTag);
  snap->pick_seed_ = MixSeed(options_.online.seed, kPickStreamTag);
  unpublished_updates_.store(0, std::memory_order_relaxed);
  {
    MutexLock lock(snapshot_mu_);
    // Version stamp and published counter come from one fetch_add, so the
    // value inside the snapshot can never drift from the counter. A reader
    // probing the new version before the swap lands serializes behind
    // snapshot_mu_ in snapshot() and gets the new pointer.
    snap->version_ =
        snapshot_version_.fetch_add(1, std::memory_order_release) + 1;
    snapshot_ = std::shared_ptr<const ServingSnapshot>(std::move(snap));
  }
}

size_t ExplorationEngine::SyncEpoch() {
  TrainPlaneLock lock(this);
  const size_t drained = DrainLocked(kDrainAll);
  RefreshLocked(/*force=*/false);
  PublishLocked();
  return drained;
}

void ExplorationEngine::StartTraining() {
  LIMEQO_CHECK(!training_);
  stop_training_.store(false, std::memory_order_relaxed);
  training_ = true;
  train_thread_ = std::thread([this] { TrainLoop(); });
}

void ExplorationEngine::StopTraining() {
  LIMEQO_CHECK(training_);
  stop_training_.store(true, std::memory_order_relaxed);
  train_thread_.join();
  training_ = false;
  FinishTrainSteps();
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

EngineCheckpoint ExplorationEngine::MakeCheckpoint() const {
  TrainPlaneLock lock(this);
  EngineCheckpoint c;
  c.matrix = matrix_;
  c.factors = factors_;
  // Shape-stale predictions (the matrix grew since the last refit) are
  // dropped rather than persisted: Publish refuses to serve them anyway,
  // and the checkpoint format requires predictions to match the matrix.
  if (predictions_ != nullptr &&
      predictions_->rows() == static_cast<size_t>(matrix_.num_queries()) &&
      predictions_->cols() == static_cast<size_t>(matrix_.num_hints())) {
    c.predictions = *predictions_;
    c.have_predictions = true;
  }
  c.regret_spent = regret_spent_.load(std::memory_order_relaxed);
  c.explorations = explorations_.load(std::memory_order_relaxed);
  c.serving_seq = drained_seq_.load(std::memory_order_relaxed);
  c.updates_since_refresh = updates_since_refresh_;
  c.snapshot_version = snapshot_version_.load(std::memory_order_relaxed);
  return c;
}

void ExplorationEngine::RestoreFromCheckpoint(EngineCheckpoint c) {
  LIMEQO_CHECK(!training_);
  TrainPlaneLock lock(this);
  matrix_ = std::move(c.matrix);
  factors_ = std::move(c.factors);
  if (c.have_predictions) {
    predictions_ =
        std::make_shared<const linalg::Matrix>(std::move(c.predictions));
  } else {
    predictions_.reset();
  }
  updates_since_refresh_ = c.updates_since_refresh;
  regret_spent_.store(c.regret_spent, std::memory_order_relaxed);
  explorations_.store(c.explorations, std::memory_order_relaxed);
  // The checkpoint carries only the engine-total ledgers; per-row servings
  // are a tier-level concern (the tier manifest stores them and replays
  // them via RestoreRowServings after this returns).
  row_servings_.assign(static_cast<size_t>(matrix_.num_queries()), 0);
  // Rewind the serving plane to the checkpointed sequence: both counters
  // restart at the durable prefix, and the ring's turn stamps are rebuilt
  // so the slot for sequence s expects exactly s again (a slot whose
  // in-lap position precedes the head belongs to the *next* lap).
  const uint64_t head = c.serving_seq;
  next_seq_.store(head, std::memory_order_relaxed);
  drained_seq_.store(head, std::memory_order_relaxed);
  const uint64_t lap = head & ~static_cast<uint64_t>(queue_mask_);
  // `stamp`, not `turn`: the determinism linter tracks atomic identifiers
  // by name, and reusing the Slot::turn field's name for a plain local
  // would read as an unordered atomic increment.
  for (size_t i = 0; i < slots_.size(); ++i) {
    uint64_t stamp = lap + i;
    if (stamp < head) stamp += slots_.size();
    slots_[i].turn.store(stamp, std::memory_order_relaxed);
  }
  // The predictor may carry model state fitted on pre-crash traffic that
  // the checkpoint does not capture; reset it so the next refit is a pure
  // function of (matrix, factors) — the CompleteFrom contract.
  if (predictor_ != nullptr) predictor_->Reset();
  // The published version counter stays monotonic across the restart so
  // staleness probes never see it go backwards.
  if (c.snapshot_version >
      snapshot_version_.load(std::memory_order_relaxed)) {
    snapshot_version_.store(c.snapshot_version, std::memory_order_relaxed);
  }
  chunks_stale_ = true;
  PublishLocked();
}

Status ExplorationEngine::SaveCheckpoint() {
  if (options_.checkpoint_path.empty()) {
    return Status::FailedPrecondition(
        "no EngineOptions::checkpoint_path configured");
  }
  Status st =
      SaveEngineCheckpointToFile(MakeCheckpoint(), options_.checkpoint_path);
  if (st.ok()) checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
  return st;
}

// ---------------------------------------------------------------------------
// Train stepping
// ---------------------------------------------------------------------------

void ExplorationEngine::BeginTrainSteps() {
  TrainPlaneLock lock(this);
  step_ = TrainStepState{};
  step_.published_seen = drained_seq_.load(std::memory_order_relaxed);
  step_.checkpointed_seen = drained_seq_.load(std::memory_order_relaxed);
  // NumComplete is an O(n*k) scan — evaluate it once, then remember: every
  // drained observation is itself a complete observation, so the flag only
  // ever flips to true.
  step_.has_complete = matrix_.NumComplete() > 0;
  combining_.store(true, std::memory_order_relaxed);
}

bool ExplorationEngine::TrainStep() {
  bool progress = false;
  bool checkpoint_due = false;
  {
    TrainPlaneLock lock(this);
    // Drain batches are capped at one queue lap: under light load the
    // step publishes every publish_every drained observations (fresh
    // snapshots), and under saturation it amortizes one publication per
    // capacity-sized batch. Either way the publication lag behind the
    // drain front stays below queue_capacity() + publish_every — a
    // combining producer keeps the same publish / drain / publish order —
    // which (with the queue's back-pressure and serving threads claiming
    // indices in batches) gives free-running serving a hard staleness
    // bound of 2 * queue_capacity() + threads * batch + publish_every,
    // where batch is the per-thread claim size (16 in the free-running
    // loops): a thread may decide a whole claimed batch against the
    // snapshot it probed at the batch start, and the other threads'
    // claimed-but-unreported batches sit between that snapshot and the
    // newest index (tests/engine_test.cc pins the bound).
    const size_t drained = DrainLocked(slots_.size());
    if (drained > 0) step_.has_complete = true;
    const uint64_t seen = drained_seq_.load(std::memory_order_relaxed);
    // The refit_after_seq mark: the next refit may not start before the
    // drain front passes it — everything in flight when the previous
    // refit finished must land first. Under light load the mark is always
    // behind the front (refits run on the refresh_every cadence); under
    // saturation it amortizes one refit per backlog's worth of servings.
    // A slow model cannot stall serving either way: the drain lock is
    // released while the model fits, and lapped producers drain and
    // publish meanwhile.
    const bool due =
        predictor_ != nullptr && seen >= step_.refit_after_seq &&
        (updates_since_refresh_ >= options_.online.refresh_every ||
         (predictions_ == nullptr && step_.has_complete));
    bool refreshed = false;
    // A failing refit (no predictor, no usable observations, a plan-less
    // backend) must not retrigger until new observations arrive: without
    // the attempt marker the loop degenerates into a refit-and-publish
    // storm that pins a core and forces every serving thread through the
    // snapshot handoff on every serving.
    if (due && seen != step_.drained_at_last_attempt) {
      step_.drained_at_last_attempt = seen;
      refreshed = TryRefit();
      // Only a *completed* refit defers the next one behind the in-flight
      // backlog; a failed attempt may retry as soon as new observations
      // drain (drained_at_last_attempt already prevents failure storms).
      if (refreshed) {
        step_.refit_after_seq = next_seq_.load(std::memory_order_relaxed);
      }
    }
    // Publication is cadence-granular (publish_every drained observations
    // or a successful refit), not per-drain: a snapshot is an allocation
    // plus a version bump that pushes every serving thread through the
    // pointer handoff. The cadence reads the current drain front:
    // producers may have moved it past `seen` while the model fitted.
    const bool published = PublishIfDue(/*force=*/refreshed);
    // Checkpoints ride the same drain-front cadence as publications; the
    // state is captured under the lock below and written outside it.
    const uint64_t front = drained_seq_.load(std::memory_order_relaxed);
    const auto checkpoint_cadence =
        static_cast<uint64_t>(options_.checkpoint_every);
    if (checkpoint_cadence > 0 && !options_.checkpoint_path.empty() &&
        front - step_.checkpointed_seen >= checkpoint_cadence) {
      step_.checkpointed_seen = front;
      checkpoint_due = true;
    }
    progress = drained > 0 || refreshed || published || checkpoint_due;
  }
  if (checkpoint_due) {
    // A failed write (disk gone, path unwritable) is not fatal to the
    // loop: serving continues and checkpoints_written() stops advancing,
    // which is the observable signal operators alert on. The capture
    // retakes the lock, so it is the drain front of this moment — still
    // a consistent drained prefix.
    (void)SaveCheckpoint();
  }
  return progress;
}

bool ExplorationEngine::PublishIfDue(bool force) {
  const uint64_t front = drained_seq_.load(std::memory_order_relaxed);
  if (!force && front - step_.published_seen <
                    static_cast<uint64_t>(options_.online.publish_every)) {
    return false;
  }
  PublishLocked();
  step_.published_seen = front;
  return true;
}

void ExplorationEngine::FinishTrainSteps() {
  // No producer combines from here on: the shutdown drain below and every
  // later train-plane call run on the caller's thread alone.
  combining_.store(false, std::memory_order_relaxed);
  // Flush whatever the steps had not picked up and leave a current
  // snapshot.
  SyncEpoch();
  // A clean shutdown leaves a checkpoint at the final drain front, so a
  // restart resumes from exactly where serving stopped.
  if (options_.checkpoint_every > 0 && !options_.checkpoint_path.empty()) {
    (void)SaveCheckpoint();
  }
}

void ExplorationEngine::TrainLoop() {
  BeginTrainSteps();
  while (!stop_training_.load(std::memory_order_relaxed)) {
    // An idle step (nothing drained, nothing refreshed or published)
    // sleeps so an unloaded engine costs no CPU.
    if (!TrainStep()) {
      // lint:allow(sleep): idle train-plane backoff only — never on the
      // serving path, and trace-neutral: no serving decision depends on
      // when the train thread wakes.
      std::this_thread::sleep_for(kTrainIdleSleep);
    }
  }
}

// ---------------------------------------------------------------------------
// Direct train-plane entry points
// ---------------------------------------------------------------------------

void ExplorationEngine::Observe(int query, int hint, double latency) {
  TrainPlaneLock lock(this);
  const CellState before = matrix_.state(query, hint);
  matrix_.Observe(query, hint, latency);
  FoldCell(query, hint, before);
  ++updates_since_refresh_;
  CountUnpublished(1);
}

void ExplorationEngine::ObserveCensored(int query, int hint, double timeout) {
  TrainPlaneLock lock(this);
  const CellState before = matrix_.state(query, hint);
  matrix_.ObserveCensored(query, hint, timeout);
  FoldCell(query, hint, before);
  ++updates_since_refresh_;
  CountUnpublished(1);
}

void ExplorationEngine::Clear(int query, int hint) {
  TrainPlaneLock lock(this);
  const CellState before = matrix_.state(query, hint);
  matrix_.Clear(query, hint);
  FoldCell(query, hint, before);
  ++updates_since_refresh_;
  CountUnpublished(1);
}

int ExplorationEngine::AppendQueries(int count) {
  TrainPlaneLock lock(this);
  const int first = matrix_.AppendQueries(count);
  row_servings_.resize(static_cast<size_t>(matrix_.num_queries()), 0);
  chunks_stale_ = true;
  ++updates_since_refresh_;
  CountUnpublished(1);
  return first;
}

void ExplorationEngine::ResetMatrix(WorkloadMatrix matrix) {
  TrainPlaneLock lock(this);
  matrix_ = std::move(matrix);
  row_servings_.assign(static_cast<size_t>(matrix_.num_queries()), 0);
  chunks_stale_ = true;
  InvalidateModelLocked();
  PublishLocked();
}

void ExplorationEngine::RestoreRowServings(int query, uint64_t servings) {
  LIMEQO_CHECK(!training_);
  TrainPlaneLock lock(this);
  LIMEQO_CHECK(query >= 0 && query < matrix_.num_queries());
  row_servings_[query] = servings;
}

void ExplorationEngine::InvalidateModel() {
  TrainPlaneLock lock(this);
  InvalidateModelLocked();
}

void ExplorationEngine::InvalidateModelLocked() {
  factors_.clear();
  predictions_.reset();
  updates_since_refresh_ = 0;
  if (predictor_ != nullptr) predictor_->Reset();
}

}  // namespace limeqo::core
