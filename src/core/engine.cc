#include "core/engine.h"

#include "core/online.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

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
  if (!delta_queries_.empty()) {
    const auto it = std::lower_bound(delta_queries_.begin(),
                                     delta_queries_.end(), query);
    if (it != delta_queries_.end() && *it == query) {
      const size_t slot = static_cast<size_t>(it - delta_queries_.begin());
      return {delta_verified_best_[slot],
              delta_verified_latency_[slot],
              &delta_states_[slot * static_cast<size_t>(num_hints_)],
              delta_best_unobserved_[slot],
              delta_best_unobserved_pred_[slot],
              delta_unobserved_count_[slot]};
    }
  }
  return {base_->verified_best[query],
          base_->verified_latency[query],
          &base_->states[static_cast<size_t>(query) * num_hints_],
          base_->best_unobserved[query],
          base_->best_unobserved_pred[query],
          base_->unobserved_count[query]};
}

int ServingSnapshot::VerifiedHint(int query) const {
  return Row(query).verified_best;
}

double ServingSnapshot::VerifiedLatency(int query) const {
  return Row(query).verified_latency;
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
      // The model scan ran at publication time (ScanHintRow per dirty row);
      // serving just reads the row precompute.
      [&] {
        HintScan scan;
        scan.have_predictions = have_predictions_;
        scan.best_unobserved = row.best_unobserved;
        scan.best_unobserved_pred = row.best_unobserved_pred;
        scan.unobserved_count = row.unobserved_count;
        return scan;
      },
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
  const bool flat = delta_queries_.empty();
  if (frozen && flat) {
    // Exploration is off snapshot-wide and there is no overlay: the batch
    // is a pure gather from the base verified-best array.
    const int* verified = base_->verified_best.data();
    for (size_t i = 0; i < count; ++i) {
      LIMEQO_CHECK(queries[i] >= 0 && queries[i] < num_queries_);
      out[i] = verified[queries[i]];
    }
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    const uint64_t s = first_seq + i;
    const int query = queries[i];
    if (frozen) {
      out[i] = Row(query).verified_best;
      continue;
    }
    // Gate first: on the (1 - epsilon) fast path the decision needs only
    // the verified-best field, and with an empty overlay that is one array
    // read — no row resolution, no full DecisionInputs. The gate draw is
    // the same per-index stream the scalar path uses, so batched and
    // scalar decisions are identical for every (query, index) pair.
    if (!(FirstUniform(MixSeed(gate_seed_, s)) < opt.epsilon)) {
      if (flat) {
        LIMEQO_CHECK(query >= 0 && query < num_queries_);
        out[i] = base_->verified_best[query];
      } else {
        out[i] = Row(query).verified_best;
      }
      continue;
    }
    // Exploration-eligible serving: run the full kernel. Re-drawing the
    // gate inside ChooseHint returns the same value (the stream is a pure
    // function of (seed, s)), so this stays decision-identical to the
    // scalar path at a cost paid only on the epsilon fraction of servings.
    out[i] = ChooseHint(query, s);
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

ExplorationEngine::ExplorationEngine(WorkloadMatrix matrix,
                                     Predictor* predictor,
                                     const EngineOptions& options)
    : options_(options),
      matrix_(std::move(matrix)),
      predictor_(predictor),
      row_regret_(static_cast<size_t>(matrix_.num_queries()), 0.0),
      row_explorations_(static_cast<size_t>(matrix_.num_queries()), 0),
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

void ExplorationEngine::ConfigureServing(
    const OnlineExplorationOptions& online) {
  LIMEQO_CHECK(online.refresh_every > 0);
  LIMEQO_CHECK(online.publish_every > 0);
  options_.online = online;
}

void ExplorationEngine::Report(const ServingObservation& obs) {
  Slot& slot = slots_[obs.seq & queue_mask_];
  // Wait for the drain to free the slot from the previous lap; only
  // possible when producers run a full queue length ahead.
  while (slot.turn.load(std::memory_order_acquire) != obs.seq) {
    std::this_thread::yield();
  }
  slot.obs = obs;
  slot.turn.store(obs.seq + 1, std::memory_order_release);
}

size_t ExplorationEngine::Drain(size_t max_observations) {
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
  return applied;
}

void ExplorationEngine::MarkRowDirty(int query) {
  // Irrelevant while a full rebuild is pending: the rebuild resets the
  // tracking wholesale.
  if (snapshot_base_stale_) return;
  if (dirty_flags_[query]) return;
  dirty_flags_[query] = 1;
  dirty_rows_.push_back(query);
}

void ExplorationEngine::InvalidateSnapshotBase() {
  snapshot_base_stale_ = true;
  for (const int q : dirty_rows_) dirty_flags_[q] = 0;
  dirty_rows_.clear();
}

void ExplorationEngine::ApplyObservation(const ServingObservation& obs) {
  matrix_.Observe(obs.query, obs.hint, obs.latency);
  MarkRowDirty(obs.query);
  ++updates_since_refresh_;
  // Serving traffic per row, counted on the drain path (train plane), is
  // the load signal RebalanceHotShards weighs rows by.
  row_servings_[obs.query] += 1;
  if (obs.exploratory) {
    explorations_.store(explorations_.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
    row_explorations_[obs.query] += 1;
  }
  if (obs.regret_delta > 0.0) {
    regret_spent_.store(
        regret_spent_.load(std::memory_order_relaxed) + obs.regret_delta,
        std::memory_order_relaxed);
    row_regret_[obs.query] += obs.regret_delta;
  }
}

bool ExplorationEngine::TryRefit() {
  if (predictor_ == nullptr) return false;
  const int updates_before = updates_since_refresh_;
  const uint64_t yield_before =
      refit_yield_nanos_.load(std::memory_order_relaxed);
  const auto refit_start = std::chrono::steady_clock::now();
  StatusOr<linalg::Matrix> prediction = predictor_->PredictFrom(
      matrix_, options_.warm_start ? &factors_ : nullptr);
  const auto elapsed = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - refit_start)
          .count());
  // Fitting time only: what the train plane spent inside refit yields
  // (TrainStep's drain and publish) is counted in refit_yield_nanos.
  refit_nanos_.fetch_add(
      elapsed - (refit_yield_nanos_.load(std::memory_order_relaxed) -
                 yield_before),
      std::memory_order_relaxed);
  if (!prediction.ok()) return false;
  refits_completed_.fetch_add(1, std::memory_order_relaxed);
  predictions_ = std::make_shared<const linalg::Matrix>(
      std::move(prediction).value());
  // The fit saw the matrix as of its start; observations drained by its
  // yields are updates it has not absorbed yet.
  updates_since_refresh_ -= updates_before;
  // Refits happen on the compaction cadence (refresh_every), so they are
  // the natural point to fold the delta overlay back into a fresh base.
  InvalidateSnapshotBase();
  return true;
}

bool ExplorationEngine::RefreshPredictions(bool force) {
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
  const int n = matrix_.num_queries();
  const int k = matrix_.num_hints();
  // Whether this publication serves predictions — and therefore whether
  // the per-row precompute below is scanned against them. Predictions only
  // change on a successful refit or a checkpoint restore, and both
  // invalidate the base, so rows already in the base were scanned against
  // exactly these predictions (the precompute invariant in engine.h).
  const bool serve_predictions =
      predictions_ != nullptr &&
      predictions_->rows() == static_cast<size_t>(n) &&
      predictions_->cols() == static_cast<size_t>(k);
  const double* pred_rows = serve_predictions ? predictions_->data() : nullptr;
  // The verified-best table is the OnlineOptimizer rule, precomputed per
  // row — delegated to the one implementation so the snapshot path and
  // the synchronous path can never drift apart. The model-scan precompute
  // (ScanHintRow) rides along: one pass per dirty row at publication makes
  // the serve-time model and fallback steps O(1).
  const OnlineOptimizer rule(&matrix_);
  const auto fill_row = [&](int q, int* verified_best,
                            double* verified_latency, CellState* states,
                            int* best_unobserved, double* best_unobserved_pred,
                            int* unobserved_count) {
    const int best = rule.ChooseHint(q);
    const CellState* row_states = matrix_.row_states(q);
    *verified_best = best;
    *verified_latency = row_states[best] == CellState::kComplete
                            ? matrix_.row_values(q)[best]
                            : std::numeric_limits<double>::infinity();
    std::copy(row_states, row_states + k, states);
    const HintScan scan = ScanHintRow(
        states,
        pred_rows != nullptr ? pred_rows + static_cast<size_t>(q) * k
                             : nullptr,
        k);
    *best_unobserved = scan.best_unobserved;
    *best_unobserved_pred = scan.best_unobserved_pred;
    *unobserved_count = scan.unobserved_count;
  };

  auto snap = std::shared_ptr<ServingSnapshot>(new ServingSnapshot());
  // Delta publication only pays for the rows that changed; a stale base, a
  // disabled feature, or an overlay past a quarter of the rows forces the
  // full O(n*k) rebuild (which empties the overlay again).
  const bool full = !options_.delta_publication || snapshot_base_stale_ ||
                    base_tables_ == nullptr ||
                    dirty_rows_.size() * 4 >= static_cast<size_t>(n);
  if (full) {
    auto base = std::make_shared<ServingSnapshot::BaseTables>();
    base->verified_best.resize(n);
    base->verified_latency.resize(n);
    base->states.resize(static_cast<size_t>(n) * k);
    base->best_unobserved.resize(n);
    base->best_unobserved_pred.resize(n);
    base->unobserved_count.resize(n);
    for (int q = 0; q < n; ++q) {
      fill_row(q, &base->verified_best[q], &base->verified_latency[q],
               &base->states[static_cast<size_t>(q) * k],
               &base->best_unobserved[q], &base->best_unobserved_pred[q],
               &base->unobserved_count[q]);
    }
    base_tables_ = std::move(base);
    dirty_flags_.assign(static_cast<size_t>(n), 0);
    dirty_rows_.clear();
    snapshot_base_stale_ = false;
  } else {
    LIMEQO_CHECK(base_tables_->verified_best.size() ==
                 static_cast<size_t>(n));
    snap->delta_queries_.assign(dirty_rows_.begin(), dirty_rows_.end());
    std::sort(snap->delta_queries_.begin(), snap->delta_queries_.end());
    const size_t rows = snap->delta_queries_.size();
    snap->delta_verified_best_.resize(rows);
    snap->delta_verified_latency_.resize(rows);
    snap->delta_states_.resize(rows * static_cast<size_t>(k));
    snap->delta_best_unobserved_.resize(rows);
    snap->delta_best_unobserved_pred_.resize(rows);
    snap->delta_unobserved_count_.resize(rows);
    for (size_t i = 0; i < rows; ++i) {
      fill_row(snap->delta_queries_[i], &snap->delta_verified_best_[i],
               &snap->delta_verified_latency_[i],
               &snap->delta_states_[i * static_cast<size_t>(k)],
               &snap->delta_best_unobserved_[i],
               &snap->delta_best_unobserved_pred_[i],
               &snap->delta_unobserved_count_[i]);
    }
  }
  snap->base_ = base_tables_;
  snap->published_seq_ = drained_seq_.load(std::memory_order_relaxed);
  snap->num_queries_ = n;
  snap->num_hints_ = k;
  snap->have_predictions_ = serve_predictions;
  if (snap->have_predictions_) snap->predictions_ = predictions_;
  snap->frozen_regret_spent_ = regret_spent_.load(std::memory_order_relaxed);
  snap->options_ = options_.online;
  snap->gate_seed_ = MixSeed(options_.online.seed, kGateStreamTag);
  snap->pick_seed_ = MixSeed(options_.online.seed, kPickStreamTag);
  {
    MutexLock lock(snapshot_mu_);
    // Version stamp and published counter come from one fetch_add, so the
    // value inside the snapshot can never drift from the counter (the old
    // split read-stamp-swap-bump let a reader observe a snapshot whose
    // version was ahead of snapshot_version()). A reader probing the new
    // version before the swap lands serializes behind snapshot_mu_ in
    // snapshot() and gets the new pointer.
    snap->version_ =
        snapshot_version_.fetch_add(1, std::memory_order_release) + 1;
    snapshot_ = std::shared_ptr<const ServingSnapshot>(std::move(snap));
  }
}

size_t ExplorationEngine::SyncEpoch() {
  const size_t drained = Drain();
  RefreshPredictions();
  Publish();
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

EngineCheckpoint ExplorationEngine::MakeCheckpoint() const {
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
  // The checkpoint carries only the engine-total ledgers; the per-row
  // split is a tier-level concern (the tier manifest stores it and
  // replays it via RestoreRowLedgerSlice after this returns).
  row_regret_.assign(static_cast<size_t>(matrix_.num_queries()), 0.0);
  row_explorations_.assign(static_cast<size_t>(matrix_.num_queries()), 0);
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
  InvalidateSnapshotBase();
  Publish();
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

void ExplorationEngine::BeginTrainSteps() {
  step_ = TrainStepState{};
  step_.published_seen = drained_seq_.load(std::memory_order_relaxed);
  step_.checkpointed_seen = drained_seq_.load(std::memory_order_relaxed);
  // NumComplete is an O(n*k) scan — evaluate it once, then remember: every
  // drained observation is itself a complete observation, so the flag only
  // ever flips to true.
  step_.has_complete = matrix_.NumComplete() > 0;
}

bool ExplorationEngine::TrainStep() {
  // Drain batches are capped at one queue lap: under light load the step
  // publishes every publish_every drained observations (fresh snapshots),
  // and under saturation it amortizes one publication per capacity-sized
  // batch instead of thrashing the serving threads with publication work.
  // Either way the publication lag behind the drain front stays below
  // queue_capacity() + publish_every, which (with the queue's
  // back-pressure and serving threads claiming indices in batches) gives
  // free-running serving a hard staleness bound of
  // 2 * queue_capacity() + threads * batch + publish_every, where batch
  // is the per-thread claim size (16 in the driver's free-running loops):
  // a thread may decide a whole claimed batch against the snapshot it
  // probed at the batch start, and the other threads'
  // claimed-but-unreported batches sit between that snapshot and the
  // newest index (tests/engine_test.cc pins the bound at the
  // publication-boundary wrap case).
  const size_t drained = Drain(slots_.size());
  if (drained > 0) step_.has_complete = true;
  const uint64_t seen = drained_seq_.load(std::memory_order_relaxed);
  // The refit_after_seq mark: the next refit may not start before the
  // drain front passes it — everything in flight when the previous refit
  // finished must land first. Under light load the mark is always behind
  // the front (refits run on the refresh_every cadence); under saturation
  // it amortizes one refit per queue-capacity's worth of servings. A slow
  // model cannot starve the drain-and-publish path either way: the refit
  // runs inside a ScopedRefitYield, and at each of the completer's yield
  // points the step keeps draining and publishing (RefitYield), so the
  // serving plane keeps its throughput while the model refreshes as fast
  // as it can — the Bao-style advisor-loop behaviour.
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
    {
      ScopedRefitYield yield([this] { RefitYield(); });
      refreshed = TryRefit();
    }
    // Only a *completed* refit defers the next one behind the in-flight
    // backlog; a failed attempt may retry as soon as new observations
    // drain (drained_at_last_attempt already prevents failure storms).
    if (refreshed) {
      step_.refit_after_seq = next_seq_.load(std::memory_order_relaxed);
    }
  }
  // Publication is cadence-granular (publish_every drained observations
  // or a successful refit), not per-drain: even a delta snapshot is an
  // allocation plus a version bump that pushes every serving thread
  // through the pointer handoff, so publishing after every single
  // observation would defeat the cached-snapshot fast path. Between
  // refits these publications are deltas — O(changed rows), not O(n*k).
  // The cadence reads the current drain front: the refit's yields may
  // have moved it past `seen`.
  const bool published = PublishIfDue(/*force=*/refreshed);
  // Checkpoints ride the same drain-front cadence as publications. The
  // write happens on the stepping thread (serialize + fsync + rename)
  // while the serving plane keeps running against the current snapshot;
  // the only coupling is back-pressure — producers more than a queue lap
  // ahead wait for the next drain — which the free-running staleness
  // bound already accounts for.
  bool checkpointed = false;
  const uint64_t front = drained_seq_.load(std::memory_order_relaxed);
  const auto checkpoint_cadence =
      static_cast<uint64_t>(options_.checkpoint_every);
  if (checkpoint_cadence > 0 && !options_.checkpoint_path.empty() &&
      front - step_.checkpointed_seen >= checkpoint_cadence) {
    // A failed write (disk gone, path unwritable) is not fatal to the
    // loop: serving continues and checkpoints_written() stops advancing,
    // which is the observable signal operators alert on.
    (void)SaveCheckpoint();
    step_.checkpointed_seen = front;
    checkpointed = true;
  }
  return drained > 0 || refreshed || published || checkpointed;
}

bool ExplorationEngine::PublishIfDue(bool force) {
  const uint64_t front = drained_seq_.load(std::memory_order_relaxed);
  if (!force && front - step_.published_seen <
                    static_cast<uint64_t>(options_.online.publish_every)) {
    return false;
  }
  Publish();
  step_.published_seen = front;
  return true;
}

void ExplorationEngine::RefitYield() {
  const auto start = std::chrono::steady_clock::now();
  // Publish before draining: the step's own drain may have left the
  // published snapshot up to a lap plus publish_every behind the front, and
  // draining another lap on top of that would let producers run two laps
  // past the snapshot that decides them. Publishing first keeps the
  // publication lag below queue_capacity() + publish_every at every drain,
  // so the free-running staleness bound holds straight through a refit.
  PublishIfDue();
  if (Drain(slots_.size()) > 0) step_.has_complete = true;
  PublishIfDue();
  refit_yield_nanos_.fetch_add(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count()),
      std::memory_order_relaxed);
}

void ExplorationEngine::FinishTrainSteps() {
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
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

void ExplorationEngine::Observe(int query, int hint, double latency) {
  matrix_.Observe(query, hint, latency);
  MarkRowDirty(query);
  ++updates_since_refresh_;
}

void ExplorationEngine::ObserveCensored(int query, int hint, double timeout) {
  matrix_.ObserveCensored(query, hint, timeout);
  MarkRowDirty(query);
  ++updates_since_refresh_;
}

void ExplorationEngine::Clear(int query, int hint) {
  matrix_.Clear(query, hint);
  MarkRowDirty(query);
  ++updates_since_refresh_;
}

int ExplorationEngine::AppendQueries(int count) {
  const int first = matrix_.AppendQueries(count);
  row_regret_.resize(static_cast<size_t>(matrix_.num_queries()), 0.0);
  row_explorations_.resize(static_cast<size_t>(matrix_.num_queries()), 0);
  row_servings_.resize(static_cast<size_t>(matrix_.num_queries()), 0);
  InvalidateSnapshotBase();
  ++updates_since_refresh_;
  return first;
}

void ExplorationEngine::ObserveServing(int query, int hint, double latency,
                                       bool exploratory, double regret_delta) {
  ServingObservation obs;
  obs.query = query;
  obs.hint = hint;
  obs.latency = latency;
  obs.exploratory = exploratory;
  obs.regret_delta = regret_delta;
  ApplyObservation(obs);
}

void ExplorationEngine::ResetMatrix(WorkloadMatrix matrix) {
  matrix_ = std::move(matrix);
  row_regret_.assign(static_cast<size_t>(matrix_.num_queries()), 0.0);
  row_explorations_.assign(static_cast<size_t>(matrix_.num_queries()), 0);
  row_servings_.assign(static_cast<size_t>(matrix_.num_queries()), 0);
  InvalidateSnapshotBase();
  InvalidateModel();
  Publish();
}

MigratedRow ExplorationEngine::ExtractRow(int query) const {
  LIMEQO_CHECK(!training_);
  LIMEQO_CHECK(query >= 0 && query < matrix_.num_queries());
  const int k = matrix_.num_hints();
  const CellState* states = matrix_.row_states(query);
  const double* values = matrix_.row_values(query);
  MigratedRow row;
  row.states.assign(states, states + k);
  row.values.assign(values, values + k);
  row.regret_spent = row_regret_[query];
  row.explorations = row_explorations_[query];
  row.servings = row_servings_[query];
  return row;
}

void ExplorationEngine::RemoveRow(int query) {
  LIMEQO_CHECK(!training_);
  LIMEQO_CHECK(query >= 0 && query < matrix_.num_queries());
  regret_spent_.store(
      regret_spent_.load(std::memory_order_relaxed) - row_regret_[query],
      std::memory_order_relaxed);
  explorations_.store(
      explorations_.load(std::memory_order_relaxed) -
          row_explorations_[query],
      std::memory_order_relaxed);
  row_regret_.erase(row_regret_.begin() + query);
  row_explorations_.erase(row_explorations_.begin() + query);
  row_servings_.erase(row_servings_.begin() + query);
  matrix_.RemoveQuery(query);
  InvalidateSnapshotBase();
  InvalidateModel();
  Publish();
}

int ExplorationEngine::AdoptRow(const MigratedRow& row) {
  LIMEQO_CHECK(!training_);
  LIMEQO_CHECK(static_cast<int>(row.states.size()) == matrix_.num_hints());
  const int local = matrix_.AppendQueries(1);
  for (int j = 0; j < matrix_.num_hints(); ++j) {
    switch (row.states[j]) {
      case CellState::kComplete:
        matrix_.Observe(local, j, row.values[j]);
        break;
      case CellState::kCensored:
        matrix_.ObserveCensored(local, j, row.values[j]);
        break;
      case CellState::kUnobserved:
        break;
    }
  }
  row_regret_.push_back(row.regret_spent);
  row_explorations_.push_back(row.explorations);
  row_servings_.push_back(row.servings);
  regret_spent_.store(
      regret_spent_.load(std::memory_order_relaxed) + row.regret_spent,
      std::memory_order_relaxed);
  explorations_.store(
      explorations_.load(std::memory_order_relaxed) + row.explorations,
      std::memory_order_relaxed);
  InvalidateSnapshotBase();
  InvalidateModel();
  Publish();
  return local;
}

void ExplorationEngine::RestoreRowLedgerSlice(int query, double regret,
                                              int explorations,
                                              uint64_t servings) {
  LIMEQO_CHECK(!training_);
  LIMEQO_CHECK(query >= 0 && query < matrix_.num_queries());
  row_regret_[query] = regret;
  row_explorations_[query] = explorations;
  row_servings_[query] = servings;
}

void ExplorationEngine::InvalidateModel() {
  factors_.clear();
  predictions_.reset();
  updates_since_refresh_ = 0;
  if (predictor_ != nullptr) predictor_->Reset();
}

}  // namespace limeqo::core
