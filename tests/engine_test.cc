// Tests for the two-plane exploration engine: snapshot publication,
// observation-queue ordering, serving-decision purity, warm-started
// refits, and the warm-start no-leak contract. The concurrent tests here
// are the ThreadSanitizer coverage target for the serving plane (the CI
// tsan job runs `ctest -R "engine_test|serving_plane_test"`).

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/als.h"
#include "core/engine.h"
#include "core/explorer.h"
#include "core/online.h"
#include "core/predictor.h"
#include "core/shard_router.h"
#include "proptest.h"
#include "scenarios/scenario.h"
#include "scenarios/synthetic_backend.h"

namespace limeqo::core {
namespace {

WorkloadMatrix MakeMatrix(int n, int k, double fill, uint64_t seed) {
  WorkloadMatrix w(n, k);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    w.Observe(i, 0, rng.Uniform(0.1, 10.0));
    for (int j = 1; j < k; ++j) {
      if (rng.Bernoulli(fill)) w.Observe(i, j, rng.Uniform(0.01, 10.0));
    }
  }
  return w;
}

// ---------------------------------------------------------------------------
// Snapshot publication.
// ---------------------------------------------------------------------------

TEST(EngineTest, ConstructionPublishesAnInitialSnapshot) {
  ExplorationEngine engine(MakeMatrix(10, 5, 0.3, 1));
  std::shared_ptr<const ServingSnapshot> snap = engine.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->num_queries(), 10);
  EXPECT_EQ(snap->num_hints(), 5);
  EXPECT_FALSE(snap->has_predictions());
  EXPECT_EQ(snap->regret_spent(), 0.0);
}

TEST(EngineTest, PublishSwapsVersionAndOldSnapshotsStayValid) {
  ExplorationEngine engine(MakeMatrix(6, 4, 0.0, 2));  // defaults only
  std::shared_ptr<const ServingSnapshot> old_snap = engine.snapshot();
  const uint64_t v0 = engine.snapshot_version();
  engine.Observe(3, 2, 0.123);
  engine.Publish();
  EXPECT_GT(engine.snapshot_version(), v0);
  std::shared_ptr<const ServingSnapshot> new_snap = engine.snapshot();
  EXPECT_NE(old_snap.get(), new_snap.get());
  EXPECT_GT(new_snap->version(), old_snap->version());
  // Immutability: the retained old snapshot still reports the pre-update
  // state while the new one sees the observation.
  EXPECT_EQ(old_snap->state(3, 2), CellState::kUnobserved);
  EXPECT_EQ(new_snap->state(3, 2), CellState::kComplete);
}

TEST(EngineTest, SnapshotVerifiedTableMatchesOnlineOptimizer) {
  WorkloadMatrix w = MakeMatrix(20, 6, 0.4, 3);
  OnlineOptimizer reference(&w);
  std::vector<int> expected(20);
  for (int q = 0; q < 20; ++q) expected[q] = reference.ChooseHint(q);
  ExplorationEngine engine(std::move(w));
  std::shared_ptr<const ServingSnapshot> snap = engine.snapshot();
  for (int q = 0; q < 20; ++q) {
    EXPECT_EQ(snap->VerifiedHint(q), expected[q]) << "query " << q;
    if (engine.matrix().IsComplete(q, expected[q])) {
      EXPECT_EQ(snap->VerifiedLatency(q),
                engine.matrix().observed(q, expected[q]));
    } else {
      EXPECT_TRUE(std::isinf(snap->VerifiedLatency(q)));
    }
  }
}

// ---------------------------------------------------------------------------
// Serving decisions are pure in (snapshot, serving index).
// ---------------------------------------------------------------------------

TEST(EngineTest, ChooseHintIsPureInServingIndex) {
  ExplorationEngine engine(MakeMatrix(12, 6, 0.3, 4));
  OnlineExplorationOptions online;
  online.epsilon = 0.5;
  online.min_predicted_ratio = 0.0;
  engine.ConfigureServing(online);
  engine.Publish();
  std::shared_ptr<const ServingSnapshot> snap = engine.snapshot();
  // Any evaluation order, any repetition: the decision for (q, s) is fixed.
  std::vector<int> forward, backward;
  for (int s = 0; s < 100; ++s) forward.push_back(snap->ChooseHint(s % 12, s));
  for (int s = 99; s >= 0; --s) {
    backward.push_back(snap->ChooseHint(s % 12, s));
  }
  for (int s = 0; s < 100; ++s) {
    EXPECT_EQ(forward[s], backward[99 - s]) << "serving " << s;
  }
}

TEST(EngineTest, EpsilonZeroAndExhaustedBudgetServeVerifiedOnly) {
  WorkloadMatrix w = MakeMatrix(10, 5, 0.4, 5);
  OnlineOptimizer reference(&w);
  std::vector<int> verified(10);
  for (int q = 0; q < 10; ++q) verified[q] = reference.ChooseHint(q);
  ExplorationEngine engine(std::move(w));

  OnlineExplorationOptions online;
  online.epsilon = 0.0;
  engine.ConfigureServing(online);
  engine.Publish();
  std::shared_ptr<const ServingSnapshot> snap = engine.snapshot();
  for (int s = 0; s < 50; ++s) {
    EXPECT_EQ(snap->ChooseHint(s % 10, s), verified[s % 10]);
  }

  // Exhaust the budget on the ledger, republish: exploration freezes.
  online.epsilon = 1.0;
  online.regret_budget_seconds = 1.0;
  engine.ConfigureServing(online);
  ServingObservation charge;
  charge.seq = engine.AcquireServingIndices(1);
  charge.hint = verified[0];
  charge.latency = 100.0;
  charge.exploratory = true;
  charge.regret_delta = 5.0;
  engine.Report(charge);
  engine.Drain();
  engine.Publish();
  snap = engine.snapshot();
  EXPECT_TRUE(snap->budget_exhausted());
  for (int s = 0; s < 50; ++s) {
    EXPECT_EQ(snap->ChooseHint(s % 10, s), snap->VerifiedHint(s % 10));
  }
}

// ---------------------------------------------------------------------------
// Engine-edge regressions: shape-stale predictions and version-counter
// consistency.
// ---------------------------------------------------------------------------

/// A predictor whose output shape is decoupled from the input matrix, to
/// reproduce shape-stale predictions.
class FixedShapePredictor : public Predictor {
 public:
  void SetShape(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
  }
  StatusOr<linalg::Matrix> Predict(const WorkloadMatrix&) override {
    return linalg::Matrix(rows_, cols_, 1.0);
  }
  std::string name() const override { return "fixed-shape"; }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
};

TEST(EngineTest, RefreshPredictionsRejectsHintColumnStaleness) {
  FixedShapePredictor predictor;
  predictor.SetShape(8, 5);
  ExplorationEngine engine(MakeMatrix(8, 5, 0.3, 22), &predictor);
  EXPECT_TRUE(engine.RefreshPredictions(/*force=*/true));
  engine.Publish();
  EXPECT_TRUE(engine.snapshot()->has_predictions());

  // The right row count but the wrong hint-column count: serving these
  // predictions would index them out of bounds in ChooseHint, so both the
  // refresh result and the published snapshot must reject them.
  predictor.SetShape(8, 7);
  EXPECT_FALSE(engine.RefreshPredictions(/*force=*/true));
  engine.Publish();
  EXPECT_FALSE(engine.snapshot()->has_predictions());
}

TEST(EngineTest, NonFiniteFitKeepsTheLastGoodPredictions) {
  const WorkloadMatrix w = MakeMatrix(40, 6, 0.3, 31);
  CompleterPredictor predictor(std::make_unique<AlsCompleter>());
  ExplorationEngine engine(w, &predictor);
  ASSERT_TRUE(engine.RefreshPredictions(/*force=*/true));
  const uint64_t refits = engine.refits_completed();
  const linalg::Matrix good = engine.predictions();

  // +Inf is not negative, so it passes the matrix's entry check; the fit
  // it poisons must fail instead of publishing non-finite predictions.
  const double inf = std::numeric_limits<double>::infinity();
  WorkloadMatrix poisoned = w;
  poisoned.Observe(7, 3, inf);
  AlsCompleter als;
  EXPECT_FALSE(als.Complete(poisoned).ok());

  engine.Observe(7, 3, inf);
  engine.Publish();
  const std::shared_ptr<const ServingSnapshot> before = engine.snapshot();
  ASSERT_TRUE(before->has_predictions());
  // The failed refit keeps the last good predictions being served.
  EXPECT_TRUE(engine.RefreshPredictions(/*force=*/true));
  EXPECT_EQ(engine.refits_completed(), refits);
  EXPECT_EQ(std::memcmp(engine.predictions().data(), good.data(),
                        good.size() * sizeof(double)),
            0);
  engine.Publish();
  const std::shared_ptr<const ServingSnapshot> after = engine.snapshot();
  ASSERT_TRUE(after->has_predictions());
  for (int q = 0; q < w.num_queries(); ++q) {
    EXPECT_EQ(after->VerifiedHint(q), before->VerifiedHint(q)) << q;
    for (uint64_t s = 0; s < 8; ++s) {
      EXPECT_EQ(after->ChooseHint(q, s), before->ChooseHint(q, s)) << q;
    }
  }
}

TEST(EngineTest, SnapshotVersionNeverDriftsFromThePublishedCounter) {
  ExplorationEngine engine(MakeMatrix(6, 4, 0.2, 23));
  for (int i = 0; i < 32; ++i) {
    engine.Observe(i % 6, 1 + i % 3, 0.5 + i);
    engine.Publish();
    EXPECT_EQ(engine.snapshot()->version(), engine.snapshot_version());
  }
}

TEST(EngineTest, PublishedVersionCounterNeverLagsAVisibleSnapshot) {
  // The version stamp and the counter bump come from one fetch_add inside
  // the publication critical section. Under the old split
  // read-stamp-swap-bump, a reader could fetch a snapshot whose version
  // was ahead of snapshot_version(); this hammers that window.
  ExplorationEngine engine(MakeMatrix(6, 4, 0.2, 24));
  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    for (int i = 0; i < 3000; ++i) {
      engine.Observe(i % 6, 1 + i % 3, 0.5);
      engine.Publish();
    }
    stop.store(true, std::memory_order_release);
  });
  while (!stop.load(std::memory_order_acquire)) {
    std::shared_ptr<const ServingSnapshot> snap = engine.snapshot();
    ASSERT_LE(snap->version(), engine.snapshot_version());
  }
  publisher.join();
  EXPECT_EQ(engine.snapshot()->version(), engine.snapshot_version());
}

// ---------------------------------------------------------------------------
// Observation queue: sequence-ordered drain.
// ---------------------------------------------------------------------------

TEST(EngineTest, DrainAppliesObservationsInServingOrder) {
  ExplorationEngine engine(MakeMatrix(4, 3, 0.0, 6));
  std::shared_ptr<const ServingSnapshot> snap = engine.snapshot();
  // Report out of order: 2, 0, 1 — all on the same cell with distinct
  // latencies. A partial drain after seq 2 alone must apply nothing (the
  // prefix is not contiguous); after all three, the cell holds seq 2's
  // value because the drain replays in sequence order.
  engine.Report(snap->MakeObservation(2, 1, 1, 3.0));
  EXPECT_EQ(engine.Drain(), 0u);
  engine.Report(snap->MakeObservation(0, 1, 1, 1.0));
  engine.Report(snap->MakeObservation(1, 1, 1, 2.0));
  EXPECT_EQ(engine.Drain(), 3u);
  EXPECT_EQ(engine.drained_servings(), 3u);
  EXPECT_DOUBLE_EQ(engine.matrix().observed(1, 1), 3.0);
}

TEST(EngineTest, RegretLedgerAccumulatesFromObservationRecords) {
  WorkloadMatrix w(3, 3);
  for (int q = 0; q < 3; ++q) w.Observe(q, 0, 1.0);
  ExplorationEngine engine(std::move(w));
  std::shared_ptr<const ServingSnapshot> snap = engine.snapshot();
  // Serving an unverified hint slower than the baseline charges regret.
  ServingObservation slow = snap->MakeObservation(0, 0, 1, 4.0);
  EXPECT_TRUE(slow.exploratory);
  EXPECT_DOUBLE_EQ(slow.regret_delta, 3.0);
  // A faster probe charges nothing.
  ServingObservation fast = snap->MakeObservation(1, 1, 2, 0.5);
  EXPECT_TRUE(fast.exploratory);
  EXPECT_DOUBLE_EQ(fast.regret_delta, 0.0);
  // Serving the verified plan is never exploratory.
  ServingObservation verified = snap->MakeObservation(2, 2, 0, 9.0);
  EXPECT_FALSE(verified.exploratory);
  EXPECT_DOUBLE_EQ(verified.regret_delta, 0.0);

  engine.Report(slow);
  engine.Report(fast);
  engine.Report(verified);
  EXPECT_EQ(engine.Drain(), 3u);
  EXPECT_DOUBLE_EQ(engine.regret_spent(), 3.0);
  EXPECT_EQ(engine.explorations(), 2);
}

// ---------------------------------------------------------------------------
// Queue wrap: producers a full lap ahead of the drain must block in
// Report's yield loop (back-pressure, never loss or overwrite).
// ---------------------------------------------------------------------------

TEST(EngineTest, ReportBlocksWhenAProducerLapsTheQueue) {
  EngineOptions options;
  options.queue_capacity = 64;  // the rounded-up minimum
  ExplorationEngine engine(MakeMatrix(4, 3, 0.0, 25), nullptr, options);
  ASSERT_EQ(engine.queue_capacity(), 64u);
  std::shared_ptr<const ServingSnapshot> snap = engine.snapshot();
  // Fill exactly one lap without draining.
  for (uint64_t seq = 0; seq < 64; ++seq) {
    engine.Report(snap->MakeObservation(seq, static_cast<int>(seq % 4), 1,
                                        1.0 + static_cast<double>(seq)));
  }
  // Seq 64 maps to the slot still owned by seq 0: the producer must park
  // in the yield loop until the drain frees the lap.
  std::atomic<bool> completed{false};
  std::thread producer([&] {
    engine.Report(snap->MakeObservation(64, 0, 1, 99.0));
    completed.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(completed.load(std::memory_order_acquire))
      << "Report returned while the queue was a full lap ahead of Drain";
  // The first drain frees the lap and unblocks the producer, whose seq 64
  // may land while that drain is still running: it returns 64 or 65, and
  // the two drains together apply all 65 observations exactly once.
  const size_t first = engine.Drain();
  EXPECT_GE(first, 64u);
  producer.join();
  EXPECT_TRUE(completed.load(std::memory_order_acquire));
  EXPECT_EQ(first + engine.Drain(), 65u);
  EXPECT_EQ(engine.drained_servings(), 65u);
  EXPECT_DOUBLE_EQ(engine.matrix().observed(0, 1), 99.0);
}

TEST(EngineTest, QueueWrapStressManyLapsUnderConcurrentProducers) {
  // 4 producers push 64 laps' worth of observations through a 64-slot
  // queue while the main thread drains: every producer repeatedly runs a
  // full lap ahead and must wait its turn, and every observation must be
  // applied exactly once, in sequence order.
  constexpr int kProducers = 4;
  constexpr uint64_t kTotal = 4096;
  EngineOptions options;
  options.queue_capacity = 64;
  ExplorationEngine engine(MakeMatrix(8, 3, 0.0, 26), nullptr, options);
  std::shared_ptr<const ServingSnapshot> snap = engine.snapshot();
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&] {
      for (;;) {
        const uint64_t seq = engine.AcquireServingIndex();
        if (seq >= kTotal) break;
        engine.Report(snap->MakeObservation(
            seq, static_cast<int>(seq % 8), 1,
            1.0 + static_cast<double>(seq)));
      }
    });
  }
  uint64_t drained = 0;
  while (drained < kTotal) {
    drained += engine.Drain();
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(engine.drained_servings(), kTotal);
  EXPECT_EQ(engine.Drain(), 0u);
  // Sequence-ordered drain: the last writer of cell (q, 1) is the highest
  // seq mapping to q, so the cell must hold that latency.
  for (int q = 0; q < 8; ++q) {
    const uint64_t last_seq = kTotal - 8 + q;
    EXPECT_DOUBLE_EQ(engine.matrix().observed(q, 1),
                     1.0 + static_cast<double>(last_seq))
        << "query " << q;
  }
}

TEST(EngineTest, StalenessBoundHoldsWhenABatchSpansAPublicationMidLap) {
  // Regression pin for the free-running staleness bound
  //   2 * queue_capacity + threads * batch + publish_every
  // in the worst legal interleaving: a serving thread's claimed batch
  // spans a publication boundary mid-lap. Single-threaded emulation of
  // the adversarial schedule — every step below is something the real
  // planes can do:
  //   1. P-1 servings drain inside the first publish window (the cadence
  //      hasn't fired, so the published snapshot still says seq 0);
  //   2. producers fill a full lap of the queue on that stale snapshot;
  //   3. the train thread drains the lap but is descheduled between its
  //      Drain and its Publish;
  //   4. producers fill a second lap (Report admits up to drain front +
  //      capacity - 1);
  //   5. a thread claims one more batch of 16 and *decides* all of them
  //      before its first Report would block.
  // The decisions in step 5 are the farthest any serving can run ahead of
  // the snapshot that decides it.
  EngineOptions options;
  options.queue_capacity = 64;
  ExplorationEngine engine(MakeMatrix(8, 3, 0.0, 31), nullptr, options);
  const uint64_t kCapacity = engine.queue_capacity();
  const uint64_t kPublishEvery = 8;  // emulated cadence
  const uint64_t kBatch = 16;        // the driver's free-running claim size
  std::shared_ptr<const ServingSnapshot> snap = engine.snapshot();
  ASSERT_EQ(snap->published_seq(), 0u);

  uint64_t max_staleness = 0;
  const auto decide_and_report = [&](uint64_t count) {
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t seq = engine.AcquireServingIndex();
      const int q = static_cast<int>(seq % 8);
      const int hint = snap->ChooseHint(q, seq);
      max_staleness = std::max(max_staleness, seq - snap->published_seq());
      engine.Report(snap->MakeObservation(seq, q, hint, 1.0));
    }
  };

  decide_and_report(kPublishEvery - 1);         // seqs 0..6
  ASSERT_EQ(engine.Drain(), kPublishEvery - 1);  // front = 7, no publish yet
  decide_and_report(kCapacity);                  // seqs 7..70 fill a lap
  ASSERT_EQ(engine.Drain(), kCapacity);          // front = 71, publish missed
  decide_and_report(kCapacity);                  // seqs 71..134: second lap
  for (uint64_t i = 0; i < kBatch; ++i) {        // claimed batch 135..150,
    const uint64_t seq = engine.AcquireServingIndex();  // decisions only
    const int q = static_cast<int>(seq % 8);
    snap->ChooseHint(q, seq);
    max_staleness = std::max(max_staleness, seq - snap->published_seq());
  }

  const uint64_t bound = 2 * kCapacity + 1 * kBatch + kPublishEvery;
  EXPECT_LE(max_staleness, bound)
      << "worst-case interleaving exceeds the documented bound";
  // The scenario must actually reach the wrap regime (beyond two full
  // laps) or the pin is vacuous.
  EXPECT_GE(max_staleness, 2 * kCapacity);
  EXPECT_EQ(engine.Drain(), kCapacity);  // the second lap drains cleanly
}

// ---------------------------------------------------------------------------
// Concurrent serving: the TSan hammer. Serving threads run the real
// protocol (version probe, snapshot reuse, ChooseHint, Report) against the
// free-running background train plane.
// ---------------------------------------------------------------------------

TEST(EngineTest, ConcurrentServingDrainsEveryObservationExactlyOnce) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  scenarios::ScenarioSpec spec;
  spec.num_queries = 24;
  spec.num_hints = 8;
  spec.noise_sigma = 0.05;
  spec.seed = 77;
  scenarios::SyntheticBackend backend(spec);

  WorkloadMatrix w(spec.num_queries, spec.num_hints);
  for (int q = 0; q < spec.num_queries; ++q) {
    w.Observe(q, 0, backend.TrueLatency(q, 0));
  }
  AlsOptions als;
  als.convergence_tol = 1e-3;
  CompleterPredictor predictor(std::make_unique<AlsCompleter>(als));
  EngineOptions options;
  options.queue_capacity = 256;  // small: exercises the wrap/back-pressure
  options.online.epsilon = 0.4;
  options.online.min_predicted_ratio = 0.0;
  options.online.regret_budget_seconds = 1e9;
  ExplorationEngine engine(std::move(w), &predictor, options);

  engine.StartTraining();
  std::vector<std::thread> servers;
  servers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    servers.emplace_back([&] {
      std::shared_ptr<const ServingSnapshot> snap = engine.snapshot();
      uint64_t version = snap->version();
      for (int i = 0; i < kPerThread; ++i) {
        if (engine.snapshot_version() != version) {
          snap = engine.snapshot();
          version = snap->version();
        }
        const uint64_t seq = engine.AcquireServingIndex();
        const int q = static_cast<int>(seq % spec.num_queries);
        const int hint = snap->ChooseHint(q, seq);
        const double latency = backend.ServeLatency(q, hint, seq);
        engine.Report(snap->MakeObservation(seq, q, hint, latency));
      }
    });
  }
  for (std::thread& t : servers) t.join();
  engine.StopTraining();

  EXPECT_EQ(engine.drained_servings(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  // The matrix stayed consistent under the concurrent traffic.
  for (int q = 0; q < spec.num_queries; ++q) {
    for (int j = 0; j < spec.num_hints; ++j) {
      if (engine.matrix().IsComplete(q, j)) {
        EXPECT_GT(engine.matrix().observed(q, j), 0.0);
      }
    }
  }
  // Exploration actually happened and was accounted.
  EXPECT_GT(engine.explorations(), 0);
}

// ---------------------------------------------------------------------------
// The combining drain: between BeginTrainSteps and FinishTrainSteps a
// producer whose slot is a lap behind drains the lap itself when the drain
// lock is free, and the fitter holds that lock only while it copies the
// matrix it fits and for its prediction swap and publication.
// ---------------------------------------------------------------------------

/// Stands in for a long refit: reads the matrix shape, then sleeps in
/// `pause` steps until `done` says stop (or `max_pauses` is reached) and
/// returns a flat prediction. Hooks run at entry (handed the input
/// matrix), after the shape read, and at exit, on the refitting thread,
/// with the drain lock released.
/// Sleeping rather than spinning leaves the producers CPU time even on a
/// host with fewer free cores than threads.
class SlowCompleter : public Completer {
 public:
  std::function<void(const WorkloadMatrix&)> on_start;
  std::function<void()> after_set_up;
  std::function<bool()> done;
  std::function<void()> on_end;
  int max_pauses = 200;
  std::chrono::microseconds pause{20};

  StatusOr<linalg::Matrix> Complete(const WorkloadMatrix& w) override {
    const size_t n = static_cast<size_t>(w.num_queries());
    const size_t k = static_cast<size_t>(w.num_hints());
    if (on_start) on_start(w);
    if (after_set_up) after_set_up();
    for (int i = 0; i < max_pauses && !(done && done()); ++i) {
      std::this_thread::sleep_for(pause);
    }
    if (on_end) on_end();
    return linalg::Matrix(n, k, 1.0);
  }
  std::string name() const override { return "slow"; }
};

/// `threads` producers serve through the real free-running protocol
/// (batched claims of kClaim, one version probe per batch, ChooseHint,
/// Report) until `total` servings are claimed, or — with total == 0 —
/// until Stop(). Records the largest staleness any decision saw and the
/// exploratory servings reported.
class Producers {
 public:
  static constexpr uint64_t kClaim = 16;

  Producers(ExplorationEngine* engine, int threads, uint64_t total)
      : engine_(engine) {
    for (int t = 0; t < threads; ++t) {
      threads_.emplace_back([this, total] { Serve(total); });
    }
  }
  void Stop() { stop_.store(true, std::memory_order_relaxed); }
  void Join() {
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }
  uint64_t max_staleness() const {
    return max_staleness_.load(std::memory_order_relaxed);
  }
  uint64_t exploratory() const {
    return exploratory_.load(std::memory_order_relaxed);
  }

 private:
  void Serve(uint64_t total) {
    const int n = engine_->snapshot()->num_queries();
    std::shared_ptr<const ServingSnapshot> snap = engine_->snapshot();
    uint64_t version = snap->version();
    uint64_t worst = 0;
    uint64_t explored = 0;
    for (;;) {
      const uint64_t first = engine_->AcquireServingIndices(kClaim);
      if (engine_->snapshot_version() != version) {
        snap = engine_->snapshot();
        version = snap->version();
      }
      for (uint64_t seq = first; seq < first + kClaim; ++seq) {
        // Past the end the claimed indices are still reported (every
        // acquired index must be, or the drain stalls at the hole).
        const int q = static_cast<int>(seq % static_cast<uint64_t>(n));
        const int hint = snap->ChooseHint(q, seq);
        worst = std::max(worst, seq - snap->published_seq());
        const ServingObservation obs = snap->MakeObservation(
            seq, q, hint, 1.0 + static_cast<double>(seq % 7));
        if (obs.exploratory) ++explored;
        engine_->Report(obs);
      }
      if (total > 0 ? first + kClaim >= total
                    : stop_.load(std::memory_order_relaxed)) {
        break;
      }
    }
    exploratory_.fetch_add(explored, std::memory_order_relaxed);
    uint64_t seen = max_staleness_.load(std::memory_order_relaxed);
    while (worst > seen && !max_staleness_.compare_exchange_weak(
                               seen, worst, std::memory_order_relaxed)) {
    }
  }

  ExplorationEngine* engine_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> max_staleness_{0};
  std::atomic<uint64_t> exploratory_{0};
};

TEST(EngineCombiningDrainTest, ProducersDrainLapsWhileASlowRefitRuns) {
  EngineOptions options;
  options.queue_capacity = 64;
  auto owned = std::make_unique<SlowCompleter>();
  SlowCompleter* completer = owned.get();
  CompleterPredictor predictor(std::move(owned));
  ExplorationEngine engine(MakeMatrix(32, 4, 0.0, 41), &predictor, options);
  const uint64_t lap = engine.queue_capacity();
  uint64_t start = 0, end = 0;
  completer->max_pauses = 1 << 30;
  completer->after_set_up = [&] { start = engine.drained_servings(); };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  completer->done = [&] {
    return engine.drained_servings() > start + 4 * lap ||
           std::chrono::steady_clock::now() > deadline;
  };
  completer->on_end = [&] { end = engine.drained_servings(); };

  const uint64_t total = 32 * lap;
  Producers producers(&engine, 2, total);
  engine.BeginTrainSteps();
  // No predictions yet and complete defaults: the first step refits.
  ASSERT_TRUE(engine.TrainStep());
  ASSERT_EQ(engine.refits_completed(), 1u);
  // The drain front kept moving while the model was fitting, with no
  // train-plane thread draining: producers drained the laps themselves.
  EXPECT_GT(end - start, 4 * lap);
  EXPECT_GE(engine.combined_drains(), 4u);
  completer->done = nullptr;
  completer->max_pauses = 0;
  while (engine.drained_servings() < total) engine.TrainStep();
  producers.Join();
  engine.FinishTrainSteps();
  EXPECT_EQ(engine.drained_servings(), engine.claimed_servings());
}

/// FNV-1a over a matrix's values and cell states.
uint64_t MatrixChecksum(const WorkloadMatrix& w) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 1099511628211ull;
  };
  mix(w.values().data(), w.values().size() * sizeof(double));
  for (int q = 0; q < w.num_queries(); ++q) {
    mix(w.row_states(q), static_cast<size_t>(w.num_hints()) *
                             sizeof(CellState));
  }
  return h;
}

TEST(EngineCombiningDrainTest, TheFitNeverReadsTheLiveMatrix) {
  // Producers drain into the live matrix while the model fits, so the fit
  // must read a copy: the matrix the completer is handed is not the
  // engine's, and it holds still from the fit's start to its end while
  // combiners drain at least four queue laps of re-observations.
  EngineOptions options;
  options.queue_capacity = 64;
  auto owned = std::make_unique<SlowCompleter>();
  SlowCompleter* completer = owned.get();
  CompleterPredictor predictor(std::move(owned));
  ExplorationEngine engine(MakeMatrix(32, 4, 0.0, 43), &predictor, options);
  const uint64_t lap = engine.queue_capacity();
  const WorkloadMatrix* fitted = nullptr;
  uint64_t start = 0, end = 0, sum_at_start = 0, sum_at_end = 0;
  completer->max_pauses = 1 << 30;
  completer->on_start = [&](const WorkloadMatrix& w) {
    fitted = &w;
    sum_at_start = MatrixChecksum(w);
    start = engine.drained_servings();
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  completer->done = [&] {
    return engine.drained_servings() > start + 4 * lap ||
           std::chrono::steady_clock::now() > deadline;
  };
  completer->on_end = [&] {
    sum_at_end = MatrixChecksum(*fitted);
    end = engine.drained_servings();
  };

  // The producers serve until stopped: a bounded stream could be drained
  // whole by combiners before the first step's refit starts.
  Producers producers(&engine, 2, /*total=*/0);
  engine.BeginTrainSteps();
  const bool progressed = engine.TrainStep();
  const uint64_t refits = engine.refits_completed();
  producers.Stop();
  producers.Join();
  completer->on_start = nullptr;
  completer->on_end = nullptr;
  completer->done = nullptr;
  completer->max_pauses = 0;
  engine.FinishTrainSteps();
  EXPECT_TRUE(progressed);
  EXPECT_EQ(refits, 1u);
  EXPECT_GT(end - start, 4 * lap);
  EXPECT_GE(engine.combined_drains(), 4u);
  EXPECT_NE(fitted, &engine.matrix());
  EXPECT_EQ(sum_at_end, sum_at_start);
  EXPECT_EQ(engine.drained_servings(), engine.claimed_servings());
}

TEST(EngineCombiningDrainTest, UpdatesSinceRefreshCountsWhatTheRefitMissed) {
  // A refit fits the matrix as of its set-up. Whatever producers drain
  // while it runs is not in the fresh model and must count toward the next
  // refit's refresh_every. Each refit here starts producers at its set-up
  // point and joins them before it returns, so every lap of the round is
  // drained by combining producers during the fit, and nothing drains
  // between the refit and the check.
  EngineOptions options;
  options.queue_capacity = 64;
  auto owned = std::make_unique<SlowCompleter>();
  SlowCompleter* completer = owned.get();
  CompleterPredictor predictor(std::move(owned));
  ExplorationEngine engine(MakeMatrix(32, 4, 0.0, 42), &predictor, options);
  const uint64_t round = 8 * engine.queue_capacity();
  std::unique_ptr<Producers> producers;
  uint64_t start = 0, end = 0;
  completer->max_pauses = 0;
  completer->after_set_up = [&] {
    start = engine.drained_servings();
    producers = std::make_unique<Producers>(
        &engine, 2, engine.claimed_servings() + round);
  };
  completer->on_end = [&] {
    producers->Join();
    end = engine.drained_servings();
  };
  engine.BeginTrainSteps();
  for (uint64_t refits = 1; refits <= 4; ++refits) {
    for (int steps = 0; engine.refits_completed() < refits; ++steps) {
      ASSERT_LT(steps, 100) << "refit " << refits << " never came due";
      engine.TrainStep();
    }
    // More than a lap landed during the fit, so it was producers that
    // drained it.
    ASSERT_GT(end - start, engine.queue_capacity()) << "refit " << refits;
    EXPECT_EQ(static_cast<uint64_t>(engine.updates_since_refresh()),
              end - start)
        << "refit " << refits;
  }
  // The shutdown refit runs with combining off: no producers there.
  completer->after_set_up = nullptr;
  completer->on_end = nullptr;
  engine.FinishTrainSteps();
  EXPECT_EQ(engine.drained_servings(), engine.claimed_servings());
  EXPECT_GT(engine.combined_drains(), 0u);
}

TEST(EngineCombiningDrainTest, EveryServingDrainsOnceAndStalenessStaysBounded) {
  // The free-running bound 2 * capacity + threads * 16 + publish_every
  // must hold whoever drains: a combining producer publishes if due before
  // and after its lap, exactly like a train step, so the publication lag
  // stays below capacity + publish_every at every drain.
  constexpr int kThreads = 3;
  EngineOptions options;
  options.queue_capacity = 64;
  options.online.epsilon = 0.2;
  options.online.min_predicted_ratio = 0.0;
  options.online.regret_budget_seconds = 1e9;
  auto owned = std::make_unique<SlowCompleter>();
  SlowCompleter* completer = owned.get();
  completer->max_pauses = 100;
  uint64_t start = 0;
  uint64_t most_drained_in_a_refit = 0;
  CompleterPredictor predictor(std::move(owned));
  ExplorationEngine engine(MakeMatrix(48, 6, 0.1, 43), &predictor, options);
  completer->after_set_up = [&] { start = engine.drained_servings(); };
  completer->on_end = [&] {
    most_drained_in_a_refit =
        std::max(most_drained_in_a_refit, engine.drained_servings() - start);
  };
  const uint64_t total = 400 * engine.queue_capacity();
  engine.StartTraining();
  Producers producers(&engine, kThreads, total);
  producers.Join();
  engine.StopTraining();

  const uint64_t bound = 2 * engine.queue_capacity() +
                         kThreads * Producers::kClaim +
                         static_cast<uint64_t>(options.online.publish_every);
  EXPECT_LE(producers.max_staleness(), bound);
  // Exactly once: every claimed serving drained, each one counted once in
  // the per-row traffic split and in the exploration ledger.
  EXPECT_EQ(engine.drained_servings(), engine.claimed_servings());
  uint64_t per_row = 0;
  for (int q = 0; q < engine.matrix().num_queries(); ++q) {
    per_row += engine.row_servings(q);
  }
  EXPECT_EQ(per_row, engine.claimed_servings());
  EXPECT_EQ(static_cast<uint64_t>(engine.explorations()),
            producers.exploratory());
  // Not vacuous: refits ran, producers drained while they did, and the
  // combining path was taken.
  EXPECT_GT(engine.refits_completed(), 1u);
  EXPECT_GT(most_drained_in_a_refit, 0u);
  EXPECT_GT(engine.combined_drains(), 0u);
}

TEST(EngineCombiningDrainTest, RefitsKeepCompletingWhileProducersCombine) {
  // Producers that always find the lock free would starve the fitter of
  // the lock it needs to swap predictions in: the lock is not fair, and a
  // lapped producer retries it the moment the previous combiner lets go.
  // The train plane raises a flag while it waits and producers back off,
  // so the fitter gets the lock within about one more lap. The check is
  // per drained lap rather than per second, so it holds at any drain
  // speed. With 2 ms fits and refits spaced at least a backlog apart, a
  // fitter that gets its turn refits about every 8 laps on a 4-vCPU VM;
  // without the hand-off, at this serving-sized world, it refitted once
  // per 116 to 1,270 laps.
  EngineOptions options;
  options.queue_capacity = 4096;
  options.online.refresh_every = 64;
  auto owned = std::make_unique<SlowCompleter>();
  SlowCompleter* completer = owned.get();
  completer->max_pauses = 1;
  completer->pause = std::chrono::microseconds(2000);
  CompleterPredictor predictor(std::move(owned));
  ExplorationEngine engine(MakeMatrix(20000, 49, 0.1, 44), &predictor,
                           options);
  engine.StartTraining();
  Producers producers(&engine, 2, /*total=*/0);
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const uint64_t refits = engine.refits_completed();
  const uint64_t laps = engine.drained_servings() / engine.queue_capacity();
  const uint64_t combined = engine.combined_drains();
  producers.Stop();
  producers.Join();
  engine.StopTraining();
  EXPECT_GE(refits, 2u);
  EXPECT_LE(laps, 40 * refits) << refits << " refits in " << laps << " laps";
  EXPECT_GT(combined, 0u);
  EXPECT_EQ(engine.drained_servings(), engine.claimed_servings());
}

TEST(EngineCombiningDrainTest, ServeScheduleNeverCombines) {
  // The epoch path keeps its determinism by draining only at its own
  // barriers: ServeSchedule chunks its range to the queue and runs with
  // train stepping off, so no producer ever combines — not even on a tier
  // whose train plane ran (and stopped) before.
  WorkloadMatrix m = MakeMatrix(40, 4, 0.1, 45);
  ShardedTierOptions options;
  options.num_shards = 2;
  options.online.epsilon = 0.2;
  options.online.min_predicted_ratio = 0.0;
  options.online.regret_budget_seconds = 1e9;
  options.engine.queue_capacity = 64;
  std::vector<std::unique_ptr<CompleterPredictor>> predictors;
  std::vector<Predictor*> ptrs;
  for (int i = 0; i < options.num_shards; ++i) {
    predictors.push_back(std::make_unique<CompleterPredictor>(
        std::make_unique<AlsCompleter>(AlsOptions{})));
    ptrs.push_back(predictors.back().get());
  }
  ShardedServingTier tier(m, ptrs, options);
  tier.StartTraining();
  tier.StopTraining();
  const uint64_t servings = 40 * tier.shard_engine(0).queue_capacity();
  tier.ServeSchedule(0, servings, /*threads=*/4,
                     [](int query, int hint, uint64_t seq) {
                       ServedOutcome out;
                       out.hint = hint;
                       out.latency = 1.0 + static_cast<double>(
                                               (seq + query) % 5);
                       return out;
                     });
  uint64_t drained = 0;
  for (int i = 0; i < tier.num_shards(); ++i) {
    EXPECT_EQ(tier.shard_engine(i).combined_drains(), 0u) << "shard " << i;
    drained += tier.shard_engine(i).drained_servings();
  }
  EXPECT_EQ(drained, servings);
}

// ---------------------------------------------------------------------------
// Warm-started completion: correctness properties (satellite).
// ---------------------------------------------------------------------------

/// Warm-started ALS must land on (essentially) the same fit as cold-start:
/// the warm start only moves the *initial* iterate, and with the
/// convergence tolerance both runs stop near the same alternating fixed
/// point. Checked on random scenario-shaped matrices: fit, observe a few
/// more cells, then compare CompleteFrom (warm) with a cold Complete on
/// the grown matrix.
TEST(EngineWarmStartTest, WarmStartConvergesToTheColdStartFit) {
  proptest::Config config;
  config.runs = 8;
  proptest::Check(
      "warm-started ALS agrees with cold-start within tolerance",
      [](proptest::Params& p) {
        const int n = static_cast<int>(p.Int(12, 60));
        const int k = static_cast<int>(p.Int(4, 12));
        const double fill = p.Double(0.1, 0.5);
        WorkloadMatrix w = MakeMatrix(n, k, fill, p.case_seed());

        AlsOptions options;
        options.seed = p.case_seed() ^ 0xA15u;
        options.convergence_tol = 1e-4;
        AlsCompleter warm_als(options);
        AlsCompleter cold_als(options);

        CompletionFactors factors;
        StatusOr<linalg::Matrix> first = warm_als.CompleteFrom(w, &factors);
        if (!first.ok()) return true;  // degenerate draw: nothing to fit
        // A few incremental observations, as between serving-plane epochs.
        Rng extra(p.case_seed() ^ 0xBEEFu);
        for (int e = 0; e < 8; ++e) {
          const int q = static_cast<int>(extra.NextUint64Below(n));
          const int j = static_cast<int>(extra.NextUint64Below(k));
          w.Observe(q, j, extra.Uniform(0.01, 10.0));
        }
        StatusOr<linalg::Matrix> warm = warm_als.CompleteFrom(w, &factors);
        StatusOr<linalg::Matrix> cold = cold_als.Complete(w);
        if (!warm.ok() || !cold.ok()) return false;

        // Compare fits in log space (latencies span orders of magnitude);
        // observed cells pass through identically, so the comparison is
        // really about the predictions.
        double se = 0.0;
        for (size_t c = 0; c < warm->size(); ++c) {
          const double d = std::log(std::max(warm->data()[c], 1e-9)) -
                           std::log(std::max(cold->data()[c], 1e-9));
          se += d * d;
        }
        const double rms = std::sqrt(se / warm->size());
        if (rms > 0.35) {
          std::cerr << "warm/cold log-RMS divergence " << rms << " on " << n
                    << "x" << k << " fill " << fill << "\n";
          return false;
        }
        return true;
      },
      config);
}

/// Warm refits must be measurably cheaper: entering the alternating loop
/// at the previous fixed point converges in fewer sweeps than a random
/// initialization (this is the bench_micro claim, asserted structurally).
TEST(EngineWarmStartTest, WarmStartConvergesInFewerSweeps) {
  // A *structured* world: on structureless noise ALS converges immediately
  // either way (the bias model already explains everything), so the warm
  // start can only show its win where the factors carry real signal.
  scenarios::ScenarioSpec spec;
  spec.num_queries = 300;
  spec.num_hints = 20;
  spec.latent_rank = 4;
  spec.structure_strength = 0.9;
  spec.seed = 42;
  scenarios::SyntheticBackend backend(spec);
  WorkloadMatrix w(spec.num_queries, spec.num_hints);
  Rng rng(5);
  for (int i = 0; i < spec.num_queries; ++i) {
    w.Observe(i, 0, backend.TrueLatency(i, 0));
    for (int j = 1; j < spec.num_hints; ++j) {
      if (rng.Bernoulli(0.15)) w.Observe(i, j, backend.TrueLatency(i, j));
    }
  }
  AlsOptions options;
  options.convergence_tol = 1e-3;
  AlsCompleter als(options);
  CompletionFactors factors;
  ASSERT_TRUE(als.CompleteFrom(w, &factors).ok());
  const int cold_iters = als.last_iterations();
  // Steady-state refresh: one epoch of new observations, then refit warm.
  Rng extra(7);
  for (int e = 0; e < 32; ++e) {
    const int q = static_cast<int>(extra.NextUint64Below(spec.num_queries));
    const int j = static_cast<int>(extra.NextUint64Below(spec.num_hints));
    w.Observe(q, j, backend.TrueLatency(q, j));
  }
  ASSERT_TRUE(als.CompleteFrom(w, &factors).ok());
  const int warm_iters = als.last_iterations();
  EXPECT_LT(warm_iters, cold_iters)
      << "warm=" << warm_iters << " cold=" << cold_iters;
}

/// The no-leak contract: after ResetAfterDataShift, a refit must be
/// bitwise identical to what a from-scratch engine computes on the same
/// matrix — nothing fitted on the pre-shift data may survive.
TEST(EngineWarmStartTest, FactorReuseNeverLeaksAcrossDataShift) {
  scenarios::ScenarioSpec spec;
  spec.num_queries = 30;
  spec.num_hints = 8;
  spec.noise_sigma = 0.0;
  spec.seed = 555;
  scenarios::SyntheticBackend backend(spec);
  RandomPolicy policy;
  ExplorerOptions options;
  options.seed = 11;
  OfflineExplorer explorer(&backend, &policy, options);
  explorer.Explore(0.3 * backend.DefaultWorkloadLatency());

  AlsOptions als;
  als.convergence_tol = 1e-3;
  CompleterPredictor predictor(std::make_unique<AlsCompleter>(als));
  explorer.engine().SetPredictor(&predictor);
  ASSERT_TRUE(explorer.engine().RefreshPredictions(/*force=*/true));
  ASSERT_FALSE(explorer.engine().warm_factors().empty());

  // Data shift: the engine must drop the warm factors with the stale
  // observations.
  backend.ApplyDrift(1.0);
  explorer.ResetAfterDataShift();
  EXPECT_TRUE(explorer.engine().warm_factors().empty());

  // And the post-shift refit equals a cold fit of the post-shift matrix,
  // bitwise: no pre-shift state can influence it.
  ASSERT_TRUE(explorer.engine().RefreshPredictions(/*force=*/true));
  AlsCompleter cold(als);
  StatusOr<linalg::Matrix> reference = cold.Complete(explorer.matrix());
  ASSERT_TRUE(reference.ok());
  const linalg::Matrix& refit = explorer.engine().predictions();
  ASSERT_EQ(refit.size(), reference->size());
  for (size_t c = 0; c < refit.size(); ++c) {
    ASSERT_EQ(refit.data()[c], reference->data()[c]) << "cell " << c;
  }
}

}  // namespace
}  // namespace limeqo::core
