#include "scenarios/simulation.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "common/status.h"
#include "core/als.h"
#include "core/explorer.h"
#include "core/nuclear_norm.h"
#include "core/online.h"
#include "core/shard_router.h"
#include "core/policy.h"
#include "core/svt.h"
#include "nn/tcnn_predictor.h"
#include "scenarios/simdb_bridge.h"

namespace limeqo::scenarios {
namespace {

std::unique_ptr<core::Completer> MakeCompleter(CompleterKind kind,
                                               uint64_t seed) {
  switch (kind) {
    case CompleterKind::kAls: {
      core::AlsOptions options;
      options.seed = seed;
      return std::make_unique<core::AlsCompleter>(options);
    }
    case CompleterKind::kSvt:
      return std::make_unique<core::SvtCompleter>();
    case CompleterKind::kNuclearNorm:
      return std::make_unique<core::NuclearNormCompleter>();
  }
  LIMEQO_CHECK(false);
  return nullptr;
}

/// Display name of the predictive model picked by `config` (feeds the
/// "<model>-greedy" policy name).
std::string ModelName(const RunConfig& config) {
  switch (config.arm) {
    case PredictorArm::kCompleter:
      return CompleterKindName(config.completer);
    case PredictorArm::kTcnn:
      return "TCNN";
    case PredictorArm::kLimeQoPlus:
      return "LimeQO+";
  }
  return "?";
}

/// Builds the predictive model for `config`. Neural arms featurize plan
/// trees from `backend`, which must outlive the predictor.
std::unique_ptr<core::Predictor> MakePredictor(const RunConfig& config,
                                               const ScenarioBackend* backend,
                                               uint64_t seed) {
  switch (config.arm) {
    case PredictorArm::kCompleter:
      return std::make_unique<core::CompleterPredictor>(
          MakeCompleter(config.completer, seed));
    case PredictorArm::kTcnn:
    case PredictorArm::kLimeQoPlus: {
      nn::TcnnOptions options = config.tcnn;
      options.use_embeddings = config.arm == PredictorArm::kLimeQoPlus;
      options.seed = seed;
      return std::make_unique<nn::TcnnPredictor>(backend, options,
                                                 ModelName(config));
    }
  }
  LIMEQO_CHECK(false);
  return nullptr;
}

std::unique_ptr<core::ExplorationPolicy> MakePolicy(
    const RunConfig& config, const ScenarioBackend* backend, uint64_t seed) {
  switch (config.policy) {
    case PolicyKind::kRandom:
      return std::make_unique<core::RandomPolicy>();
    case PolicyKind::kGreedy:
      return std::make_unique<core::GreedyPolicy>(config.revisit_censored);
    case PolicyKind::kModelGuided:
      return std::make_unique<core::ModelGuidedPolicy>(
          MakePredictor(config, backend, seed),
          ModelName(config) + "-greedy" +
              (config.revisit_censored ? "+revisit" : ""),
          core::ModelGuidedPolicy::TieBreak::kRandom,
          /*min_ratio=*/0.05, config.revisit_censored);
  }
  LIMEQO_CHECK(false);
  return nullptr;
}

void Violate(SimulationResult* result, const std::string& invariant,
             const std::string& detail) {
  result->violations.push_back(invariant + ": " + detail);
}

/// The serving rule's no-regression guarantee (Algorithm 1 lines 13-15),
/// checked against the hints the *actual serving component* chose — not
/// re-derived from the matrix, so a regression in OnlineOptimizer or
/// OfflineExplorer::BestHints is what trips it. A non-default serving must
/// be a complete (never censored) observation no slower than the observed
/// default.
void CheckNoRegression(const core::WorkloadMatrix& m,
                       const std::vector<int>& served_hints,
                       const char* phase, SimulationResult* result) {
  LIMEQO_CHECK(static_cast<int>(served_hints.size()) == m.num_queries());
  for (int q = 0; q < m.num_queries(); ++q) {
    const int served = served_hints[q];
    if (served == 0) continue;  // the default is always safe to serve
    if (m.state(q, served) != core::CellState::kComplete) {
      std::ostringstream os;
      os << phase << " query " << q << " serves unverified hint " << served
         << " (state "
         << static_cast<int>(m.state(q, served)) << ")";
      Violate(result, "no-regression", os.str());
      continue;
    }
    if (m.IsComplete(q, 0) && m.observed(q, served) > m.observed(q, 0)) {
      std::ostringstream os;
      os << phase << " query " << q << " serves hint " << served << " ("
         << m.observed(q, served) << "s) over default ("
         << m.observed(q, 0) << "s)";
      Violate(result, "no-regression", os.str());
    }
  }
}

/// Served hints per query as the online path would pick them.
std::vector<int> OnlineServedHints(const core::WorkloadMatrix& m) {
  core::OnlineOptimizer serving(&m);
  std::vector<int> hints(m.num_queries());
  for (int q = 0; q < m.num_queries(); ++q) {
    hints[q] = serving.ChooseHint(q);
  }
  return hints;
}

/// Cell values must stay consistent with their states (Algorithm 2's
/// input contract): a complete cell holds a non-negative latency, a
/// censored cell a positive threshold, and an unobserved cell 0.
void CheckMatrixConsistency(const core::WorkloadMatrix& m,
                            SimulationResult* result) {
  for (int q = 0; q < m.num_queries(); ++q) {
    for (int j = 0; j < m.num_hints(); ++j) {
      const core::CellState state = m.state(q, j);
      const double value = m.values()(q, j);
      bool ok = true;
      switch (state) {
        case core::CellState::kComplete:
          ok = value >= 0.0;
          break;
        case core::CellState::kCensored:
          ok = value > 0.0;
          break;
        case core::CellState::kUnobserved:
          ok = value == 0.0;
          break;
      }
      if (!ok) {
        std::ostringstream os;
        os << "cell (" << q << "," << j << ") state/value = "
           << static_cast<int>(state) << "/" << value;
        Violate(result, "matrix-consistency", os.str());
      }
    }
  }
}

/// One entry of the merged drift+arrival timeline. Events sort by budget
/// mark; at equal marks, drift events apply before arrivals and spec order
/// is preserved within each kind (stable sort over drift-then-arrival
/// construction order), so replay is platform-independent.
struct TimelineEvent {
  double at = 0.0;
  bool is_arrival = false;
  double severity = 0.0;  // drift events
  int count = 0;          // arrival events
};

std::vector<TimelineEvent> BuildTimeline(const ScenarioSpec& spec) {
  std::vector<TimelineEvent> events;
  events.reserve(spec.drift.size() + spec.arrivals.size());
  for (const DriftEvent& d : spec.drift) {
    events.push_back(
        {std::clamp(d.after_budget_fraction, 0.0, 1.0), false, d.severity, 0});
  }
  for (const ArrivalEvent& a : spec.arrivals) {
    LIMEQO_CHECK(a.count >= 1);
    events.push_back(
        {std::clamp(a.after_budget_fraction, 0.0, 1.0), true, 0.0, a.count});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TimelineEvent& x, const TimelineEvent& y) {
                     return x.at < y.at;
                   });
  return events;
}

/// Applies one arrival through OfflineExplorer::AddNewQueries while
/// machine-checking the arrival-integrity invariants: every pre-existing
/// cell survives bitwise, and each new row joins with exactly its default
/// plan class observed (everything else unobserved).
void ApplyArrivalChecked(core::OfflineExplorer* explorer,
                         const ScenarioBackend& backend, int count,
                         SimulationResult* result) {
  const core::WorkloadMatrix& m = explorer->matrix();
  const int old_n = m.num_queries();
  const int k = m.num_hints();
  const linalg::Matrix values = m.values();
  std::vector<core::CellState> states(static_cast<size_t>(old_n) * k);
  for (int q = 0; q < old_n; ++q) {
    for (int j = 0; j < k; ++j) {
      states[static_cast<size_t>(q) * k + j] = m.state(q, j);
    }
  }

  explorer->AddNewQueries(count);

  for (int q = 0; q < old_n; ++q) {
    for (int j = 0; j < k; ++j) {
      const bool intact =
          m.state(q, j) == states[static_cast<size_t>(q) * k + j] &&
          m.values()(q, j) == values(q, j);
      if (!intact) {
        std::ostringstream os;
        os << "cell (" << q << "," << j << ") changed during arrival of "
           << count << " queries";
        Violate(result, "arrival-preserves-observations", os.str());
      }
    }
  }
  for (int q = old_n; q < old_n + count; ++q) {
    const std::vector<int> default_class = backend.EquivalentHints(q, 0);
    for (int j = 0; j < k; ++j) {
      const bool in_default_class =
          std::find(default_class.begin(), default_class.end(), j) !=
          default_class.end();
      const core::CellState expected = in_default_class
                                           ? core::CellState::kComplete
                                           : core::CellState::kUnobserved;
      if (m.state(q, j) != expected) {
        std::ostringstream os;
        os << "new row " << q << " hint " << j << " arrived in state "
           << static_cast<int>(m.state(q, j)) << ", expected "
           << static_cast<int>(expected);
        Violate(result, "arrival-fresh-rows", os.str());
      }
    }
  }
}

/// Fenwick tree of counts over positions [0, size): Add marks a position,
/// CountBelow counts the marked positions below a bound, both O(log size).
class CountTree {
 public:
  explicit CountTree(size_t size) : tree_(size + 1, 0) {}
  void Add(size_t pos) {
    for (size_t i = pos + 1; i < tree_.size(); i += i & (~i + 1)) ++tree_[i];
  }
  uint64_t CountBelow(size_t bound) const {
    uint64_t count = 0;
    for (size_t i = bound; i > 0; i -= i & (~i + 1)) count += tree_[i];
    return count;
  }

 private:
  std::vector<uint64_t> tree_;
};


/// Offline phase: explores the budget, applying drift and arrival events
/// at their marks, then checks the offline invariants.
void ExploreOffline(const ScenarioSpec& spec, ScenarioBackend* backend,
                    core::OfflineExplorer* explorer,
                    SimulationResult* result) {
  const double budget =
      spec.budget_fraction * backend->DefaultWorkloadLatency();
  const std::vector<TimelineEvent> events = BuildTimeline(spec);
  double spent_fraction = 0.0;
  for (size_t e = 0; e <= events.size(); ++e) {
    const double until = e < events.size() ? events[e].at : 1.0;
    const std::vector<core::TrajectoryPoint> trajectory =
        explorer->Explore((until - spent_fraction) * budget);
    spent_fraction = until;
    // Between events observations only accumulate on unobserved cells, so
    // the served workload latency can only improve.
    for (size_t t = 1; t < trajectory.size(); ++t) {
      if (trajectory[t].workload_latency >
          trajectory[t - 1].workload_latency + 1e-9) {
        std::ostringstream os;
        os << "segment " << e << " step " << t << ": "
           << trajectory[t - 1].workload_latency << "s -> "
           << trajectory[t].workload_latency << "s";
        Violate(result, "offline-monotonicity", os.str());
      }
    }
    if (e < events.size()) {
      if (events[e].is_arrival) {
        ApplyArrivalChecked(explorer, *backend, events[e].count, result);
        result->arrivals += events[e].count;
      } else {
        backend->ApplyDrift(events[e].severity);
        explorer->ResetAfterDataShift();
      }
    }
  }

  result->offline_seconds = explorer->offline_seconds();
  result->overhead_seconds = explorer->overhead_seconds();
  result->executions = explorer->num_executions();
  result->timeouts = explorer->num_timeouts();

  // Each Explore call may overshoot its deadline by at most one execution's
  // charge, and the event timeline splits the budget into events.size() + 1
  // calls — so that is the exact end-to-end overshoot bound.
  const double overshoot_allowance =
      static_cast<double>(events.size() + 1) * explorer->max_single_charge();
  if (explorer->offline_seconds() > budget + overshoot_allowance + 1e-9) {
    std::ostringstream os;
    os << explorer->offline_seconds() << "s spent vs budget " << budget
       << "s + " << events.size() + 1 << " segments x max charge "
       << explorer->max_single_charge() << "s";
    Violate(result, "offline-budget", os.str());
  }
  if (explorer->num_timeouts() != backend->timeouts_reported()) {
    std::ostringstream os;
    os << "explorer counted " << explorer->num_timeouts()
       << " timeouts, backend reported " << backend->timeouts_reported();
    Violate(result, "timeout-accounting", os.str());
  }
  const core::WorkloadMatrix& m = explorer->matrix();
  if (!spec.use_timeouts &&
      (explorer->num_timeouts() != 0 || m.NumCensored() != 0)) {
    std::ostringstream os;
    os << explorer->num_timeouts() << " timeouts / " << m.NumCensored()
       << " censored cells with timeouts disabled";
    Violate(result, "timeout-accounting", os.str());
  }
  if (m.num_queries() != spec.num_queries) {
    std::ostringstream os;
    os << m.num_queries() << " matrix rows after the "
       << "arrival schedule, expected " << spec.num_queries;
    Violate(result, "arrival-fresh-rows", os.str());
  }
  CheckMatrixConsistency(m, result);
  // Both real serving outputs: the offline loop's BestHints and the online
  // path's OnlineOptimizer rule.
  CheckNoRegression(m, explorer->BestHints(), "offline", result);
  CheckNoRegression(m, OnlineServedHints(m), "offline-serving", result);
}

/// Serves global indices [0, total) and returns each serving's TierServing
/// at its global index. The run mode only picks the tier loop:
/// ServeFreeRunning against the running train plane, or ServeSchedule in
/// epochs of `publish_every` servings, each ending in the tier's barrier.
std::vector<core::TierServing> ServeTier(
    const RunConfig& config, int total, int publish_every,
    const core::ShardedServingTier::Resolver& resolve,
    core::ShardedServingTier* tier) {
  std::vector<core::TierServing> records(total);
  const core::ShardedServingTier::Recorder record =
      [&records](const core::TierServing& served) {
        records[served.seq] = served;
      };
  if (config.free_running) {
    tier->StartTraining();
    tier->ServeFreeRunning(total, config.serve_threads, resolve, record);
    tier->StopTraining();  // final drain + publish on every shard
  } else {
    for (int epoch = 0; epoch < total; epoch += publish_every) {
      tier->ServeSchedule(epoch, std::min(total, epoch + publish_every),
                          config.serve_threads, resolve, record);
    }
  }
  return records;
}

/// Replays one shard's servings in local order: ledger consistency, no
/// exploration on an exhausted published ledger, local and global
/// staleness against the run mode's bound. `shard_rank[s]` counts the
/// servings routed to s's shard under a smaller global index. Returns the
/// shard's in-flight regret window.
double ReplayShard(const core::ShardedServingTier& tier, int shard,
                   const std::vector<core::TierServing>& records,
                   const std::vector<int>& order,
                   const std::vector<uint64_t>& shard_rank,
                   const RunConfig& config, int publish_every,
                   std::vector<uint64_t>* global_staleness,
                   SimulationResult* result) {
  const core::ExplorationEngine& engine = tier.shard_engine(shard);
  const uint64_t count = order.size();
  // prefix[l] is the regret drained before local serving l — bitwise the
  // ledger any snapshot published at drain front l froze, because the
  // drain applies deltas in the same order with the same additions.
  std::vector<double> prefix(static_cast<size_t>(count) + 1, 0.0);
  for (uint64_t l = 0; l < count; ++l) {
    prefix[l + 1] = prefix[l] + records[order[l]].observation.regret_delta;
  }
  if (std::abs(prefix[count] - engine.regret_spent()) > 1e-9) {
    std::ostringstream os;
    os << "shard " << shard << " drained ledger " << engine.regret_spent()
       << "s != replayed per-serving deltas " << prefix[count] << "s";
    Violate(result, "ledger-consistency", os.str());
  }
  const double slice = tier.shard_budget(shard);
  // An epoch decides on the snapshot its shard published at the epoch's
  // barrier, which had drained every earlier serving, so its local and
  // global staleness both stay below publish_every. Free-running, the
  // single-engine bound holds: a producer of local serving l blocks until
  // the drain passes l - capacity, publications lag the drain front by
  // < capacity + publish_every, and each thread holds at most one claimed
  // batch.
  const uint64_t threads = static_cast<uint64_t>(config.serve_threads);
  constexpr uint64_t kBatch = core::ShardedServingTier::kFreeRunningBatch;
  const uint64_t epoch_bound = static_cast<uint64_t>(publish_every) - 1;
  const uint64_t local_bound =
      config.free_running ? 2 * engine.queue_capacity() + threads * kBatch +
                                static_cast<uint64_t>(publish_every)
                          : epoch_bound;
  // Free-running global staleness of the serving at local position l,
  // global index s, decided on snapshot p: the earlier global servings of
  // its shard the snapshot had not drained, #{m >= p : order[m] < s}.
  // Those at m < l number at most l - p <= local_bound; those at m > l
  // were claimed globally before s but took their local index after it —
  // at most one claimed batch per other serving thread.
  const uint64_t global_bound =
      config.free_running ? local_bound + (threads - 1) * kBatch
                          : epoch_bound;
  double max_inflight = 0.0;
  std::vector<std::pair<uint64_t, uint64_t>> by_snapshot;  // (p, l)
  by_snapshot.reserve(static_cast<size_t>(count));
  for (uint64_t l = 0; l < count; ++l) {
    const core::TierServing& r = records[order[l]];
    const uint64_t p = r.snapshot_seq;
    if (p > l) {
      std::ostringstream os;
      os << "shard " << shard << " local serving " << l
         << " decided on snapshot seq " << p << " ahead of itself";
      Violate(result, "gate", os.str());
      continue;
    }
    if (r.observation.exploratory) {
      if (prefix[p] >= slice) {
        std::ostringstream os;
        os << "shard " << shard << " serving " << order[l] << " (query "
           << r.query << ", hint " << r.observation.hint << ", "
           << r.observation.latency
           << "s) explored on a snapshot whose ledger (" << prefix[p]
           << "s) already exhausted the slice (" << slice << "s)";
        Violate(result, "gate", os.str());
      }
      max_inflight = std::max(max_inflight, prefix[l + 1] - prefix[p]);
    }
    if (l - p > local_bound) {
      std::ostringstream os;
      os << "shard " << shard << " local staleness " << l - p
         << " exceeds the per-shard bound " << local_bound;
      Violate(result, "staleness", os.str());
    }
    by_snapshot.emplace_back(p, l);
  }
  // One sweep over the snapshot fronts in ascending order: `drained` holds
  // the shard ranks of the local positions below the front, so the missing
  // count is the serving's own rank minus the drained servings ranked
  // below it.
  std::sort(by_snapshot.begin(), by_snapshot.end());
  CountTree drained(static_cast<size_t>(count));
  uint64_t front = 0;
  for (const auto& [p, l] : by_snapshot) {
    for (; front < p; ++front) drained.Add(shard_rank[order[front]]);
    const uint64_t s = static_cast<uint64_t>(order[l]);
    const uint64_t gstale = shard_rank[s] - drained.CountBelow(shard_rank[s]);
    global_staleness->push_back(gstale);
    if (gstale > global_bound) {
      std::ostringstream os;
      os << "serving " << s << " global staleness " << gstale
         << " exceeds the tier bound " << global_bound << " (shard " << shard
         << ", local staleness " << l - p << ")";
      Violate(result, "staleness", os.str());
    }
  }
  return max_inflight;
}

/// The serving replay, one checker for both run modes. Seq accounting
/// first: each shard's local sequence numbers must be exactly 0..count-1
/// for the servings routed to it, and each shard must have drained exactly
/// what was routed. Then every shard is replayed in local order
/// (ReplayShard). Fills the staleness percentiles and returns the fleet's
/// regret allowance, the summed per-shard in-flight windows: each shard
/// gates on its snapshot's frozen ledger prefix[p] < slice, so spent_i <
/// slice_i + window_i, and the slices sum to the fleet budget.
double ReplayServings(const core::ShardedServingTier& tier,
                      const std::vector<core::TierServing>& records,
                      const RunConfig& config, int publish_every,
                      SimulationResult* result) {
  const int shards = tier.num_shards();
  std::vector<uint64_t> shard_rank(records.size());
  std::vector<std::vector<int>> orders(shards);
  for (size_t s = 0; s < records.size(); ++s) {
    shard_rank[s] = orders[records[s].shard].size();
    orders[records[s].shard].push_back(-1);
  }
  bool seq_ok = true;
  for (size_t s = 0; s < records.size(); ++s) {
    const core::TierServing& r = records[s];
    std::vector<int>& order = orders[r.shard];
    const uint64_t local_seq = r.observation.seq;
    if (local_seq >= order.size() || order[local_seq] != -1) {
      std::ostringstream os;
      os << "serving " << s << " drained at shard " << r.shard
         << " local seq " << local_seq << " (out of range or double-counted)";
      Violate(result, "shard-seq-accounting", os.str());
      seq_ok = false;
      continue;
    }
    order[local_seq] = static_cast<int>(s);
  }
  for (int i = 0; i < shards; ++i) {
    if (tier.shard_engine(i).drained_servings() != orders[i].size()) {
      std::ostringstream os;
      os << "shard " << i << " drained "
         << tier.shard_engine(i).drained_servings() << " servings, "
         << orders[i].size() << " were routed to it";
      Violate(result, "shard-seq-accounting", os.str());
      seq_ok = false;
    }
  }
  if (!seq_ok) return 0.0;  // no local order to replay

  std::vector<uint64_t> staleness;
  staleness.reserve(records.size());
  double allowance = 0.0;
  for (int i = 0; i < shards; ++i) {
    allowance += ReplayShard(tier, i, records, orders[i], shard_rank,
                             config, publish_every, &staleness, result);
  }
  std::sort(staleness.begin(), staleness.end());
  if (!staleness.empty()) {
    result->staleness_p50 =
        static_cast<double>(staleness[staleness.size() / 2]);
    result->staleness_p95 =
        static_cast<double>(staleness[(95 * (staleness.size() - 1)) / 100]);
    result->staleness_max = static_cast<double>(staleness.back());
  }
  return allowance;
}

/// The fleet checks after the replay: the per-shard freeze probe, the
/// fleet regret budget plus the replay's in-flight allowance, the binomial
/// epsilon cap, and no-regression on `merged`, the matrix the serving plane
/// observed (captured before the probe's diagnostic traffic).
void CheckFleet(const ScenarioSpec& spec,
                const core::OnlineExplorationOptions& online,
                double regret_allowance, const ScenarioBackend& backend,
                const core::WorkloadMatrix& merged,
                core::ShardedServingTier* tier, SimulationResult* result) {
  // Per-shard freeze: a shard whose exhausted slice is published (the last
  // epoch barrier or StopTraining's final publish) must not explore again;
  // the other shards may keep exploring their own slices. Probed past
  // every claimed index with the deterministic schedule, in publish_every
  // epochs so the slice must stay frozen across several barriers, refits
  // and republished snapshots.
  std::vector<int> frozen(tier->num_shards(), -1);
  bool any_exhausted = false;
  for (int i = 0; i < tier->num_shards(); ++i) {
    if (!tier->shard_engine(i).budget_exhausted()) continue;
    frozen[i] = tier->shard_engine(i).explorations();
    any_exhausted = true;
  }
  if (any_exhausted) {
    const uint64_t probe = std::max<uint64_t>(result->servings,
                                              tier->claimed_servings());
    const uint64_t probe_end = probe + 50;
    for (uint64_t k = probe; k < probe_end; k += online.publish_every) {
      tier->ServeSchedule(
          k, std::min<uint64_t>(k + online.publish_every, probe_end), 1,
          [&backend](int q, int chosen, uint64_t seq) {
            core::ServedOutcome out;
            out.hint = chosen;
            out.latency = backend.ServeLatency(q, chosen, seq);
            return out;
          });
    }
    for (int i = 0; i < tier->num_shards(); ++i) {
      const int explored = tier->shard_engine(i).explorations();
      if (frozen[i] < 0 || explored == frozen[i]) continue;
      std::ostringstream os;
      os << "shard " << i << ": " << explored - frozen[i]
         << " explorations after slice exhaustion";
      Violate(result, "online-budget-freeze", os.str());
    }
  }

  if (result->regret_spent >
      online.regret_budget_seconds + regret_allowance + 1e-9) {
    std::ostringstream os;
    os << result->regret_spent << "s regret vs budget "
       << online.regret_budget_seconds
       << "s + summed per-shard in-flight windows (" << regret_allowance
       << "s)";
    Violate(result, "online-regret-budget", os.str());
  }
  // Exploration is gated by one Bernoulli(epsilon) per serving: the count
  // is stochastically dominated by Binomial(servings, epsilon). A 4-sigma
  // band never flakes with deterministic seeds.
  const double n = static_cast<double>(result->servings);
  const double cap =
      n * spec.epsilon +
      4.0 * std::sqrt(n * spec.epsilon * (1.0 - spec.epsilon)) + 2.0;
  if (result->explorations > cap) {
    std::ostringstream os;
    os << result->explorations << " explorations in " << result->servings
       << " servings exceeds epsilon cap " << cap;
    Violate(result, "online-epsilon-cap", os.str());
  }
  if (spec.epsilon == 0.0 && result->explorations != 0) {
    Violate(result, "online-epsilon-cap", "explorations with epsilon = 0");
  }
  CheckMatrixConsistency(merged, result);
  CheckNoRegression(merged, OnlineServedHints(merged), "online-serving",
                    result);
}

/// Online phase: stands up the serving tier over the explored matrix,
/// serves spec.online_servings (ServeTier), replays every serving
/// (ReplayServings) and runs the fleet checks (CheckFleet).
void ServeOnline(const ScenarioSpec& spec, const RunConfig& config,
                 const core::WorkloadMatrix& explored,
                 const ScenarioBackend& backend, SimulationResult* result) {
  core::OnlineExplorationOptions online;
  online.epsilon = spec.epsilon;
  online.min_predicted_ratio = spec.min_predicted_ratio;
  online.regret_budget_seconds = spec.online_regret_budget_seconds;
  online.seed = MixSeed(spec.seed, 0x534Fu);

  // serve_threads threads over a tier of config.shards engines behind the
  // deterministic router (src/core/shard_router.h). Rows partition by the
  // seed-pure hash; the fleet regret budget splits into row-count-
  // proportional slices; decisions stay keyed by *global* serving index,
  // so the fleet consumes exactly one epsilon-gate draw per serving like a
  // single engine would. At one shard local rows are global rows, so every
  // predictor arm serves; more shards need a per-shard completion model.
  LIMEQO_CHECK(config.shards == 1 || config.arm == PredictorArm::kCompleter);
  std::vector<std::unique_ptr<core::Predictor>> shard_predictors;
  std::vector<core::Predictor*> shard_predictor_ptrs;
  for (int i = 0; i < config.shards; ++i) {
    // Per-shard instances of the same predictor configuration (same
    // derived seed): refits are per-shard-matrix pure functions.
    shard_predictors.push_back(
        MakePredictor(config, &backend, MixSeed(spec.seed, 0x4F4Eu)));
    shard_predictor_ptrs.push_back(shard_predictors.back().get());
  }
  core::ShardedTierOptions tier_options;
  tier_options.num_shards = config.shards;
  tier_options.online = online;
  // A queue much smaller than the serving phase makes the free-running
  // staleness bound meaningful (2 * capacity + threads * batch +
  // publish_every must undercut the total servings): producers more than a
  // lap ahead of the drain block, so the bound is a hard invariant, not a
  // heuristic.
  if (config.free_running) tier_options.engine.queue_capacity = 64;
  core::ShardedServingTier tier(explored, shard_predictor_ptrs,
                                tier_options);
  tier.RefreshAll(/*force=*/true);
  tier.PublishAll();

  const int total = spec.online_servings;
  // How each serving's faults resolved, written once per global index by
  // the serving thread that owns it (no locking required).
  std::vector<ResolvedServing> resolved(total);
  const core::ShardedServingTier::Resolver resolve = [&](int q, int chosen,
                                                         uint64_t seq) {
    const ResolvedServing& r = resolved[seq] = ResolveServingFaults(
        config.faults, config.max_retries, config.retry_backoff_seconds, q,
        chosen, seq);
    return core::ServedOutcome{r.hint, backend.ServeLatency(q, r.hint, seq),
                               r.degraded};
  };
  const std::vector<core::TierServing> records =
      ServeTier(config, total, online.publish_every, resolve, &tier);
  const double regret_allowance =
      ReplayServings(tier, records, config, online.publish_every, result);
  // Epoch-synchronized decisions are pure functions of (snapshot, serving
  // index), so this trace is bitwise identical at every thread count; a
  // free-running trace depends on timing and is not recorded.
  if (!config.free_running) {
    result->serving_trace.reserve(records.size());
    for (const core::TierServing& r : records) {
      result->serving_trace.push_back(
          {r.query, r.observation.hint, r.observation.latency});
    }
  }

  result->servings = total;
  result->explorations = tier.explorations();
  result->regret_spent = tier.regret_spent();
  result->regret_slack =
      std::max(0.0, result->regret_spent - online.regret_budget_seconds);
  const core::WorkloadMatrix merged = tier.MergedMatrix();
  result->final_latency = merged.CurrentWorkloadLatency();
  // Fault accounting in global sequence order: deterministic sums, even
  // over a timing-dependent free-running run.
  for (const ResolvedServing& r : resolved) {
    result->fault_serve_failures += r.failures;
    if (r.degraded) ++result->fault_serve_fallbacks;
    result->fault_backoff_seconds += r.backoff_seconds;
  }
  CheckFleet(spec, online, regret_allowance, backend, merged, &tier, result);
}

}  // namespace

std::string PolicyKindName(PolicyKind p) {
  switch (p) {
    case PolicyKind::kRandom:
      return "Random";
    case PolicyKind::kGreedy:
      return "Greedy";
    case PolicyKind::kModelGuided:
      return "ModelGuided";
  }
  return "?";
}

std::string CompleterKindName(CompleterKind c) {
  switch (c) {
    case CompleterKind::kAls:
      return "ALS";
    case CompleterKind::kSvt:
      return "SVT";
    case CompleterKind::kNuclearNorm:
      return "NuclearNorm";
  }
  return "?";
}

std::string PredictorArmName(PredictorArm a) {
  switch (a) {
    case PredictorArm::kCompleter:
      return "Completer";
    case PredictorArm::kTcnn:
      return "TCNN";
    case PredictorArm::kLimeQoPlus:
      return "LimeQO+";
  }
  return "?";
}

std::string WorldKindName(WorldKind w) {
  switch (w) {
    case WorldKind::kSynthetic:
      return "Synthetic";
    case WorldKind::kSimDb:
      return "SimDb";
  }
  return "?";
}

nn::TcnnOptions ScenarioTcnnOptions() {
  nn::TcnnOptions options;
  options.conv_channels = {16, 8};
  options.fc_hidden = {16};
  options.embedding_dim = 4;
  options.dropout_p = 0.15;
  options.batch_size = 16;
  options.max_epochs = 12;
  options.convergence_window = 4;
  return options;
}

std::string SimulationResult::Summary() const {
  std::ostringstream os;
  os << "scenario=" << scenario << " policy=" << policy << " world=" << world
     << " seed=" << seed
     << " default=" << default_latency << "s final=" << final_latency
     << "s optimal=" << optimal_latency << "s offline=" << offline_seconds
     << "s execs=" << executions << " timeouts=" << timeouts
     << " arrivals=" << arrivals
     << " servings=" << servings << " explorations=" << explorations
     << " regret=" << regret_spent << "s violations=" << violations.size();
  if (staleness_max > 0.0 || regret_slack > 0.0) {
    os << " staleness[p50/p95/max]=" << staleness_p50 << "/" << staleness_p95
       << "/" << staleness_max << " slack=" << regret_slack << "s";
  }
  if (fault_exec_failures > 0 || fault_serve_failures > 0 ||
      fault_serve_fallbacks > 0) {
    os << " faults[exec-fail/retry/dropped]=" << fault_exec_failures << "/"
       << fault_exec_retries << "/" << fault_exec_exhausted
       << " faults[serve-fail/fallback]=" << fault_serve_failures << "/"
       << fault_serve_fallbacks << " backoff=" << fault_backoff_seconds
       << "s";
  }
  for (const std::string& v : violations) os << "\n  VIOLATED " << v;
  return os.str();
}

SimulationResult SimulationDriver::Run(PolicyKind policy,
                                       CompleterKind completer) {
  RunConfig config;
  config.policy = policy;
  config.completer = completer;
  return Run(config);
}

SimulationResult SimulationDriver::Run(const RunConfig& config) {
  // Plan trees only exist behind the bridge; a neural arm on the bare
  // surface is a configuration error, not a world property.
  LIMEQO_CHECK(config.arm == PredictorArm::kCompleter ||
               config.world == WorldKind::kSimDb);
  // Serving always runs through a tier of >= 1 shards on >= 1 threads.
  LIMEQO_CHECK(config.serve_threads >= 1);
  LIMEQO_CHECK(config.shards >= 1);

  SimulationResult result;
  result.scenario = spec_.name;
  result.seed = spec_.seed;
  result.world = WorldKindName(config.world);

  std::unique_ptr<ScenarioBackend> backend;
  if (config.world == WorldKind::kSimDb) {
    backend = std::make_unique<SimDbScenarioBackend>(spec_);
  } else {
    backend = std::make_unique<SyntheticBackend>(spec_);
  }
  // Under a fault world the whole run talks to the decorator: exploration,
  // serving, and the invariant checks all see the faulted surface, and the
  // decorator's own accounting (timeouts_reported, max_single_charge)
  // describes what the run actually observed.
  FaultyBackend* fault_injector = nullptr;
  if (config.faults.any()) {
    auto faulty = std::make_unique<FaultyBackend>(
        std::move(backend), config.faults, config.max_retries,
        config.retry_backoff_seconds);
    fault_injector = faulty.get();
    backend = std::move(faulty);
  }
  result.default_latency = backend->DefaultWorkloadLatency();
  result.optimal_latency = backend->OptimalWorkloadLatency();

  std::unique_ptr<core::ExplorationPolicy> exploration_policy =
      MakePolicy(config, backend.get(), MixSeed(spec_.seed, 0x504Fu));
  result.policy = exploration_policy->name();

  int total_arrivals = 0;
  for (const ArrivalEvent& a : spec_.arrivals) total_arrivals += a.count;
  // Arrivals covering the whole workload is the cold-start fleet: the
  // explorer is stood up over an empty matrix (initial_queries == 0) and
  // every query attaches later through the arrival schedule.
  LIMEQO_CHECK(total_arrivals <= spec_.num_queries);

  core::ExplorerOptions options;
  options.batch_size = spec_.batch_size;
  options.timeout_alpha = spec_.timeout_alpha;
  options.use_timeouts = spec_.use_timeouts;
  options.seed = MixSeed(spec_.seed, 0x4558u);
  options.initial_queries =
      total_arrivals > 0 ? spec_.num_queries - total_arrivals : -1;
  core::OfflineExplorer explorer(backend.get(), exploration_policy.get(),
                                 options);

  ExploreOffline(spec_, backend.get(), &explorer, &result);
  if (spec_.online_servings > 0) {
    ServeOnline(spec_, config, explorer.matrix(), *backend, &result);
  } else {
    result.final_latency = explorer.matrix().CurrentWorkloadLatency();
  }
  if (fault_injector != nullptr) {
    result.fault_exec_failures = fault_injector->exec_failures();
    result.fault_exec_retries = fault_injector->exec_retries();
    result.fault_exec_exhausted = fault_injector->exec_exhausted();
    result.fault_backoff_seconds += fault_injector->backoff_seconds();
    // No-double-charge: every Execute call the decorator dropped must have
    // been dropped whole by its caller too — the explorer's failed-call
    // count can never exceed what the backend actually refused (serving
    // fallbacks and free-observation retries consume the rest).
    if (explorer.num_failed_executions() > fault_injector->exec_exhausted()) {
      std::ostringstream os;
      os << "explorer dropped " << explorer.num_failed_executions()
         << " executions but the backend only refused "
         << fault_injector->exec_exhausted();
      Violate(&result, "fault-accounting", os.str());
    }
  }
  return result;
}

}  // namespace limeqo::scenarios
