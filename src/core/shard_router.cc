#include "core/shard_router.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "core/serialization.h"

namespace limeqo::core {
namespace {

constexpr char kManifestMagic[] = "limeqo-tier-manifest";
// v2 added the per-row servings count to the row-ledger lines (the traffic
// weight RebalanceHotShards migrates by survives restarts with the rest of
// the ledger).
constexpr char kManifestVersion[] = "v2";

std::string TierCrcHex(uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

std::string ShardCheckpointPath(const std::string& dir, int shard) {
  return dir + "/shard-" + std::to_string(shard) + ".ckpt";
}

std::string ManifestPath(const std::string& dir) {
  return dir + "/tier.manifest";
}

/// Replays one matrix row into another matrix bitwise: Observe re-stores
/// the exact latency, ObserveCensored the exact threshold (and a censored
/// cell's value *is* its threshold), so destination cells equal source
/// cells field for field.
void ReplayRow(const WorkloadMatrix& src, int src_row, WorkloadMatrix* dst,
               int dst_row) {
  for (int j = 0; j < src.num_hints(); ++j) {
    switch (src.state(src_row, j)) {
      case CellState::kComplete:
        dst->Observe(dst_row, j, src.values()(src_row, j));
        break;
      case CellState::kCensored:
        dst->ObserveCensored(dst_row, j, src.timeout(src_row, j));
        break;
      case CellState::kUnobserved:
        break;
    }
  }
}

/// Runs body(t) for every t in [0, threads): on the calling thread when
/// threads == 1, else on `threads` new threads joined before returning.
void RunOnThreads(int threads, const std::function<void(int)>& body) {
  if (threads == 1) {
    body(0);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) workers.emplace_back(body, t);
  for (std::thread& w : workers) w.join();
}

}  // namespace

int ShardedServingTier::PartitionShard(uint64_t partition_seed, int row,
                                       int num_shards) {
  return static_cast<int>(MixSeed(partition_seed,
                                  static_cast<uint64_t>(row)) %
                          static_cast<uint64_t>(num_shards));
}

ShardedServingTier::ShardedServingTier(const WorkloadMatrix& matrix,
                                       std::vector<Predictor*> predictors,
                                       const ShardedTierOptions& options)
    : options_(options),
      num_hints_(matrix.num_hints()),
      predictors_(std::move(predictors)) {
  const int shards = options_.num_shards;
  LIMEQO_CHECK(shards >= 1);
  LIMEQO_CHECK(predictors_.empty() ||
               static_cast<int>(predictors_.size()) == shards);
  shard_rows_.resize(shards);
  next_local_seq_.assign(shards, 0);
  const int n = matrix.num_queries();
  shard_of_row_.reserve(n);
  local_of_row_.reserve(n);
  for (int q = 0; q < n; ++q) {
    AttachRow(q, PartitionShard(options_.partition_seed, q, shards));
  }
  engines_.reserve(shards);
  for (int i = 0; i < shards; ++i) {
    WorkloadMatrix m(static_cast<int>(shard_rows_[i].size()), num_hints_);
    for (size_t l = 0; l < shard_rows_[i].size(); ++l) {
      ReplayRow(matrix, shard_rows_[i][l], &m, static_cast<int>(l));
    }
    EngineOptions eo = options_.engine;
    eo.online = options_.online;
    engines_.push_back(std::make_unique<ExplorationEngine>(
        std::move(m), predictors_.empty() ? nullptr : predictors_[i], eo));
  }
  ApplyBudgetSplit();
  PublishAll();
  if (options_.shared_train_plane) {
    executor_ = std::make_unique<TrainExecutor>(options_.executor);
  }
}

ShardedServingTier::ShardedServingTier(RestoreTag,
                                       const ShardedTierOptions& options)
    : options_(options) {
  if (options_.shared_train_plane) {
    executor_ = std::make_unique<TrainExecutor>(options_.executor);
  }
}

int ShardedServingTier::AttachRow(int row, int shard) {
  const int local = static_cast<int>(shard_rows_[shard].size());
  shard_of_row_.push_back(shard);
  local_of_row_.push_back(local);
  shard_rows_[shard].push_back(row);
  LIMEQO_CHECK(static_cast<int>(shard_of_row_.size()) == row + 1);
  return local;
}

void ShardedServingTier::ApplyBudgetSplit() {
  const double total = static_cast<double>(num_queries());
  for (int i = 0; i < num_shards(); ++i) {
    OnlineExplorationOptions o = options_.online;
    const double fraction =
        total > 0.0 ? static_cast<double>(shard_rows_[i].size()) / total
                    : 0.0;
    o.regret_budget_seconds =
        options_.online.regret_budget_seconds * fraction;
    engines_[i]->ConfigureServing(o);
  }
}

double ShardedServingTier::regret_spent() const {
  double total = 0.0;
  for (const auto& e : engines_) total += e->regret_spent();
  return total;
}

int ShardedServingTier::explorations() const {
  int total = 0;
  for (const auto& e : engines_) total += e->explorations();
  return total;
}

bool ShardedServingTier::budget_exhausted() const {
  for (const auto& e : engines_) {
    if (!e->budget_exhausted()) return false;
  }
  return true;
}

void ShardedServingTier::RefreshAll(bool force) {
  for (auto& e : engines_) e->RefreshPredictions(force);
}

void ShardedServingTier::PublishAll() {
  for (auto& e : engines_) e->Publish();
}

void ShardedServingTier::DrainAll() {
  for (auto& e : engines_) e->Drain();
}

void ShardedServingTier::SyncEpochAll() {
  if (executor_ != nullptr) {
    std::vector<ExplorationEngine*> fleet;
    fleet.reserve(engines_.size());
    for (auto& e : engines_) fleet.push_back(e.get());
    executor_->SyncEpochAll(fleet);
    return;
  }
  for (auto& e : engines_) e->SyncEpoch();
}

void ShardedServingTier::StartTraining() {
  MutexLock lock(train_mu_);
  LIMEQO_CHECK(!training_);
  training_ = true;
  if (executor_ != nullptr) {
    std::vector<ExplorationEngine*> fleet;
    fleet.reserve(engines_.size());
    for (auto& e : engines_) fleet.push_back(e.get());
    executor_->Start(std::move(fleet));
    return;
  }
  for (auto& e : engines_) e->StartTraining();
}

void ShardedServingTier::StopTraining() {
  MutexLock lock(train_mu_);
  LIMEQO_CHECK(training_);
  if (executor_ != nullptr) {
    executor_->Stop();
  } else {
    for (auto& e : engines_) e->StopTraining();
  }
  training_ = false;
  // Everything reported is now drained, so the deterministic-schedule
  // counters resume exactly where free-running serving stopped.
  for (int i = 0; i < num_shards(); ++i) {
    next_local_seq_[i] = engines_[i]->drained_servings();
  }
}

uint64_t ShardedServingTier::scheduled_servings() const {
  MutexLock lock(train_mu_);
  uint64_t total = 0;
  for (const uint64_t s : next_local_seq_) total += s;
  return total;
}

void ShardedServingTier::ServeOne(const ServingSnapshot& snap, uint64_t seq,
                                  int query, int shard, int local_row,
                                  uint64_t local_seq, const Resolver& resolve,
                                  const Recorder& record) {
  const int chosen = snap.ChooseHint(local_row, seq);
  const ServedOutcome out = resolve(query, chosen, seq);
  TierServing served{
      seq, query, shard,
      snap.MakeObservation(local_seq, local_row, out.hint, out.latency),
      snap.published_seq()};
  if (out.degraded) {
    // A degraded fallback is fault cost, not an exploration decision: it
    // must neither charge the ledger nor look like a budgeted probe.
    served.observation.exploratory = false;
    served.observation.regret_delta = 0.0;
  }
  if (record) record(served);
  engines_[shard]->Report(served.observation);
}

void ShardedServingTier::ServeSchedule(uint64_t begin, uint64_t end,
                                       int threads, const Resolver& resolve,
                                       const Recorder& record) {
  {
    MutexLock lock(train_mu_);
    LIMEQO_CHECK(!training_);
  }
  LIMEQO_CHECK(threads >= 1);
  const uint64_t n = static_cast<uint64_t>(num_queries());
  // An empty schedule — or an empty tier (a fleet may hold zero rows until
  // AppendQueries populates it) — has nothing to serve; bail out before the
  // round-robin map s % n divides by zero. The epoch barrier still runs,
  // so the call keeps its publish-at-exit contract either way.
  if (end <= begin || n == 0) {
    SyncEpochAll();
    return;
  }
  const int shards = num_shards();
  // Decisions for the whole epoch come from the per-shard snapshots
  // current at entry.
  std::vector<std::shared_ptr<const ServingSnapshot>> snaps(shards);
  for (int i = 0; i < shards; ++i) snaps[i] = engines_[i]->snapshot();
  // Chunk to the smallest shard queue so no producer can wrap any queue
  // within a chunk even if every serving in it lands on one shard.
  uint64_t chunk_cap = engines_[0]->queue_capacity();
  for (int i = 1; i < shards; ++i) {
    chunk_cap = std::min(chunk_cap,
                         static_cast<uint64_t>(engines_[i]->queue_capacity()));
  }
  std::vector<int> shard_of(static_cast<size_t>(chunk_cap));
  std::vector<int> local_row(static_cast<size_t>(chunk_cap));
  std::vector<uint64_t> local_seq(static_cast<size_t>(chunk_cap));
  for (uint64_t chunk = begin; chunk < end; chunk += chunk_cap) {
    const uint64_t chunk_end = std::min(end, chunk + chunk_cap);
    const size_t len = static_cast<size_t>(chunk_end - chunk);
    // The deterministic local-sequence plan: walk the global schedule in
    // order on one thread, handing each serving the next local sequence
    // number of its shard. The plan — not thread timing — decides which
    // queue slot each serving drains at, which is what keeps the merged
    // trace bitwise identical at every thread count.
    {
      MutexLock lock(train_mu_);
      for (size_t i = 0; i < len; ++i) {
        const int q = static_cast<int>((chunk + static_cast<uint64_t>(i)) % n);
        const int s = shard_of_row_[q];
        shard_of[i] = s;
        local_row[i] = local_of_row_[q];
        local_seq[i] = next_local_seq_[s]++;
      }
    }
    const auto serve_one = [&](uint64_t seq) {
      const size_t i = static_cast<size_t>(seq - chunk);
      const int s = shard_of[i];
      ServeOne(*snaps[s], seq, static_cast<int>(seq % n), s, local_row[i],
               local_seq[i], resolve, record);
    };
    RunOnThreads(threads, [&](int t) {
      for (uint64_t seq = chunk + static_cast<uint64_t>(t); seq < chunk_end;
           seq += static_cast<uint64_t>(threads)) {
        serve_one(seq);
      }
    });
    if (chunk_end < end) DrainAll();
  }
  SyncEpochAll();
}

void ShardedServingTier::ServeFreeRunning(uint64_t end, int threads,
                                          const Resolver& resolve,
                                          const Recorder& record) {
  {
    MutexLock lock(train_mu_);
    LIMEQO_CHECK(training_);
  }
  LIMEQO_CHECK(threads >= 1);
  const uint64_t n = static_cast<uint64_t>(num_queries());
  if (end == 0 || n == 0) return;
  const int shards = num_shards();
  RunOnThreads(threads, [&](int) {
    // Per-thread snapshot cache: one relaxed version probe per serving,
    // the snapshot handoff only when that shard published (no version is
    // ever ~0, so the first probe of each shard loads its snapshot).
    std::vector<std::shared_ptr<const ServingSnapshot>> snaps(shards);
    std::vector<uint64_t> versions(shards, ~uint64_t{0});
    // The batch's routing, and per shard its serving count, then the next
    // local index to hand out there.
    std::array<int, kFreeRunningBatch> query_of;
    std::array<int, kFreeRunningBatch> shard_of;
    std::vector<uint64_t> routed(shards, 0);
    std::vector<uint64_t> next_local(shards, 0);
    for (;;) {
      const uint64_t first = AcquireServingIndices(kFreeRunningBatch);
      if (first >= end) break;
      const size_t len =
          static_cast<size_t>(std::min(end - first, kFreeRunningBatch));
      for (size_t i = 0; i < len; ++i) {
        query_of[i] = static_cast<int>((first + i) % n);
        shard_of[i] = shard_of_row_[query_of[i]];
        ++routed[shard_of[i]];
      }
      // Claim the batch's shard-local indices, one fetch_add per shard it
      // touches, *before* probing any snapshot: the drain cannot pass an
      // acquired-but-unreported index, so a thread descheduled between
      // claim and probe cannot fall behind the per-shard staleness bound.
      for (size_t i = 0; i < len; ++i) {
        const int s = shard_of[i];
        if (routed[s] == 0) continue;
        next_local[s] = engines_[s]->AcquireServingIndices(routed[s]);
        routed[s] = 0;
      }
      for (size_t i = 0; i < len; ++i) {
        const int s = shard_of[i];
        const ExplorationEngine& engine = *engines_[s];
        if (engine.snapshot_version() != versions[s]) {
          snaps[s] = engine.snapshot();
          versions[s] = snaps[s]->version();
        }
        const int q = query_of[i];
        ServeOne(*snaps[s], first + i, q, s, local_of_row_[q],
                 next_local[s]++, resolve, record);
      }
    }
  });
}

int ShardedServingTier::AppendQueries(int count) {
  {
    MutexLock lock(train_mu_);
    LIMEQO_CHECK(!training_);
  }
  LIMEQO_CHECK(count > 0);
  const int first = num_queries();
  for (int c = 0; c < count; ++c) {
    const int row = first + c;
    const int shard =
        PartitionShard(options_.partition_seed, row, num_shards());
    const int local = engines_[shard]->AppendQueries(1);
    LIMEQO_CHECK(local == static_cast<int>(shard_rows_[shard].size()));
    AttachRow(row, shard);
  }
  ApplyBudgetSplit();
  PublishAll();
  return first;
}

void ShardedServingTier::MigrateRow(int row, int to_shard) {
  MutexLock lock(train_mu_);
  LIMEQO_CHECK(!training_);
  MigrateRowLocked(row, to_shard);
}

void ShardedServingTier::MigrateRowLocked(int row, int to_shard) {
  LIMEQO_CHECK(row >= 0 && row < num_queries());
  LIMEQO_CHECK(to_shard >= 0 && to_shard < num_shards());
  const int from = shard_of_row_[row];
  if (from == to_shard) return;
  const int local = local_of_row_[row];
  const MigratedRow payload = engines_[from]->ExtractRow(local);
  engines_[from]->RemoveRow(local);
  std::vector<int>& from_rows = shard_rows_[from];
  from_rows.erase(from_rows.begin() + local);
  for (size_t i = static_cast<size_t>(local); i < from_rows.size(); ++i) {
    local_of_row_[from_rows[i]] = static_cast<int>(i);
  }
  const int adopted = engines_[to_shard]->AdoptRow(payload);
  LIMEQO_CHECK(adopted == static_cast<int>(shard_rows_[to_shard].size()));
  shard_of_row_[row] = to_shard;
  local_of_row_[row] = adopted;
  shard_rows_[to_shard].push_back(row);
  // Row counts shifted on both shards, so every slice changes; republish
  // so the next decisions gate on the new slices.
  ApplyBudgetSplit();
  PublishAll();
}

int ShardedServingTier::RebalanceHotShards() {
  MutexLock lock(train_mu_);
  LIMEQO_CHECK(!training_);
  const int shards = num_shards();
  if (shards <= 1) return 0;
  int migrated = 0;
  for (;;) {
    // A shard's load is its traffic-weighted row count: each row weighs
    // 1 + servings, so placement follows where traffic concentrates, not
    // just where rows landed. With no traffic every weight is 1 and the
    // pass reduces bitwise to the original row-count rule.
    std::vector<uint64_t> load(static_cast<size_t>(shards), 0);
    uint64_t fleet_load = 0;
    for (int i = 0; i < shards; ++i) {
      const int count = static_cast<int>(shard_rows_[i].size());
      for (int l = 0; l < count; ++l) {
        load[i] += 1 + engines_[i]->row_servings(l);
      }
      fleet_load += load[i];
    }
    int hot = 0;
    int cold = 0;
    for (int i = 1; i < shards; ++i) {
      if (load[i] > load[hot]) hot = i;
      if (load[i] < load[cold]) cold = i;
    }
    const double ideal =
        static_cast<double>(fleet_load) / static_cast<double>(shards);
    if (static_cast<double>(load[hot]) <=
        options_.rebalance_factor * ideal) {
      break;
    }
    const uint64_t gap = load[hot] - load[cold];
    if (gap < 2) break;
    // The heaviest hot row whose weight still shrinks the spread moves
    // (w <= gap - 1 keeps the destination strictly below the source's old
    // load, so the load spread strictly decreases and the pass
    // terminates); ties break toward the highest global index. A pure
    // function of the assignment and ledgers, so two tiers that took the
    // same migration history make the same next move.
    int best_row = -1;
    uint64_t best_weight = 0;
    const int hot_count = static_cast<int>(shard_rows_[hot].size());
    for (int l = 0; l < hot_count; ++l) {
      const uint64_t weight = 1 + engines_[hot]->row_servings(l);
      if (weight > gap - 1) continue;
      const int row = shard_rows_[hot][static_cast<size_t>(l)];
      if (weight > best_weight ||
          (weight == best_weight && row > best_row)) {
        best_weight = weight;
        best_row = row;
      }
    }
    if (best_row < 0) break;
    MigrateRowLocked(best_row, cold);
    ++migrated;
  }
  return migrated;
}

WorkloadMatrix ShardedServingTier::MergedMatrix() const {
  WorkloadMatrix merged(num_queries(), num_hints_);
  for (int row = 0; row < num_queries(); ++row) {
    ReplayRow(engines_[shard_of_row_[row]]->matrix(), local_of_row_[row],
              &merged, row);
  }
  return merged;
}

Status ShardedServingTier::SaveCheckpoints(const std::string& dir) const {
  {
    MutexLock lock(train_mu_);
    LIMEQO_CHECK(!training_);
  }
  for (int i = 0; i < num_shards(); ++i) {
    Status st = SaveEngineCheckpointToFile(engines_[i]->MakeCheckpoint(),
                                           ShardCheckpointPath(dir, i));
    if (!st.ok()) return st;
  }
  std::ostringstream payload;
  payload.precision(std::numeric_limits<double>::max_digits10);
  payload << "tier " << num_shards() << ' ' << num_queries() << ' '
          << num_hints_ << ' ' << options_.online.regret_budget_seconds
          << ' ' << options_.partition_seed << '\n';
  for (int i = 0; i < num_shards(); ++i) {
    payload << "shard " << i << ' ' << shard_rows_[i].size();
    for (const int row : shard_rows_[i]) payload << ' ' << row;
    payload << '\n';
  }
  for (int row = 0; row < num_queries(); ++row) {
    const ExplorationEngine& e = *engines_[shard_of_row_[row]];
    const int local = local_of_row_[row];
    payload << "row " << row << ' ' << e.row_regret(local) << ' '
            << e.row_explorations(local) << ' ' << e.row_servings(local)
            << '\n';
  }
  const std::string body = payload.str();
  std::ostringstream os;
  os << kManifestMagic << ' ' << kManifestVersion << ' ' << body.size()
     << ' ' << TierCrcHex(Crc32(body)) << '\n'
     << body;
  // The manifest goes last: once it is durable, every shard file it names
  // already is.
  return AtomicWriteFile(ManifestPath(dir), os.str());
}

StatusOr<std::unique_ptr<ShardedServingTier>>
ShardedServingTier::RestoreFromDirectory(const std::string& dir,
                                         std::vector<Predictor*> predictors,
                                         const ShardedTierOptions& options) {
  std::ifstream is(ManifestPath(dir));
  if (!is) {
    return Status::Internal("cannot open for read: " + ManifestPath(dir));
  }
  std::string magic, version, crc_hex;
  long long bytes = 0;
  if (!(is >> magic >> version >> bytes >> crc_hex) ||
      magic != kManifestMagic || version != kManifestVersion) {
    return Status::InvalidArgument("tier manifest: bad magic or version");
  }
  is.get();  // the newline ending the header line
  if (bytes < 0) {
    return Status::InvalidArgument("tier manifest: negative payload size");
  }
  std::string body(static_cast<size_t>(bytes), '\0');
  is.read(body.data(), static_cast<std::streamsize>(bytes));
  if (is.gcount() != static_cast<std::streamsize>(bytes)) {
    return Status::InvalidArgument("tier manifest: truncated payload");
  }
  if (TierCrcHex(Crc32(body)) != crc_hex) {
    return Status::InvalidArgument(
        "tier manifest: CRC mismatch (file corrupt)");
  }

  std::istringstream ls(body);
  std::string word;
  int shards = 0, rows = 0, hints = 0;
  double budget = 0.0;
  uint64_t partition_seed = 0;
  if (!(ls >> word >> shards >> rows >> hints >> budget >> partition_seed) ||
      word != "tier" || shards < 1 || rows < 0 || hints < 1) {
    return Status::InvalidArgument("tier manifest: malformed tier section");
  }
  if (!predictors.empty() &&
      static_cast<int>(predictors.size()) != shards) {
    return Status::InvalidArgument(
        "tier manifest: " + std::to_string(shards) + " shards but " +
        std::to_string(predictors.size()) + " predictors");
  }

  ShardedTierOptions restored = options;
  restored.num_shards = shards;
  restored.online.regret_budget_seconds = budget;
  restored.partition_seed = partition_seed;
  std::unique_ptr<ShardedServingTier> tier(
      new ShardedServingTier(RestoreTag{}, restored));
  tier->num_hints_ = hints;
  tier->predictors_ = std::move(predictors);
  tier->shard_rows_.resize(shards);
  {
    // A static member is not a constructor: the analysis (rightly) wants
    // the new tier's guarded counters touched under its own mutex, even
    // though no other thread can see the tier yet.
    MutexLock lock(tier->train_mu_);
    tier->next_local_seq_.assign(static_cast<size_t>(shards), 0);
  }
  tier->shard_of_row_.assign(static_cast<size_t>(rows), -1);
  tier->local_of_row_.assign(static_cast<size_t>(rows), -1);
  for (int i = 0; i < shards; ++i) {
    int index = 0, count = 0;
    if (!(ls >> word >> index >> count) || word != "shard" || index != i ||
        count < 0 || count > rows) {
      return Status::InvalidArgument(
          "tier manifest: malformed shard section " + std::to_string(i));
    }
    tier->shard_rows_[i].resize(static_cast<size_t>(count));
    for (int l = 0; l < count; ++l) {
      int row = -1;
      if (!(ls >> row) || row < 0 || row >= rows ||
          tier->shard_of_row_[row] != -1) {
        return Status::InvalidArgument(
            "tier manifest: bad or duplicate row assignment in shard " +
            std::to_string(i));
      }
      tier->shard_rows_[i][l] = row;
      tier->shard_of_row_[row] = i;
      tier->local_of_row_[row] = l;
    }
  }
  for (int row = 0; row < rows; ++row) {
    if (tier->shard_of_row_[row] == -1) {
      return Status::InvalidArgument("tier manifest: row " +
                                     std::to_string(row) + " unassigned");
    }
  }
  std::vector<double> row_regret(static_cast<size_t>(rows), 0.0);
  std::vector<int> row_explorations(static_cast<size_t>(rows), 0);
  std::vector<uint64_t> row_servings(static_cast<size_t>(rows), 0);
  for (int r = 0; r < rows; ++r) {
    int row = -1;
    double regret = 0.0;
    int explorations = 0;
    uint64_t servings = 0;
    if (!(ls >> word >> row >> regret >> explorations >> servings) ||
        word != "row" || row != r || !std::isfinite(regret) ||
        explorations < 0) {
      return Status::InvalidArgument(
          "tier manifest: malformed row-ledger section");
    }
    row_regret[r] = regret;
    row_explorations[r] = explorations;
    row_servings[r] = servings;
  }

  tier->engines_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    StatusOr<EngineCheckpoint> ckpt =
        LoadEngineCheckpointFromFile(ShardCheckpointPath(dir, i));
    if (!ckpt.ok()) return ckpt.status();
    if (ckpt.value().matrix.num_queries() !=
            static_cast<int>(tier->shard_rows_[i].size()) ||
        ckpt.value().matrix.num_hints() != hints) {
      return Status::InvalidArgument(
          "tier manifest: shard " + std::to_string(i) +
          " checkpoint shape disagrees with the manifest assignment");
    }
    EngineOptions eo = tier->options_.engine;
    eo.online = tier->options_.online;
    auto engine = std::make_unique<ExplorationEngine>(
        WorkloadMatrix(0, hints),
        tier->predictors_.empty() ? nullptr : tier->predictors_[i], eo);
    engine->RestoreFromCheckpoint(std::move(ckpt).value());
    {
      MutexLock lock(tier->train_mu_);
      tier->next_local_seq_[i] = engine->drained_servings();
    }
    for (size_t l = 0; l < tier->shard_rows_[i].size(); ++l) {
      const int row = tier->shard_rows_[i][l];
      engine->RestoreRowLedgerSlice(static_cast<int>(l), row_regret[row],
                                    row_explorations[row],
                                    row_servings[row]);
    }
    tier->engines_.push_back(std::move(engine));
  }
  tier->next_global_seq_.store(tier->scheduled_servings(),
                               std::memory_order_relaxed);
  tier->ApplyBudgetSplit();
  tier->PublishAll();
  return tier;
}

}  // namespace limeqo::core
