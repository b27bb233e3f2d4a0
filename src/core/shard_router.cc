#include "core/shard_router.h"

#include <algorithm>
#include <array>
#include <cstdlib>
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
// v3 dropped the per-shard row lists (placement is PartitionShard of the
// seed) and the per-row regret and exploration columns.
constexpr char kManifestVersion[] = "v3";

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
      predictors_(std::move(predictors)),
      executor_(options_.executor) {
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
}

ShardedServingTier::ShardedServingTier(RestoreTag,
                                       const ShardedTierOptions& options)
    : options_(options), executor_(options_.executor) {}

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

std::vector<ExplorationEngine*> ShardedServingTier::Fleet() {
  std::vector<ExplorationEngine*> fleet;
  fleet.reserve(engines_.size());
  for (auto& e : engines_) fleet.push_back(e.get());
  return fleet;
}

void ShardedServingTier::SyncEpochAll() { executor_.SyncEpochAll(Fleet()); }

void ShardedServingTier::StartTraining() {
  MutexLock lock(train_mu_);
  LIMEQO_CHECK(!training_);
  training_ = true;
  executor_.Start(Fleet());
}

void ShardedServingTier::StopTraining() {
  MutexLock lock(train_mu_);
  LIMEQO_CHECK(training_);
  executor_.Stop();
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
  for (int row = 0; row < num_queries(); ++row) {
    payload << "row " << row << ' '
            << engines_[shard_of_row_[row]]->row_servings(local_of_row_[row])
            << '\n';
  }
  const std::string body = payload.str();
  std::ostringstream os;
  os << kManifestMagic << ' ' << kManifestVersion << ' ' << body.size()
     << ' ' << CrcHex(Crc32(body)) << '\n'
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
  std::string header;
  std::getline(is, header);
  std::istringstream hs(header);
  std::string magic, version, crc_hex;
  long long bytes = 0;
  if (!(hs >> magic >> version >> bytes >> crc_hex) ||
      magic != kManifestMagic || version != kManifestVersion) {
    return Status::InvalidArgument("tier manifest: bad magic or version");
  }
  StatusOr<std::string> body = ReadCheckedPayload(
      is, bytes,
      static_cast<uint32_t>(std::strtoul(crc_hex.c_str(), nullptr, 16)),
      "tier manifest");
  if (!body.ok()) return body.status();

  std::istringstream ls(*body);
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
  // Placement is a pure function of the partition seed, so the assignment
  // is rebuilt rather than stored.
  for (int row = 0; row < rows; ++row) {
    tier->AttachRow(row, PartitionShard(partition_seed, row, shards));
  }
  std::vector<uint64_t> row_servings(static_cast<size_t>(rows), 0);
  for (int r = 0; r < rows; ++r) {
    int row = -1;
    if (!(ls >> word >> row >> row_servings[r]) || word != "row" ||
        row != r) {
      return Status::InvalidArgument(
          "tier manifest: malformed row-servings section");
    }
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
      engine->RestoreRowServings(static_cast<int>(l),
                                 row_servings[tier->shard_rows_[i][l]]);
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
