#include <cmath>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/serialization.h"
#include "proptest.h"

namespace limeqo::core {
namespace {

WorkloadMatrix MakeMixedMatrix(int n, int k, uint64_t seed) {
  WorkloadMatrix w(n, k);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < k; ++j) {
      const double roll = rng.NextDouble();
      if (roll < 0.3) {
        w.Observe(i, j, rng.LogNormal(0.0, 1.7));
      } else if (roll < 0.45) {
        w.ObserveCensored(i, j, rng.LogNormal(0.5, 1.0));
      }
    }
  }
  return w;
}

TEST(SerializationTest, RoundTripPreservesEveryCell) {
  WorkloadMatrix w = MakeMixedMatrix(37, 11, 5);
  std::stringstream ss;
  ASSERT_TRUE(SaveWorkloadMatrix(w, ss).ok());
  StatusOr<WorkloadMatrix> loaded = LoadWorkloadMatrix(ss);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_queries(), 37);
  ASSERT_EQ(loaded->num_hints(), 11);
  for (int i = 0; i < 37; ++i) {
    for (int j = 0; j < 11; ++j) {
      EXPECT_EQ(loaded->state(i, j), w.state(i, j)) << i << "," << j;
      if (w.state(i, j) != CellState::kUnobserved) {
        // Bit-exact round trip (max_digits10 precision).
        EXPECT_DOUBLE_EQ(loaded->observed(i, j), w.observed(i, j));
      }
    }
  }
}

TEST(SerializationTest, EmptyMatrixRoundTrips) {
  WorkloadMatrix w(3, 4);
  std::stringstream ss;
  ASSERT_TRUE(SaveWorkloadMatrix(w, ss).ok());
  StatusOr<WorkloadMatrix> loaded = LoadWorkloadMatrix(ss);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumComplete(), 0);
  EXPECT_EQ(loaded->NumCensored(), 0);
  EXPECT_EQ(loaded->NumUnobserved(), 12);
}

TEST(SerializationTest, RejectsBadMagic) {
  std::stringstream ss("not-a-matrix v1 2 2\n");
  EXPECT_FALSE(LoadWorkloadMatrix(ss).ok());
}

TEST(SerializationTest, RejectsUnknownVersion) {
  std::stringstream ss("limeqo-workload-matrix v99 2 2\n");
  EXPECT_FALSE(LoadWorkloadMatrix(ss).ok());
}

TEST(SerializationTest, RejectsBadShape) {
  std::stringstream ss("limeqo-workload-matrix v1 0 5\n");
  EXPECT_FALSE(LoadWorkloadMatrix(ss).ok());
}

TEST(SerializationTest, RejectsOutOfRangeCell) {
  std::stringstream ss(
      "limeqo-workload-matrix v1 2 2\n"
      "C 5 0 1.0\n");
  EXPECT_FALSE(LoadWorkloadMatrix(ss).ok());
}

TEST(SerializationTest, RejectsNegativeLatency) {
  std::stringstream ss(
      "limeqo-workload-matrix v1 2 2\n"
      "C 0 0 -3.5\n");
  EXPECT_FALSE(LoadWorkloadMatrix(ss).ok());
}

TEST(SerializationTest, RejectsZeroCensoredBound) {
  std::stringstream ss(
      "limeqo-workload-matrix v1 2 2\n"
      "X 0 1 0\n");
  EXPECT_FALSE(LoadWorkloadMatrix(ss).ok());
}

TEST(SerializationTest, RejectsUnknownTag) {
  std::stringstream ss(
      "limeqo-workload-matrix v1 2 2\n"
      "Q 0 0 1.0\n");
  EXPECT_FALSE(LoadWorkloadMatrix(ss).ok());
}

TEST(SerializationTest, RejectsTruncatedRecord) {
  std::stringstream ss(
      "limeqo-workload-matrix v1 2 2\n"
      "C 0 0\n");
  EXPECT_FALSE(LoadWorkloadMatrix(ss).ok());
}

TEST(SerializationTest, RejectsEmptyStream) {
  std::stringstream ss;
  EXPECT_FALSE(LoadWorkloadMatrix(ss).ok());
}

TEST(SerializationTest, FileRoundTrip) {
  WorkloadMatrix w = MakeMixedMatrix(5, 7, 9);
  const std::string path = ::testing::TempDir() + "/limeqo_matrix.txt";
  ASSERT_TRUE(SaveWorkloadMatrixToFile(w, path).ok());
  StatusOr<WorkloadMatrix> loaded = LoadWorkloadMatrixFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumComplete(), w.NumComplete());
  EXPECT_EQ(loaded->NumCensored(), w.NumCensored());
}

/// Property: any reachable WorkloadMatrix state — censored cells, zero
/// latencies, denormals, huge magnitudes — survives save -> load -> save
/// with byte-identical output and cell-exact state. Catches both precision
/// loss (not enough digits) and format drift (load/save disagreeing).
TEST(SerializationTest, RandomMatrixStatesRoundTripByteIdentically) {
  proptest::Check(
      "save -> load -> save is byte-identical",
      [](proptest::Params& p) {
        const int n = static_cast<int>(p.Int(1, 60));
        const int k = static_cast<int>(p.Int(1, 16));
        WorkloadMatrix w(n, k);
        Rng value_rng(p.case_seed() ^ 0x53455231ULL);
        for (int i = 0; i < n; ++i) {
          for (int j = 0; j < k; ++j) {
            const int64_t roll = p.Int(0, 9);
            if (roll < 4) continue;  // unobserved
            // Magnitudes spanning denormals to near-overflow, plus exact
            // edge values; every one must survive the text round trip.
            double value;
            switch (roll) {
              case 4:
                value = 0.0;  // legal complete observation
                break;
              case 5:
                value = std::numeric_limits<double>::denorm_min();
                break;
              case 6:
                value = std::numeric_limits<double>::max();
                break;
              default:
                value = std::exp(value_rng.Uniform(-280.0, 280.0));
                break;
            }
            if (p.Bool(0.3) && value > 0.0) {
              w.ObserveCensored(i, j, value);
            } else {
              w.Observe(i, j, value);
            }
          }
        }

        std::stringstream first;
        if (!SaveWorkloadMatrix(w, first).ok()) return false;
        StatusOr<WorkloadMatrix> loaded = LoadWorkloadMatrix(first);
        if (!loaded.ok()) {
          std::cerr << "load failed: " << loaded.status() << "\n";
          return false;
        }
        for (int i = 0; i < n; ++i) {
          for (int j = 0; j < k; ++j) {
            if (loaded->state(i, j) != w.state(i, j)) {
              std::cerr << "state mismatch at (" << i << "," << j << ")\n";
              return false;
            }
            if (w.state(i, j) != CellState::kUnobserved &&
                loaded->observed(i, j) != w.observed(i, j)) {
              std::cerr << "value mismatch at (" << i << "," << j << "): "
                        << w.observed(i, j) << " vs "
                        << loaded->observed(i, j) << "\n";
              return false;
            }
          }
        }
        std::stringstream second;
        if (!SaveWorkloadMatrix(*loaded, second).ok()) return false;
        if (first.str() != second.str()) {
          std::cerr << "save -> load -> save not byte-identical\n";
          return false;
        }
        return true;
      });
}

TEST(SerializationTest, FileErrorsSurfaceAsStatus) {
  EXPECT_FALSE(
      LoadWorkloadMatrixFromFile("/nonexistent/dir/matrix.txt").ok());
  WorkloadMatrix w(2, 2);
  EXPECT_FALSE(
      SaveWorkloadMatrixToFile(w, "/nonexistent/dir/matrix.txt").ok());
}

// The legacy v1 format (no length prefix, no CRC) must keep loading: it is
// what pre-checkpoint deployments wrote to disk.
TEST(SerializationTest, LegacyV1FormatStillLoads) {
  std::stringstream ss(
      "limeqo-workload-matrix v1 3 2\n"
      "C 0 0 1.25\n"
      "X 2 1 0.5\n");
  StatusOr<WorkloadMatrix> loaded = LoadWorkloadMatrix(ss);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->state(0, 0), CellState::kComplete);
  EXPECT_EQ(loaded->observed(0, 0), 1.25);
  EXPECT_EQ(loaded->state(2, 1), CellState::kCensored);
  EXPECT_EQ(loaded->NumUnobserved(), 4);
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Every value a loader refuses, its writer refuses too, with nothing
// written: a save never leaves behind a file the next load cannot read.
TEST(SerializationTest, WritersRefuseWhatReadersRefuse) {
  for (const bool censored : {false, true}) {
    WorkloadMatrix w = MakeMixedMatrix(3, 4, 7);
    if (censored) {
      w.ObserveCensored(1, 2, kInf);
    } else {
      w.Observe(1, 2, kInf);
    }
    std::stringstream ss;
    EXPECT_EQ(SaveWorkloadMatrix(w, ss).code(), StatusCode::kInvalidArgument)
        << "censored=" << censored;
    EXPECT_TRUE(ss.str().empty());
  }

  EngineCheckpoint good;
  good.matrix = MakeMixedMatrix(4, 3, 11);
  good.factors.query_factors = linalg::Matrix(4, 2, 0.5);
  good.factors.hint_factors = linalg::Matrix(3, 2, -0.5);
  good.predictions = linalg::Matrix(4, 3, 1.25);
  good.have_predictions = true;
  good.regret_spent = 2.0;
  good.explorations = 3;
  good.updates_since_refresh = 5;
  std::stringstream saved;
  ASSERT_TRUE(SaveEngineCheckpoint(good, saved).ok());

  struct Break {
    const char* what;
    void (*apply)(EngineCheckpoint*);
  };
  const Break breaks[] = {
      {"cell", [](EngineCheckpoint* c) { c->matrix.Observe(0, 1, kInf); }},
      {"query factor",
       [](EngineCheckpoint* c) { c->factors.query_factors(1, 1) = kNaN; }},
      {"hint factor",
       [](EngineCheckpoint* c) { c->factors.hint_factors(2, 0) = -kInf; }},
      {"prediction", [](EngineCheckpoint* c) { c->predictions(3, 2) = kInf; }},
      {"factor rank",
       [](EngineCheckpoint* c) {
         c->factors.hint_factors = linalg::Matrix(3, 1, 0.5);
       }},
      {"predictions shape",
       [](EngineCheckpoint* c) { c->predictions = linalg::Matrix(3, 3, 1.0); }},
      {"regret", [](EngineCheckpoint* c) { c->regret_spent = kInf; }},
      {"negative regret", [](EngineCheckpoint* c) { c->regret_spent = -1.0; }},
      {"explorations", [](EngineCheckpoint* c) { c->explorations = -1; }},
      {"updates since refresh",
       [](EngineCheckpoint* c) { c->updates_since_refresh = -1; }},
  };
  for (const Break& b : breaks) {
    EngineCheckpoint c = good;
    b.apply(&c);
    std::stringstream ss;
    EXPECT_EQ(SaveEngineCheckpoint(c, ss).code(),
              StatusCode::kInvalidArgument)
        << b.what;
    EXPECT_TRUE(ss.str().empty()) << b.what;
  }
}

// ---------------------------------------------------------------------------
// Corruption fuzz: no damaged v2 record — matrix or engine checkpoint —
// may ever load silently. A flipped byte changes the payload (CRC
// mismatch) or the header (magic / version / length / CRC field rejected);
// a truncation falls short of the length prefix. Every case must surface
// as a Status, never as a quietly wrong object.
// ---------------------------------------------------------------------------

EngineCheckpoint FuzzCheckpoint(proptest::Params& p) {
  EngineCheckpoint c;
  c.matrix = MakeMixedMatrix(static_cast<int>(p.Int(0, 20)),
                             static_cast<int>(p.Int(1, 8)),
                             static_cast<uint64_t>(p.Int(1, 1 << 30)));
  const int rank = static_cast<int>(p.Int(0, 3));
  if (rank > 0 && c.matrix.num_queries() > 0) {
    c.factors.query_factors =
        linalg::Matrix(c.matrix.num_queries(), rank, 0.25);
    c.factors.hint_factors = linalg::Matrix(c.matrix.num_hints(), rank, -1.5);
  }
  if (p.Bool(0.5) && c.matrix.num_queries() > 0) {
    c.predictions =
        linalg::Matrix(c.matrix.num_queries(), c.matrix.num_hints(), 0.75);
    c.have_predictions = true;
  }
  c.regret_spent = p.Double(0.0, 100.0);
  c.explorations = static_cast<int>(p.Int(0, 1000));
  c.serving_seq = static_cast<uint64_t>(p.Int(0, 1 << 20));
  c.updates_since_refresh = static_cast<int>(p.Int(0, 64));
  c.snapshot_version = static_cast<uint64_t>(p.Int(0, 1 << 20));
  return c;
}

TEST(CorruptionFuzzTest, DamagedMatrixRecordsNeverLoadSilently) {
  proptest::Config config;
  config.runs = 40;
  proptest::Check(
      "corrupted v2 matrix records are rejected",
      [](proptest::Params& p) {
        const WorkloadMatrix w =
            MakeMixedMatrix(static_cast<int>(p.Int(1, 30)),
                            static_cast<int>(p.Int(1, 10)),
                            static_cast<uint64_t>(p.Int(1, 1 << 30)));
        std::stringstream ss;
        if (!SaveWorkloadMatrix(w, ss).ok()) return false;
        std::string bytes = ss.str();
        if (p.Bool(0.5)) {
          // Truncation: any proper prefix must be rejected.
          bytes = bytes.substr(
              0, static_cast<size_t>(
                     p.Int(0, static_cast<int64_t>(bytes.size()) - 1)));
        } else {
          // Single-byte flip anywhere in the record.
          const size_t pos = static_cast<size_t>(
              p.Int(0, static_cast<int64_t>(bytes.size()) - 1));
          bytes[pos] ^= static_cast<char>(p.Int(1, 255));
        }
        std::stringstream damaged(bytes);
        if (LoadWorkloadMatrix(damaged).ok()) {
          std::cerr << "damaged matrix record loaded silently\n";
          return false;
        }
        return true;
      },
      config);
}

TEST(CorruptionFuzzTest, DamagedCheckpointsNeverLoadSilently) {
  proptest::Config config;
  config.runs = 40;
  proptest::Check(
      "corrupted engine checkpoints are rejected",
      [](proptest::Params& p) {
        const EngineCheckpoint c = FuzzCheckpoint(p);
        std::stringstream ss;
        if (!SaveEngineCheckpoint(c, ss).ok()) return false;
        std::string bytes = ss.str();
        if (p.Bool(0.5)) {
          bytes = bytes.substr(
              0, static_cast<size_t>(
                     p.Int(0, static_cast<int64_t>(bytes.size()) - 1)));
        } else {
          const size_t pos = static_cast<size_t>(
              p.Int(0, static_cast<int64_t>(bytes.size()) - 1));
          bytes[pos] ^= static_cast<char>(p.Int(1, 255));
        }
        std::stringstream damaged(bytes);
        if (LoadEngineCheckpoint(damaged).ok()) {
          std::cerr << "damaged checkpoint loaded silently\n";
          return false;
        }
        return true;
      },
      config);
}

TEST(CheckpointHeaderTest, RejectsBadMagicVersionAndCrc) {
  EngineCheckpoint c;
  c.matrix = MakeMixedMatrix(4, 3, 11);
  c.regret_spent = 1.5;
  std::stringstream ss;
  ASSERT_TRUE(SaveEngineCheckpoint(c, ss).ok());
  const std::string good = ss.str();

  {
    std::string bad = good;
    bad.replace(0, 6, "notck-");
    std::stringstream in(bad);
    EXPECT_FALSE(LoadEngineCheckpoint(in).ok());
  }
  {
    std::string bad = good;
    const size_t v = bad.find("v1");
    ASSERT_NE(v, std::string::npos);
    bad.replace(v, 2, "v9");
    std::stringstream in(bad);
    EXPECT_FALSE(LoadEngineCheckpoint(in).ok());
  }
  {
    // Flip one payload character without touching the header: only the
    // CRC can catch this.
    std::string bad = good;
    const size_t header_end = bad.find('\n');
    ASSERT_NE(header_end, std::string::npos);
    bad[header_end + 1] ^= 0x01;
    std::stringstream in(bad);
    const StatusOr<EngineCheckpoint> loaded = LoadEngineCheckpoint(in);
    EXPECT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("CRC"), std::string::npos)
        << loaded.status().message();
  }
  // And the untouched record still loads + round-trips byte-identically.
  std::stringstream in(good);
  StatusOr<EngineCheckpoint> loaded = LoadEngineCheckpoint(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  std::stringstream again;
  ASSERT_TRUE(SaveEngineCheckpoint(*loaded, again).ok());
  EXPECT_EQ(good, again.str());
}

}  // namespace
}  // namespace limeqo::core
