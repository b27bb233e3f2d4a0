#ifndef LIMEQO_CORE_SERIALIZATION_H_
#define LIMEQO_CORE_SERIALIZATION_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "common/status.h"
#include "core/completer.h"
#include "core/workload_matrix.h"
#include "linalg/matrix.h"

namespace limeqo::core {

/// Persistence for the workload matrix, so offline exploration state
/// survives process restarts (the offline path of Fig. 2 runs in idle
/// windows over days). The format is line-oriented text with an integrity
/// trailer in the header:
///
///   limeqo-workload-matrix v2 <num_queries> <num_hints> <payload_bytes> <crc>
///   C <query> <hint> <latency>     # complete observation
///   X <query> <hint> <threshold>   # censored observation (timeout)
///
/// `payload_bytes` is the exact byte length of everything after the header
/// line and `crc` is the CRC-32 of those bytes (8 lowercase hex digits), so
/// a truncated or corrupted file is rejected with a clear error instead of
/// silently deserializing a prefix. Latencies are written with enough
/// digits to round-trip doubles exactly. Unobserved cells are implicit.
/// The loader also accepts the legacy un-checksummed v1 format
/// (`limeqo-workload-matrix v1 <n> <k>` followed by records to EOF).
///
/// Because v2 payloads are length-prefixed, a matrix section can be
/// embedded inside a larger record (the engine checkpoint below) and read
/// back without consuming past its end.

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG convention) of `data`.
/// Exposed so tests can build corrupted-but-plausible inputs and so other
/// serialization layers can reuse the same integrity check.
uint32_t Crc32(std::string_view data);

/// `crc` as the 8 lowercase hex digits the file headers carry.
std::string CrcHex(uint32_t crc);

/// Reads exactly `bytes` payload bytes from `is` and verifies them against
/// `expected_crc` from the header. Short reads mean truncation; CRC
/// mismatches mean bit rot or a torn write — both are rejected loudly
/// (errors name `what`) rather than parsed. Shared by every length-prefixed
/// format: the workload matrix, the engine checkpoint, the tier manifest.
StatusOr<std::string> ReadCheckedPayload(std::istream& is, long long bytes,
                                         uint32_t expected_crc,
                                         const char* what);

/// Writes `contents` to `path` crash-atomically: the bytes go to
/// `path + ".tmp"`, are fsync'd, and the temp file is then renamed over
/// `path`. A reader (or a post-crash restart) sees either the old complete
/// file or the new complete file, never a torn mix.
Status AtomicWriteFile(const std::string& path, const std::string& contents);

/// Writes `w` to `os` in the v2 format. Returns a Status for stream
/// failures.
Status SaveWorkloadMatrix(const WorkloadMatrix& w, std::ostream& os);

/// Reads a matrix written by SaveWorkloadMatrix (v2, or legacy v1).
/// Returns InvalidArgument on malformed input: bad magic or version, bad
/// shape, out-of-range cells, negative values, payload shorter than the
/// header promises (truncation), or a CRC mismatch (corruption).
StatusOr<WorkloadMatrix> LoadWorkloadMatrix(std::istream& is);

/// Convenience wrappers for files. The save path writes through
/// AtomicWriteFile so a crash mid-save cannot destroy the previous copy.
Status SaveWorkloadMatrixToFile(const WorkloadMatrix& w,
                                const std::string& path);
StatusOr<WorkloadMatrix> LoadWorkloadMatrixFromFile(const std::string& path);

/// Everything the train plane needs to warm-restart an ExplorationEngine
/// after a crash: the workload matrix (observations + censoring states),
/// the completion factors of the last refit (so ALS resumes via
/// CompleteFrom instead of refitting cold), the published predictions (so
/// serving decisions match the pre-crash engine bit-for-bit before the
/// first post-restore refit), the frozen regret ledger, and the serving /
/// train-plane counters. Engine *configuration* (options, seeds) is
/// deliberately not captured: a checkpoint restores state into an engine
/// constructed with the same options, and because serving randomness is a
/// pure function of (seed, serving index) there is no hidden RNG state to
/// persist beyond `serving_seq`.
struct EngineCheckpoint {
  /// The train-plane workload matrix at the checkpointed drain front.
  WorkloadMatrix matrix{0, 1};
  /// ALS factor state of the last refit; empty => next refit cold-starts.
  CompletionFactors factors;
  /// Published predictions (empty + have_predictions=false when the engine
  /// had none, e.g. before the first refit).
  linalg::Matrix predictions;
  bool have_predictions = false;
  /// Frozen regret ledger: seconds of regret spent and explorations taken.
  double regret_spent = 0.0;
  int explorations = 0;
  /// The serving sequence number up to which every observation has been
  /// drained into `matrix` and the ledger. Restore rewinds the serving
  /// plane to this sequence.
  uint64_t serving_seq = 0;
  /// Matrix updates since the last prediction refresh (refit cadence).
  int updates_since_refresh = 0;
  /// Snapshot version counter at checkpoint time (monotonic across
  /// restarts so observers never see the version go backwards).
  uint64_t snapshot_version = 0;
};

/// Writes `c` to `os` as a versioned, CRC-checked record:
///
///   limeqo-engine-checkpoint v1 <payload_bytes> <crc>
///   <matrix section (v2 workload-matrix format)>
///   factors <n> <r> <k> <r>  + row-major doubles
///   predictions <n> <k>      + row-major doubles (0 0 when absent)
///   ledger <regret_spent> <explorations>
///   counters <serving_seq> <updates_since_refresh> <snapshot_version>
Status SaveEngineCheckpoint(const EngineCheckpoint& c, std::ostream& os);

/// Reads a checkpoint written by SaveEngineCheckpoint. Returns
/// InvalidArgument on truncation, CRC mismatch, or malformed sections —
/// callers are expected to treat any failure as "no usable checkpoint" and
/// fall back to a cold start.
StatusOr<EngineCheckpoint> LoadEngineCheckpoint(std::istream& is);

/// File wrappers. The save path is crash-atomic (AtomicWriteFile), which
/// is what makes a `checkpoint_every` cadence safe to run concurrently
/// with readers and robust to a kill at any instant.
Status SaveEngineCheckpointToFile(const EngineCheckpoint& c,
                                  const std::string& path);
StatusOr<EngineCheckpoint> LoadEngineCheckpointFromFile(
    const std::string& path);

}  // namespace limeqo::core

#endif  // LIMEQO_CORE_SERIALIZATION_H_
