#include "core/serialization.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>

namespace limeqo::core {
namespace {

constexpr char kMatrixMagic[] = "limeqo-workload-matrix";
constexpr char kMatrixVersionLegacy[] = "v1";
constexpr char kMatrixVersion[] = "v2";
constexpr char kCheckpointMagic[] = "limeqo-engine-checkpoint";
constexpr char kCheckpointVersion[] = "v1";

// Each writer checks these rules before it writes and each reader after it
// parses, so no save produces a file that its load refuses.

/// A cell record's value: finite and non-negative, and positive for a
/// censored cell (a zero timeout bounds nothing).
Status CheckCellValue(CellState state, double value) {
  if (!std::isfinite(value) || value < 0.0 ||
      (state == CellState::kCensored && value == 0.0)) {
    return Status::InvalidArgument("non-finite or negative latency");
  }
  return Status::Ok();
}

/// A factor or prediction entry: finite.
Status CheckDenseValue(double value, const char* what) {
  if (std::isfinite(value)) return Status::Ok();
  return Status::InvalidArgument(std::string(what) + ": non-finite value");
}

/// A checkpoint's shapes and scalars: one factor rank, predictions that
/// cover the matrix, a finite non-negative ledger, non-negative counters.
Status CheckCheckpointFields(const EngineCheckpoint& c) {
  if (c.factors.query_factors.cols() != c.factors.hint_factors.cols()) {
    return Status::InvalidArgument("checkpoint: factor rank mismatch");
  }
  if (c.have_predictions &&
      (c.predictions.rows() != static_cast<size_t>(c.matrix.num_queries()) ||
       c.predictions.cols() != static_cast<size_t>(c.matrix.num_hints()))) {
    return Status::InvalidArgument(
        "checkpoint: predictions shape does not match the matrix");
  }
  if (!std::isfinite(c.regret_spent) || c.regret_spent < 0.0 ||
      c.explorations < 0) {
    return Status::InvalidArgument("checkpoint: implausible ledger values");
  }
  if (c.updates_since_refresh < 0) {
    return Status::InvalidArgument("checkpoint: implausible counters");
  }
  return Status::Ok();
}

/// Parses `C i j v` / `X i j v` records until `is` is exhausted, applying
/// them to `w`. Shared between the legacy v1 loader (records run to EOF)
/// and the v2 loader (records live in a bounded, CRC-verified payload).
Status ParseCellRecords(std::istream& is, int n, int k, WorkloadMatrix* w) {
  std::string tag;
  while (is >> tag) {
    int i = 0, j = 0;
    double value = 0.0;
    if (!(is >> i >> j >> value)) {
      return Status::InvalidArgument("truncated cell record");
    }
    if (i < 0 || i >= n || j < 0 || j >= k) {
      return Status::InvalidArgument("cell out of range");
    }
    if (tag != "C" && tag != "X") {
      return Status::InvalidArgument("unknown record tag: " + tag);
    }
    const CellState state =
        tag == "C" ? CellState::kComplete : CellState::kCensored;
    Status st = CheckCellValue(state, value);
    if (!st.ok()) return st;
    if (state == CellState::kComplete) {
      w->Observe(i, j, value);
    } else {
      w->ObserveCensored(i, j, value);
    }
  }
  return Status::Ok();
}

Status SaveDenseMatrix(const linalg::Matrix& m, std::ostream& os) {
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      Status st = CheckDenseValue(m(i, j), "checkpoint");
      if (!st.ok()) return st;
      os << (j == 0 ? "" : " ") << m(i, j);
    }
    os << '\n';
  }
  return Status::Ok();
}

StatusOr<linalg::Matrix> LoadDenseMatrix(std::istream& is, long long rows,
                                         long long cols, const char* what) {
  if (rows < 0 || cols < 0 ||
      rows > std::numeric_limits<int>::max() ||
      cols > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument(std::string(what) + ": bad dimensions");
  }
  linalg::Matrix m(static_cast<size_t>(rows), static_cast<size_t>(cols));
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      double v = 0.0;
      if (!(is >> v)) {
        return Status::InvalidArgument(std::string(what) +
                                       ": truncated matrix values");
      }
      Status st = CheckDenseValue(v, what);
      if (!st.ok()) return st;
      m(i, j) = v;
    }
  }
  return m;
}

}  // namespace

std::string CrcHex(uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

StatusOr<std::string> ReadCheckedPayload(std::istream& is, long long bytes,
                                         uint32_t expected_crc,
                                         const char* what) {
  if (bytes < 0) {
    return Status::InvalidArgument(std::string(what) +
                                   ": negative payload size");
  }
  std::string payload(static_cast<size_t>(bytes), '\0');
  is.read(payload.data(), static_cast<std::streamsize>(bytes));
  if (is.gcount() != static_cast<std::streamsize>(bytes)) {
    return Status::InvalidArgument(
        std::string(what) + ": truncated payload (expected " +
        std::to_string(bytes) + " bytes, got " +
        std::to_string(is.gcount()) + ")");
  }
  const uint32_t actual = Crc32(payload);
  if (actual != expected_crc) {
    return Status::InvalidArgument(std::string(what) +
                                   ": CRC mismatch (file corrupt): expected " +
                                   CrcHex(expected_crc) + ", computed " +
                                   CrcHex(actual));
  }
  return payload;
}

uint32_t Crc32(std::string_view data) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int b = 0; b < 8; ++b) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Status AtomicWriteFile(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("cannot open for write: " + tmp + ": " +
                            std::strerror(errno));
  }
  size_t written = 0;
  while (written < contents.size()) {
    const ssize_t rc =
        ::write(fd, contents.data() + written, contents.size() - written);
    if (rc < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::Internal("write failed: " + tmp + ": " + err);
    }
    written += static_cast<size_t>(rc);
  }
  // The fsync-before-rename is what makes the rename a commit point: after
  // it, the temp file's bytes are durable, so the rename atomically flips
  // `path` from the old complete file to the new complete file.
  if (::fsync(fd) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::Internal("fsync failed: " + tmp + ": " + err);
  }
  if (::close(fd) != 0) {
    const std::string err = std::strerror(errno);
    ::unlink(tmp.c_str());
    return Status::Internal("close failed: " + tmp + ": " + err);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string err = std::strerror(errno);
    ::unlink(tmp.c_str());
    return Status::Internal("rename failed: " + path + ": " + err);
  }
  // Best-effort directory fsync so the rename itself survives a power
  // loss. Failure here is not fatal: the file contents are already safe.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::Ok();
}

Status SaveWorkloadMatrix(const WorkloadMatrix& w, std::ostream& os) {
  std::ostringstream payload;
  payload.precision(std::numeric_limits<double>::max_digits10);
  for (int i = 0; i < w.num_queries(); ++i) {
    for (int j = 0; j < w.num_hints(); ++j) {
      const CellState state = w.state(i, j);
      if (state == CellState::kUnobserved) continue;
      Status st = CheckCellValue(state, w.observed(i, j));
      if (!st.ok()) return st;
      payload << (state == CellState::kComplete ? "C " : "X ") << i << ' '
              << j << ' ' << w.observed(i, j) << '\n';
    }
  }
  const std::string body = payload.str();
  os << kMatrixMagic << ' ' << kMatrixVersion << ' ' << w.num_queries() << ' '
     << w.num_hints() << ' ' << body.size() << ' ' << CrcHex(Crc32(body))
     << '\n'
     << body;
  if (!os) return Status::Internal("write failed");
  return Status::Ok();
}

StatusOr<WorkloadMatrix> LoadWorkloadMatrix(std::istream& is) {
  std::string header;
  if (!std::getline(is, header)) {
    return Status::InvalidArgument("missing or truncated header");
  }
  std::istringstream hs(header);
  std::string magic, version;
  if (!(hs >> magic >> version)) {
    return Status::InvalidArgument("missing or truncated header");
  }
  if (magic != kMatrixMagic) {
    return Status::InvalidArgument("bad magic: " + magic);
  }
  if (version == kMatrixVersionLegacy) {
    // Legacy format: no payload length, no CRC; records run to EOF and a
    // truncation at a record boundary is undetectable. Kept readable for
    // matrices saved before the checksummed format existed.
    int n = 0, k = 0;
    if (!(hs >> n >> k)) {
      return Status::InvalidArgument("missing or truncated header");
    }
    if (n <= 0 || k <= 0) {
      return Status::InvalidArgument("non-positive matrix shape");
    }
    WorkloadMatrix w(n, k);
    Status st = ParseCellRecords(is, n, k, &w);
    if (!st.ok()) return st;
    return w;
  }
  if (version != kMatrixVersion) {
    return Status::InvalidArgument("unsupported version: " + version);
  }
  int n = 0, k = 0;
  long long payload_bytes = 0;
  std::string crc_hex;
  if (!(hs >> n >> k >> payload_bytes >> crc_hex)) {
    return Status::InvalidArgument("missing or truncated header");
  }
  if (n < 0 || k <= 0) {
    return Status::InvalidArgument("bad matrix shape");
  }
  const uint32_t expected_crc =
      static_cast<uint32_t>(std::strtoul(crc_hex.c_str(), nullptr, 16));
  StatusOr<std::string> payload =
      ReadCheckedPayload(is, payload_bytes, expected_crc, "workload matrix");
  if (!payload.ok()) return payload.status();
  WorkloadMatrix w(n, k);
  std::istringstream body(*payload);
  Status st = ParseCellRecords(body, n, k, &w);
  if (!st.ok()) return st;
  return w;
}

Status SaveWorkloadMatrixToFile(const WorkloadMatrix& w,
                                const std::string& path) {
  std::ostringstream os;
  Status st = SaveWorkloadMatrix(w, os);
  if (!st.ok()) return st;
  return AtomicWriteFile(path, os.str());
}

StatusOr<WorkloadMatrix> LoadWorkloadMatrixFromFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) return Status::Internal("cannot open for read: " + path);
  return LoadWorkloadMatrix(is);
}

Status SaveEngineCheckpoint(const EngineCheckpoint& c, std::ostream& os) {
  Status st = CheckCheckpointFields(c);
  if (!st.ok()) return st;
  std::ostringstream payload;
  payload.precision(std::numeric_limits<double>::max_digits10);
  st = SaveWorkloadMatrix(c.matrix, payload);
  if (!st.ok()) return st;
  payload << "factors " << c.factors.query_factors.rows() << ' '
          << c.factors.query_factors.cols() << ' '
          << c.factors.hint_factors.rows() << ' '
          << c.factors.hint_factors.cols() << '\n';
  st = SaveDenseMatrix(c.factors.query_factors, payload);
  if (st.ok()) st = SaveDenseMatrix(c.factors.hint_factors, payload);
  if (!st.ok()) return st;
  payload << "predictions " << (c.have_predictions ? 1 : 0) << ' '
          << c.predictions.rows() << ' ' << c.predictions.cols() << '\n';
  st = SaveDenseMatrix(c.predictions, payload);
  if (!st.ok()) return st;
  payload << "ledger " << c.regret_spent << ' ' << c.explorations << '\n';
  payload << "counters " << c.serving_seq << ' ' << c.updates_since_refresh
          << ' ' << c.snapshot_version << '\n';
  const std::string body = payload.str();
  os << kCheckpointMagic << ' ' << kCheckpointVersion << ' ' << body.size()
     << ' ' << CrcHex(Crc32(body)) << '\n'
     << body;
  if (!os) return Status::Internal("write failed");
  return Status::Ok();
}

StatusOr<EngineCheckpoint> LoadEngineCheckpoint(std::istream& is) {
  std::string header;
  if (!std::getline(is, header)) {
    return Status::InvalidArgument("checkpoint: missing or truncated header");
  }
  std::istringstream hs(header);
  std::string magic, version, crc_hex;
  long long payload_bytes = 0;
  if (!(hs >> magic >> version >> payload_bytes >> crc_hex)) {
    return Status::InvalidArgument("checkpoint: missing or truncated header");
  }
  if (magic != kCheckpointMagic) {
    return Status::InvalidArgument("checkpoint: bad magic: " + magic);
  }
  if (version != kCheckpointVersion) {
    return Status::InvalidArgument("checkpoint: unsupported version: " +
                                   version);
  }
  const uint32_t expected_crc =
      static_cast<uint32_t>(std::strtoul(crc_hex.c_str(), nullptr, 16));
  StatusOr<std::string> payload =
      ReadCheckedPayload(is, payload_bytes, expected_crc, "checkpoint");
  if (!payload.ok()) return payload.status();

  std::istringstream body(*payload);
  EngineCheckpoint c;
  StatusOr<WorkloadMatrix> matrix = LoadWorkloadMatrix(body);
  if (!matrix.ok()) return matrix.status();
  c.matrix = *std::move(matrix);

  std::string word;
  long long qr = 0, qc = 0, hr = 0, hc = 0;
  if (!(body >> word >> qr >> qc >> hr >> hc) || word != "factors") {
    return Status::InvalidArgument("checkpoint: malformed factors section");
  }
  StatusOr<linalg::Matrix> qf = LoadDenseMatrix(body, qr, qc, "checkpoint");
  if (!qf.ok()) return qf.status();
  StatusOr<linalg::Matrix> hf = LoadDenseMatrix(body, hr, hc, "checkpoint");
  if (!hf.ok()) return hf.status();
  c.factors.query_factors = *std::move(qf);
  c.factors.hint_factors = *std::move(hf);

  long long have = 0, pr = 0, pc = 0;
  if (!(body >> word >> have >> pr >> pc) || word != "predictions") {
    return Status::InvalidArgument(
        "checkpoint: malformed predictions section");
  }
  StatusOr<linalg::Matrix> pred = LoadDenseMatrix(body, pr, pc, "checkpoint");
  if (!pred.ok()) return pred.status();
  c.predictions = *std::move(pred);
  c.have_predictions = have != 0;

  if (!(body >> word >> c.regret_spent >> c.explorations) ||
      word != "ledger") {
    return Status::InvalidArgument("checkpoint: malformed ledger section");
  }
  if (!(body >> word >> c.serving_seq >> c.updates_since_refresh >>
        c.snapshot_version) ||
      word != "counters") {
    return Status::InvalidArgument("checkpoint: malformed counters section");
  }
  Status st = CheckCheckpointFields(c);
  if (!st.ok()) return st;
  return c;
}

Status SaveEngineCheckpointToFile(const EngineCheckpoint& c,
                                  const std::string& path) {
  std::ostringstream os;
  Status st = SaveEngineCheckpoint(c, os);
  if (!st.ok()) return st;
  return AtomicWriteFile(path, os.str());
}

StatusOr<EngineCheckpoint> LoadEngineCheckpointFromFile(
    const std::string& path) {
  std::ifstream is(path);
  if (!is) return Status::Internal("cannot open for read: " + path);
  return LoadEngineCheckpoint(is);
}

}  // namespace limeqo::core
