#ifndef LIMEQO_CORE_COMPLETER_H_
#define LIMEQO_CORE_COMPLETER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/workload_matrix.h"
#include "linalg/matrix.h"
#include "linalg/solve.h"

namespace limeqo::core {

/// The factor state a warm-startable completion algorithm carries between
/// refits: the query-side (n x r) and hint-side (k x r) factor matrices of
/// the last fit. An empty state means "cold-start the next fit". The state
/// is a pure function of the observation matrices it was fitted on — it
/// must never be reused across a data shift (see Completer::CompleteFrom).
struct CompletionFactors {
  linalg::Matrix query_factors;
  linalg::Matrix hint_factors;

  /// True when no factor state is held (the next fit cold-starts).
  bool empty() const {
    return query_factors.size() == 0 || hint_factors.size() == 0;
  }
  /// Drops the state; the next CompleteFrom cold-starts.
  void clear() {
    query_factors = linalg::Matrix();
    hint_factors = linalg::Matrix();
  }
};

/// One observed or censored cell of a sparse fit problem (the row-major cell
/// list AlsCompleter builds once per completion; unobserved cells are not
/// stored).
struct FitCell {
  /// What the cell contributes to the fit.
  enum class Kind : uint8_t {
    /// Complete observation: a least-squares target.
    kObserved,
    /// Censored cell fitted as if its timeout were the latency
    /// (CensoredMode::kNaiveObserved): a least-squares target.
    kTimeoutAsObserved,
    /// Complete observation held out for validation: predicted during the
    /// sweeps, passed through in the output.
    kHeldOut,
    /// Censored cell under CensoredMode::kCensored: a lower bound the fill
    /// clamps predictions up to.
    kBound,
  };
  /// Hint column of the cell.
  uint32_t col = 0;
  /// Role of the cell in the fit.
  Kind kind = Kind::kObserved;
  /// Fit-space target (or bound): raw, or log-ratio after the biases.
  double value = 0.0;
  /// Raw latency (complete cells) or timeout (censored cells): the output
  /// passthrough and the censored floor.
  double raw = 0.0;
};

/// A (row, cell-list position) pair: an entry of a column index or of the
/// validation list over a FitCell list.
struct FitCellRef {
  /// Query row of the cell.
  uint32_t row = 0;
  /// Position of the cell in the row-major FitCell list.
  uint32_t cell = 0;
};

/// Reusable scratch buffers for one completion job: the sparse cell list
/// and its row/column indices, the per-cell residuals, the per-sweep
/// factor-update outputs, and the Gram/Cholesky workspaces of the ridge
/// solves. Every buffer is fully overwritten before it is read, so an
/// arena-backed completion is bitwise identical to one using private
/// buffers — the arena only removes the per-call allocations: once its
/// buffers have grown to a problem's size, the result matrix is the only
/// allocation of a completion that scales with the problem. Ownership
/// model: a completer holds at most a
/// *borrowed* arena (SetArena) and the borrower serializes use — the shared
/// train executor keeps one arena per worker thread and installs it into
/// whichever shard's completer that worker is currently refitting, so a
/// fleet of N shards warms one set of buffers per worker instead of N
/// private copies.
struct CompletionArena {
  /// Observed and censored cells in row-major order (one entry per cell).
  std::vector<FitCell> cells;
  /// Row index: row i's cells are cells[row_start[i], row_start[i + 1]).
  std::vector<size_t> row_start;
  /// Column index: column j's fitted cells, in ascending row order, are
  /// col_cells[col_start[j], col_start[j + 1]).
  std::vector<size_t> col_start;
  /// Column-index entries (held-out cells excluded).
  std::vector<FitCellRef> col_cells;
  /// Column bounds of the H half-sweep's cost-balanced chunks.
  std::vector<size_t> h_chunks;
  /// Held-out validation cells, in row-major order.
  std::vector<FitCellRef> held_out;
  /// Per-cell residual of the fill against the factor product.
  std::vector<double> residual;
  /// Log-ratio per-query bias (n entries; unused in raw space).
  std::vector<double> row_bias;
  /// Log-ratio per-hint bias (k entries; unused in raw space).
  std::vector<double> col_bias;
  /// Query-factor update output (n x r), swapped with the live factors.
  linalg::Matrix q_next;
  /// Hint-factor update output (k x r), swapped with the live factors.
  linalg::Matrix h_next;
  /// Best-validation query factors (n x r).
  linalg::Matrix best_q;
  /// Best-validation hint factors (k x r).
  linalg::Matrix best_h;
  /// Gram/Cholesky scratch shared by every ridge solve of the job.
  linalg::RidgeWorkspace ridge;
};

/// A matrix-completion algorithm: estimates the full workload matrix W-hat
/// from the partial observations in a WorkloadMatrix. Implementations:
/// AlsCompleter (the paper's Algorithm 2), SvtCompleter and
/// NuclearNormCompleter (the Sec. 5.5.5 comparison baselines).
class Completer {
 public:
  virtual ~Completer() = default;

  /// Produces the estimate W-hat. Observed (complete) entries are passed
  /// through unchanged; unobserved entries are predictions. Returns an error
  /// when the input has no complete observations to learn from.
  virtual StatusOr<linalg::Matrix> Complete(const WorkloadMatrix& w) = 0;

  /// The warm-start contract for the train plane's refresh path: complete
  /// `w`, seeding the solver from `factors` when they are compatible with
  /// the problem shape (cold-starting otherwise), and write the refit
  /// factor state back into `factors` for the next call.
  ///
  /// Contract:
  ///  * the result depends only on (w, *factors) — never on matrices fed
  ///    to earlier calls, so the caller fully controls what state leaks
  ///    between refits (clear the factors across a data shift and nothing
  ///    from the old data can influence the new fit);
  ///  * a warm-started fit must agree with the cold-started fit on the same
  ///    matrix up to the solver's convergence tolerance;
  ///  * `factors == nullptr` requests a plain cold start.
  ///
  /// The base implementation is for solvers with no factor form: it clears
  /// `factors` and delegates to Complete.
  virtual StatusOr<linalg::Matrix> CompleteFrom(const WorkloadMatrix& w,
                                                CompletionFactors* factors) {
    if (factors != nullptr) factors->clear();
    return Complete(w);
  }

  /// Installs (or, with nullptr, removes) a borrowed scratch arena for
  /// subsequent Complete/CompleteFrom calls. The caller owns the arena and
  /// must keep it alive and unshared while any completion that uses it
  /// runs. Arena-backed results are bitwise identical to arena-less ones,
  /// and a warmed arena leaves the result matrix as the completion's only
  /// size-dependent allocation; the base implementation ignores the arena
  /// (solvers with no reusable scratch).
  virtual void SetArena(CompletionArena* arena) { (void)arena; }

  /// Display name for reports, e.g. "ALS".
  virtual std::string name() const = 0;
};

}  // namespace limeqo::core

#endif  // LIMEQO_CORE_COMPLETER_H_
