#include "core/als.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/solve.h"

namespace limeqo::core {
namespace {

using Kind = FitCell::Kind;

// Latencies below this are clamped before the log transform.
constexpr double kEpsLatency = 1e-6;

double SafeLog(double v) { return std::log(std::max(v, kEpsLatency)); }

// The per-cell and per-row kernels take the rank R as a compile-time
// constant (R = 0: the runtime rank `r`), so the sweep for each common rank
// unrolls its r-length loops. Every R runs the same sums in the same order;
// the build is ISO C++ (no FP contraction), so unrolling changes no bits.
template <size_t R>
constexpr size_t RankOf(size_t r) {
  return R > 0 ? R : r;
}

template <size_t R>
double Dot(const double* __restrict a, const double* __restrict b, size_t r) {
  double s = 0.0;
  for (size_t c = 0; c < RankOf<R>(r); ++c) s += a[c] * b[c];
  return s;
}

// S_ij, the fill W-hat minus the factor product at one stored cell: the
// target minus the prediction, or for a censoring bound the amount the
// prediction falls short of it (zero once the prediction clears it).
double Residual(const FitCell& cell, double pred) {
  const double s = cell.value - pred;
  return cell.kind == Kind::kBound ? std::max(s, 0.0) : s;
}

// out = G x for the symmetric r x r Gram G (the dense half of a
// right-hand-side row).
template <size_t R>
void GramTimes(const double* __restrict g, const double* __restrict x,
               size_t r, double* __restrict out) {
  const size_t m = RankOf<R>(r);
  std::fill(out, out + m, 0.0);
  for (size_t p = 0; p < m; ++p) {
    const double xp = x[p];
    const double* g_row = g + p * m;
    for (size_t c = 0; c < m; ++c) out[c] += xp * g_row[c];
  }
}

template <size_t R>
void AddScaled(double s, const double* __restrict y, size_t r,
               double* __restrict out) {
  for (size_t c = 0; c < RankOf<R>(r); ++c) out[c] += s * y[c];
}

// Where a sweep builds one factor row: for a fixed rank, a local array the
// compiler can keep in registers (no store can alias it), copied out once
// the row is final; for the runtime rank, the output row itself.
template <size_t R>
struct RowBuffer {
  double local[R > 0 ? R : 1];
  double* For(double* out) { return R > 0 ? local : out; }
  void Store(const double* row, size_t r, double* out) {
    if (R > 0) std::copy(row, row + r, out);
  }
};

// Splits columns [0, k) into `chunks` contiguous ranges of near-equal cost,
// column j costing `fixed` plus `per_entry` for each of its col_start
// entries, and writes the chunks + 1 range bounds to `bounds`. The hint
// columns are far from equal: hint 0 (the default plan) is stored on every
// row, so equal column counts would load the first chunk the most.
void SplitColumnsByCost(const std::vector<size_t>& col_start, size_t fixed,
                        size_t per_entry, size_t chunks,
                        std::vector<size_t>* bounds) {
  const size_t k = col_start.size() - 1;
  auto prefix_cost = [&](size_t j) {
    return j * fixed + per_entry * col_start[j];
  };
  const size_t total = prefix_cost(k);
  bounds->resize(chunks + 1);
  (*bounds)[0] = 0;
  size_t j = 0;
  for (size_t t = 1; t < chunks; ++t) {
    while (j < k && prefix_cost(j) * chunks < t * total) ++j;
    (*bounds)[t] = j;
  }
  (*bounds)[chunks] = k;
}

// The alternating sweeps (Algorithm 2 lines 2-12) over the fit problem the
// set-up left in `arena`, from the initial factors in q and h, for rank R
// (R = 0: any rank). Each sweep is two passes. The Q pass forms
// H^T H + lambda I and its Cholesky factor once, then per row builds the
// right-hand side G q_i + sum_j s_ij h_j, solves it in place, clamps it,
// and computes the H pass's residuals against the new q_i. The H pass
// does the same per column with S^T Q, in cost-balanced column chunks.
// Writes the sweep count to *sweeps; q and h end as the returned fit.
template <size_t R>
Status AlternateSweeps(const AlsOptions& options, bool non_negative,
                       CompletionArena& arena, linalg::Matrix& q,
                       linalg::Matrix& h, int* sweeps) {
  const size_t n = q.rows(), k = h.rows(), r = RankOf<R>(q.cols());
  const std::vector<FitCell>& cells = arena.cells;
  const std::vector<size_t>& row_start = arena.row_start;
  const std::vector<size_t>& col_start = arena.col_start;
  const std::vector<FitCellRef>& col_cells = arena.col_cells;
  const std::vector<FitCellRef>& held_out = arena.held_out;
  linalg::RidgeWorkspace& ws = arena.ridge;
  linalg::Matrix& q_next = arena.q_next;
  linalg::Matrix& h_next = arena.h_next;
  std::vector<double>& residual = arena.residual;
  residual.resize(cells.size());
  q_next.ResizeUninitialized(n, r);
  h_next.ResizeUninitialized(k, r);
  // Flops per row or column: a Gram product and a solve (2r^2 each), and
  // per stored cell a dot product and an axpy (2r each; the Q pass adds
  // the residual's dot product).
  const size_t row_cells = cells.size() / std::max<size_t>(n, 1) + 1;
  const size_t col_entries = col_cells.size() / k + 1;
  const size_t q_grain = GrainForCost(4 * r * r + 6 * r * row_cells);
  const size_t h_grain = GrainForCost(4 * r * r + 2 * r * col_entries);
  const size_t h_chunk_count = std::min<size_t>(
      static_cast<size_t>(NumThreads()), (k + h_grain - 1) / h_grain);
  std::vector<size_t>& h_chunks = arena.h_chunks;
  SplitColumnsByCost(col_start, 4 * r * r, 2 * r, h_chunk_count, &h_chunks);

  // ws.gram <- A^T A, and the ridge system A^T A + lambda I factored.
  auto factor_gram = [&](const linalg::Matrix& a) {
    linalg::GramInto<R>(a, &ws.gram);
    return linalg::RidgeFactorGram(options.lambda, &ws);
  };
  // Rows [begin, end) of `out` (n x r or k x r): build(i, row) writes row
  // i's right-hand side, the row is solved against the factored system and
  // projected (Algorithm 2 lines 7 and 12), and finish(i, row) reads the
  // final row before it is stored. Rows go two at a time so their
  // substitution chains interleave.
  auto solve_rows = [&](size_t begin, size_t end, double* out, auto&& build,
                        auto&& finish) {
    RowBuffer<R> buffers[2];
    for (size_t i = begin; i < end; i += 2) {
      const size_t count = std::min<size_t>(2, end - i);
      double* rows[2];
      for (size_t t = 0; t < count; ++t) {
        rows[t] = buffers[t].For(out + (i + t) * r);
        build(i + t, rows[t]);
      }
      const double* l = ws.chol.data();
      const double* u = ws.upper.data();
      const double* inv_diag = ws.inv_diag.data();
      if (count == 2) {
        linalg::SolveCholeskyRows<R, 2>(l, u, inv_diag, r, rows);
      } else {
        linalg::SolveCholeskyRows<R, 1>(l, u, inv_diag, r, rows);
      }
      for (size_t t = 0; t < count; ++t) {
        double* row = rows[t];
        if (non_negative) {
          for (size_t c = 0; c < r; ++c) row[c] = std::max(row[c], 0.0);
        }
        finish(i + t, row);
        buffers[t].Store(row, r, out + (i + t) * r);
      }
    }
  };
  // Q <- W-hat H (H^T H + lambda I)^-1 (lines 3-7), fused with the H
  // pass's residual pass (its first half, lines 8-10).
  auto update_q = [&]() -> Status {
    Status st = factor_gram(h);
    if (!st.ok()) return st;
    const double* g = ws.gram.data();
    const double* q_data = q.data();
    const double* h_data = h.data();
    auto build = [&](size_t i, double* row) {
      const double* q_i = q_data + i * r;
      GramTimes<R>(g, q_i, r, row);
      for (size_t c = row_start[i]; c < row_start[i + 1]; ++c) {
        const FitCell& cell = cells[c];
        if (cell.kind == Kind::kHeldOut) continue;
        const double* h_j = h_data + cell.col * r;
        const double s = Residual(cell, Dot<R>(q_i, h_j, r));
        if (s != 0.0) AddScaled<R>(s, h_j, r, row);
      }
    };
    // The H side's residuals against the new q_i (and the old H).
    auto finish = [&](size_t i, const double* row) {
      for (size_t c = row_start[i]; c < row_start[i + 1]; ++c) {
        const FitCell& cell = cells[c];
        if (cell.kind == Kind::kHeldOut) continue;
        const double* h_j = h_data + cell.col * r;
        residual[c] = Residual(cell, Dot<R>(row, h_j, r));
      }
    };
    ParallelFor(
        0, n,
        [&](size_t row_begin, size_t row_end) {
          solve_rows(row_begin, row_end, q_next.data(), build, finish);
        },
        q_grain);
    return Status::Ok();
  };
  // H <- W-hat^T Q (Q^T Q + lambda I)^-1 (lines 8-12): each column's
  // S^T Q accumulated in ascending row order, then solved and clamped.
  auto update_h = [&]() -> Status {
    Status st = factor_gram(q);
    if (!st.ok()) return st;
    const double* g = ws.gram.data();
    const double* q_data = q.data();
    const double* h_data = h.data();
    auto build = [&](size_t j, double* row) {
      GramTimes<R>(g, h_data + j * r, r, row);
      for (size_t e = col_start[j]; e < col_start[j + 1]; ++e) {
        const FitCellRef ref = col_cells[e];
        const double s = residual[ref.cell];
        if (s != 0.0) AddScaled<R>(s, q_data + ref.row * r, r, row);
      }
    };
    ParallelFor(
        0, h_chunk_count,
        [&](size_t chunk_begin, size_t chunk_end) {
          solve_rows(h_chunks[chunk_begin], h_chunks[chunk_end],
                     h_next.data(), build, [](size_t, const double*) {});
        },
        1);
    return Status::Ok();
  };

  linalg::Matrix& best_q = arena.best_q;
  linalg::Matrix& best_h = arena.best_h;
  if (!held_out.empty()) {
    best_q = q;
    best_h = h;
  }
  double best_val_rmse = std::numeric_limits<double>::infinity();
  auto validation_rmse = [&]() {
    double se = 0.0;
    for (const FitCellRef& ref : held_out) {
      const FitCell& cell = cells[ref.cell];
      const double d =
          Dot<R>(q.data() + ref.row * r, h.data() + cell.col * r, r) -
          cell.value;
      se += d * d;
    }
    return std::sqrt(se / held_out.size());
  };
  // Under the convergence criterion the *initial* factors are the first
  // candidate fit: a warm start already at the alternating fixed point
  // then exits after just the patience window. (Skipped when tol == 0 so
  // the fixed-iteration path runs Algorithm 2's t sweeps.)
  const bool converging = options.convergence_tol > 0.0;
  if (converging && !held_out.empty()) best_val_rmse = validation_rmse();
  int stalled_sweeps = 0;
  *sweeps = 0;
  for (int iter = 0; iter < options.iterations; ++iter) {
    ++*sweeps;
    Status q_st = update_q();
    if (!q_st.ok()) return q_st;
    std::swap(q, q_next);

    Status h_st = update_h();
    if (!h_st.ok()) return h_st;
    std::swap(h, h_next);

    if (!held_out.empty()) {
      const double val_rmse = validation_rmse();
      const bool improved_enough =
          val_rmse < best_val_rmse * (1.0 - options.convergence_tol);
      if (val_rmse < best_val_rmse) {
        best_val_rmse = val_rmse;
        best_q = q;
        best_h = h;
      }
      // Validation-stall convergence: once held-out error stops improving
      // the best factors are frozen anyway (the early-stopping guard), so
      // further sweeps only burn time.
      if (converging) {
        stalled_sweeps = improved_enough ? 0 : stalled_sweeps + 1;
        if (stalled_sweeps >= options.convergence_patience) break;
      }
    } else if (converging) {
      // No validation split (tiny matrices): fall back to the relative
      // factor movement per sweep — q_next / h_next hold the pre-sweep
      // factors (the swaps above), so the delta costs no extra copies.
      // Serial loops keep the check thread-count-invariant.
      double delta = 0.0;
      double norm = 0.0;
      for (size_t c = 0; c < q.size(); ++c) {
        const double d = q.data()[c] - q_next.data()[c];
        delta += d * d;
        norm += q.data()[c] * q.data()[c];
      }
      for (size_t c = 0; c < h.size(); ++c) {
        const double d = h.data()[c] - h_next.data()[c];
        delta += d * d;
        norm += h.data()[c] * h.data()[c];
      }
      if (std::sqrt(delta) <=
          options.convergence_tol * std::sqrt(norm) + 1e-30) {
        break;
      }
    }
  }
  if (!held_out.empty()) {
    std::swap(q, best_q);
    std::swap(h, best_h);
  }
  return Status::Ok();
}

// One instantiation of AlternateSweeps per common rank; any other rank
// runs the R = 0 instantiation of the same source.
Status AlternateSweepsAtRank(const AlsOptions& options, bool non_negative,
                             CompletionArena& arena, linalg::Matrix& q,
                             linalg::Matrix& h, int* sweeps) {
  switch (options.rank) {
    case 1:
      return AlternateSweeps<1>(options, non_negative, arena, q, h, sweeps);
    case 2:
      return AlternateSweeps<2>(options, non_negative, arena, q, h, sweeps);
    case 3:
      return AlternateSweeps<3>(options, non_negative, arena, q, h, sweeps);
    case 4:
      return AlternateSweeps<4>(options, non_negative, arena, q, h, sweeps);
    case 5:
      return AlternateSweeps<5>(options, non_negative, arena, q, h, sweeps);
    case 6:
      return AlternateSweeps<6>(options, non_negative, arena, q, h, sweeps);
    case 7:
      return AlternateSweeps<7>(options, non_negative, arena, q, h, sweeps);
    case 8:
      return AlternateSweeps<8>(options, non_negative, arena, q, h, sweeps);
    case 10:
      return AlternateSweeps<10>(options, non_negative, arena, q, h, sweeps);
    default:
      return AlternateSweeps<0>(options, non_negative, arena, q, h, sweeps);
  }
}

bool AllFinite(const linalg::Matrix& m) {
  for (size_t c = 0; c < m.size(); ++c) {
    if (!std::isfinite(m.data()[c])) return false;
  }
  return true;
}

}  // namespace

AlsCompleter::AlsCompleter(AlsOptions options) : options_(options) {
  LIMEQO_CHECK(options_.rank > 0);
  LIMEQO_CHECK(options_.lambda > 0.0);
  LIMEQO_CHECK(options_.iterations > 0);
}

StatusOr<linalg::Matrix> AlsCompleter::Complete(const WorkloadMatrix& w) {
  return CompleteInternal(w, nullptr);
}

StatusOr<linalg::Matrix> AlsCompleter::CompleteFrom(
    const WorkloadMatrix& w, CompletionFactors* factors) {
  StatusOr<linalg::Matrix> result = CompleteInternal(w, factors);
  if (result.ok() && factors != nullptr) {
    factors->query_factors = q_;
    factors->hint_factors = h_;
  }
  return result;
}

StatusOr<linalg::Matrix> AlsCompleter::CompleteInternal(
    const WorkloadMatrix& w, const CompletionFactors* warm) {
  const size_t n = static_cast<size_t>(w.num_queries());
  const size_t k = static_cast<size_t>(w.num_hints());
  const size_t r = static_cast<size_t>(options_.rank);
  const bool log_space = options_.fit_space == FitSpace::kLogRatio;
  const CensoredMode mode = options_.censored_mode;

  // Every buffer comes from the installed arena (the shared train plane
  // pools one per executor worker across all shards) or the private
  // fallback. Every buffer is fully overwritten before it is read, so the
  // two paths are bitwise identical.
  CompletionArena& arena = arena_ != nullptr ? *arena_ : fallback_arena_;
  std::vector<FitCell>& cells = arena.cells;
  std::vector<size_t>& row_start = arena.row_start;

  // The sparse fit problem, in one pass over the observations: complete
  // cells are targets; censored cells are lower bounds under kCensored,
  // targets at their timeout under kNaiveObserved, and dropped under
  // kIgnore. Unobserved cells are not stored. A censored cell's value is
  // its timeout, so one values() read serves both kinds.
  cells.clear();
  row_start.resize(n + 1);
  size_t num_complete = 0;
  for (size_t i = 0; i < n; ++i) {
    row_start[i] = cells.size();
    const CellState* states = w.row_states(static_cast<int>(i));
    const double* values = w.row_values(static_cast<int>(i));
    for (size_t j = 0; j < k; ++j) {
      FitCell cell;
      cell.col = static_cast<uint32_t>(j);
      if (states[j] == CellState::kComplete) {
        cell.kind = Kind::kObserved;
        ++num_complete;
      } else if (states[j] == CellState::kCensored &&
                 mode != CensoredMode::kIgnore) {
        cell.kind = mode == CensoredMode::kCensored ? Kind::kBound
                                                    : Kind::kTimeoutAsObserved;
      } else {
        continue;
      }
      // +Inf passes the matrix's non-negativity check; a fit through it
      // could hide behind the early-stopping guard (the held-out error is
      // NaN, so the random initial factors stay "best") and still emit
      // non-finite predictions.
      if (!std::isfinite(values[j])) {
        return Status::InvalidArgument("ALS needs finite latencies");
      }
      cell.raw = values[j];
      cell.value = cell.raw;
      cells.push_back(cell);
    }
  }
  row_start[n] = cells.size();
  if (num_complete == 0) {
    return Status::FailedPrecondition(
        "ALS needs at least one complete observation");
  }
  LIMEQO_CHECK(n <= std::numeric_limits<uint32_t>::max() &&
               cells.size() <= std::numeric_limits<uint32_t>::max());

  // Log-ratio space: x = log(v) - b_i - c_j, with b_i the row's observed
  // default log latency (fallback: row mean, then global mean) and c_j a
  // shrunk per-hint mean residual. Censored cells contribute their
  // threshold to c_j (a lower bound on the hint's true latency): this is
  // conservative Tobit-style evidence that the hint is *not fast* on that
  // row, and it is exactly the information the initial all-defaults matrix
  // lacks — without it, a hint that keeps timing out retains a neutral
  // bias and keeps attracting probes.
  //
  // The same pass records the observed ratio envelope for the output:
  // predicted log ratios are clamped to the range of complete observations
  // (with a small margin), because a sparse low-rank fit occasionally
  // extrapolates a cell to a speedup far beyond anything ever measured,
  // and such phantom predictions would dominate Algorithm 1's
  // improvement-ratio ranking and send exploration chasing artifacts.
  std::vector<double>& row_bias = arena.row_bias;
  std::vector<double>& col_bias = arena.col_bias;
  double lo_ratio = 0.0, hi_ratio = 0.0;
  if (log_space) {
    double global_sum = 0.0;
    int global_count = 0;
    for (FitCell& cell : cells) {
      cell.value = SafeLog(cell.raw);
      if (cell.kind != Kind::kBound) {
        global_sum += cell.value;
        ++global_count;
      }
    }
    const double global_mean =
        global_count > 0 ? global_sum / global_count : 0.0;
    row_bias.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const size_t begin = row_start[i], end = row_start[i + 1];
      if (begin < end && cells[begin].col == 0 &&
          cells[begin].kind != Kind::kBound) {
        row_bias[i] = cells[begin].value;
        continue;
      }
      double sum = 0.0;
      int count = 0;
      for (size_t c = begin; c < end; ++c) {
        if (cells[c].kind == Kind::kBound) continue;
        sum += cells[c].value;
        ++count;
      }
      row_bias[i] = count > 0 ? sum / count : global_mean;
    }
    // Column sums accumulate in row order, column counts in col_start.
    col_bias.assign(k, 0.0);
    std::vector<size_t>& col_count = arena.col_start;
    col_count.assign(k, 0);
    bool any = false;
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = row_start[i]; c < row_start[i + 1]; ++c) {
        FitCell& cell = cells[c];
        const double x = cell.value - row_bias[i];
        if (cell.kind == Kind::kObserved) {
          if (!any || x < lo_ratio) lo_ratio = x;
          if (!any || x > hi_ratio) hi_ratio = x;
          any = true;
        }
        col_bias[cell.col] += x;
        ++col_count[cell.col];
        cell.value = x;
      }
    }
    for (size_t j = 0; j < k; ++j) {
      col_bias[j] /= static_cast<double>(col_count[j]) +
                     options_.bias_shrinkage;
    }
    for (FitCell& cell : cells) cell.value -= col_bias[cell.col];
    constexpr double kEnvelopeMargin = 0.2;  // ~ +/- 22% beyond observed
    lo_ratio -= kEnvelopeMargin;
    hi_ratio += kEnvelopeMargin;
  }

  // Carve a validation split out of the complete observations. Validation
  // cells are removed from the fit but still pass through as observed
  // values in the final output.
  //
  // Only cells from rows with at least two *distinct* observed values
  // qualify: workload matrices contain large plan-equivalence classes whose
  // cells share one latency, and most rows start with only the default
  // class observed. A validation set drawn from such constant rows is
  // trivially easy and biases early stopping toward factors that predict
  // "the row constant" everywhere, erasing the signal of the few genuinely
  // distinct observations. (Exact equality is intentional: equivalence
  // classes share bit-identical values by construction.)
  Rng val_rng(options_.seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<FitCellRef>& held_out = arena.held_out;
  held_out.clear();
  if (options_.early_stopping && num_complete >= 20) {
    for (size_t i = 0; i < n; ++i) {
      const size_t begin = row_start[i], end = row_start[i + 1];
      double first_value = 0.0;
      bool have_first = false;
      bool diverse = false;
      for (size_t c = begin; c < end && !diverse; ++c) {
        if (cells[c].kind != Kind::kObserved) continue;
        if (!have_first) {
          first_value = cells[c].raw;
          have_first = true;
        } else if (cells[c].raw != first_value) {
          diverse = true;
        }
      }
      if (!diverse) continue;
      for (size_t c = begin; c < end; ++c) {
        if (cells[c].kind == Kind::kObserved &&
            val_rng.Bernoulli(options_.validation_fraction)) {
          cells[c].kind = Kind::kHeldOut;
          held_out.push_back(
              {static_cast<uint32_t>(i), static_cast<uint32_t>(c)});
        }
      }
    }
  }

  // Column index over the fitted cells (held-out cells excluded), each
  // column in ascending row order: the H half-sweep accumulates per column
  // in this fixed order, so it is bitwise stable for any thread count.
  std::vector<size_t>& col_start = arena.col_start;
  std::vector<FitCellRef>& col_cells = arena.col_cells;
  col_start.assign(k + 1, 0);
  for (const FitCell& cell : cells) {
    if (cell.kind != Kind::kHeldOut) ++col_start[cell.col + 1];
  }
  for (size_t j = 0; j < k; ++j) col_start[j + 1] += col_start[j];
  col_cells.resize(col_start[k]);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = row_start[i]; c < row_start[i + 1]; ++c) {
      if (cells[c].kind == Kind::kHeldOut) continue;
      col_cells[col_start[cells[c].col]++] = {static_cast<uint32_t>(i),
                                              static_cast<uint32_t>(c)};
    }
  }
  // The fill loop advanced every start to the next column's; shift back.
  for (size_t j = k; j > 0; --j) col_start[j] = col_start[j - 1];
  col_start[0] = 0;

  // Mean fitted value of row i (raw-space initialization scale).
  auto row_fit_mean = [&](size_t i, double fallback) {
    double sum = 0.0;
    int count = 0;
    for (size_t c = row_start[i]; c < row_start[i + 1]; ++c) {
      if (cells[c].kind == Kind::kHeldOut || cells[c].kind == Kind::kBound) {
        continue;
      }
      sum += cells[c].value;
      ++count;
    }
    return count > 0 ? sum / count : fallback;
  };

  // Initialize the factors (Algorithm 2 line 1). A warm start (the
  // CompleteFrom contract) copies the previous fit's factors when their
  // shapes are compatible: same rank, same hint count, and at most as many
  // query rows as today's matrix — rows that arrived since the last fit
  // fall through to the cold initialization below. Otherwise, in raw
  // space, positive random values scaled per row so the initial prediction
  // for query i is near its mean observed latency: latencies span orders
  // of magnitude, so a row-aware start matters. In log-ratio space the
  // biases already absorb the scale, so small signed factors around zero
  // are correct. Every entry of q_ and h_ is written below.
  const bool warm_compatible =
      warm != nullptr && !warm->empty() && warm->query_factors.cols() == r &&
      warm->hint_factors.cols() == r && warm->hint_factors.rows() == k &&
      warm->query_factors.rows() <= n;
  const size_t warm_rows = warm_compatible ? warm->query_factors.rows() : 0;
  Rng rng(options_.seed);
  q_.ResizeUninitialized(n, r);
  h_.ResizeUninitialized(k, r);
  if (warm_compatible) {
    std::copy(warm->query_factors.data(),
              warm->query_factors.data() + warm_rows * r, q_.data());
    std::copy(warm->hint_factors.data(), warm->hint_factors.data() + k * r,
              h_.data());
    // Fresh rows (queries that arrived after the warm factors were fitted)
    // get the same per-space cold initialization as below: small signed
    // factors in log-ratio space, row-mean-scaled positive factors in raw
    // space. The scale matters in raw space: the first fill seeds the
    // row's unobserved targets from these factors, so a near-zero init
    // would anchor a fresh row's predictions at ~0 and manufacture
    // phantom improvement ratios for every newly arrived query.
    for (size_t i = warm_rows; i < n; ++i) {
      if (log_space) {
        for (size_t c = 0; c < r; ++c) q_(i, c) = rng.Uniform(-0.1, 0.1);
        continue;
      }
      const double scale = std::max(row_fit_mean(i, 1.0), 1e-6) / r;
      for (size_t c = 0; c < r; ++c) {
        q_(i, c) = scale * rng.Uniform(0.6, 1.4);
      }
    }
  } else if (log_space) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < r; ++c) q_(i, c) = rng.Uniform(-0.1, 0.1);
    }
    for (size_t j = 0; j < k; ++j) {
      for (size_t c = 0; c < r; ++c) h_(j, c) = rng.Uniform(-0.1, 0.1);
    }
  } else {
    double global_mean = 0.0;
    int count_obs = 0;
    for (const FitCell& cell : cells) {
      if (cell.kind == Kind::kHeldOut || cell.kind == Kind::kBound) continue;
      global_mean += cell.value;
      ++count_obs;
    }
    global_mean = std::max(global_mean / std::max(count_obs, 1), 1e-6);
    const double spread_lo = 0.6, spread_hi = 1.4;
    for (size_t i = 0; i < n; ++i) {
      // With h entries ~ O(1), a row scale of row_mean / r makes the
      // initial dot product q_i . h_j land near the row's mean.
      const double scale = std::max(row_fit_mean(i, global_mean), 1e-6) / r;
      for (size_t c = 0; c < r; ++c) {
        q_(i, c) = scale * rng.Uniform(spread_lo, spread_hi);
      }
    }
    for (size_t j = 0; j < k; ++j) {
      for (size_t c = 0; c < r; ++c) {
        h_(j, c) = rng.Uniform(spread_lo, spread_hi);
      }
    }
  }

  // The alternating sweeps (Algorithm 2 lines 2-12) without the dense
  // fill. W-hat = M .* W + (1 - M) .* (Q H^T), censored cells clamped up
  // to their bound, equals Q H^T + S for a residual S that is non-zero
  // only on stored cells (see Residual). Hence W-hat H = Q (H^T H) + S H
  // and W-hat^T Q = H (Q^T Q) + S^T Q: each right-hand side is a dense
  // r x r product per row plus a sparse pass, and the Gram doubles as the
  // ridge system's matrix.
  const bool non_negative = options_.non_negative && !log_space;
  Status sweep_st = AlternateSweepsAtRank(options_, non_negative, arena, q_,
                                          h_, &last_iterations_);
  if (!sweep_st.ok()) return sweep_st;
  // A fit that left the reals (a non-finite latency in the matrix, or an
  // overflowing solve) must never be published: fail and let the caller
  // keep its last good predictions.
  if (!AllFinite(q_) || !AllFinite(h_)) {
    return Status::Internal("ALS produced non-finite factors");
  }

  // Output (Algorithm 2 line 13), one fused pass per row: observed and
  // held-out entries pass through raw (the measured latency, or the
  // timeout under kNaiveObserved); every other entry is the factored
  // prediction, raised to its censored floor, and in log-ratio space
  // clamped to the envelope and mapped back to seconds. The censored
  // floor survives the envelope clamp (Algorithm 2 lines 4-5: never
  // predict below a known lower bound). A row's predictions q_i H^T are
  // built with the rank loop outside, so the inner loop runs over all k
  // hints and vectorizes; h_next, free once the sweeps end, holds H^T.
  linalg::Matrix result(n, k);
  linalg::Matrix& h_t = arena.h_next;
  h_t.ResizeUninitialized(r, k);
  for (size_t j = 0; j < k; ++j) {
    for (size_t c = 0; c < r; ++c) h_t(c, j) = h_(j, c);
  }
  ParallelFor(
      0, n,
      [&](size_t row_begin, size_t row_end) {
        for (size_t i = row_begin; i < row_end; ++i) {
          const double* q_i = q_.data() + i * r;
          double* __restrict out = result.data() + i * k;
          for (size_t t = 0; t < r; ++t) {
            AddScaled<0>(q_i[t], h_t.data() + t * k, k, out);
          }
          size_t c = row_start[i];
          const size_t end = row_start[i + 1];
          for (size_t j = 0; j < k; ++j) {
            const FitCell* cell =
                c < end && cells[c].col == j ? &cells[c++] : nullptr;
            if (cell != nullptr && cell->kind != Kind::kBound) {
              out[j] = cell->raw;
              continue;
            }
            double x = out[j];
            if (cell != nullptr) x = std::max(x, cell->value);
            if (log_space) {
              x = std::exp(std::clamp(x + col_bias[j], lo_ratio, hi_ratio) +
                           row_bias[i]);
              if (cell != nullptr) x = std::max(x, cell->raw);
            }
            out[j] = x;
          }
        }
      },
      GrainForCost(k * (r + 20)));
  return result;
}

}  // namespace limeqo::core
