#include "linalg/cholesky.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"
#include "linalg/gemm.h"

namespace hdmm {
namespace {

// Factorization panel width / solve block height. 64 keeps one diagonal block
// (64x64x8B = 32 KiB) L1-resident for the scalar panel work while making the
// trailing SYRK updates rank-64 — deep enough that the GEMM substrate runs at
// full blocked speed.
constexpr int64_t kPanel = 64;

}  // namespace

bool CholeskyFactor(const Matrix& x, Matrix* l) {
  HDMM_CHECK(x.rows() == x.cols());
  const int64_t n = x.rows();
  *l = x;
  Matrix& a = *l;
  for (int64_t k = 0; k < n; k += kPanel) {
    const int64_t nb = std::min<int64_t>(kPanel, n - k);
    // Diagonal block: scalar factorization of A[k:k+nb, k:k+nb]. Earlier
    // panels' contributions were already subtracted by trailing updates, so
    // the inner dot products only span the block's own columns.
    for (int64_t i = k; i < k + nb; ++i) {
      double* ai = a.Row(i);
      for (int64_t j = k; j <= i; ++j) {
        const double* aj = a.Row(j);
        double s = ai[j];
        for (int64_t t = k; t < j; ++t) s -= ai[t] * aj[t];
        if (i == j) {
          if (s <= 0.0 || !std::isfinite(s)) return false;
          ai[i] = std::sqrt(s);
        } else {
          ai[j] = s / aj[j];
        }
      }
    }
    const int64_t rest = n - k - nb;
    if (rest == 0) continue;
    // Panel TRSM: L21 = A21 L11^{-T}. Each row of the panel is an
    // independent forward substitution against L11, so rows fan out over the
    // shared pool.
    ThreadPool& pool = ComputePool();
    pool.ParallelFor(
        k + nb, n, /*grain=*/16, [&](int64_t r0, int64_t r1) {
          for (int64_t r = r0; r < r1; ++r) {
            double* row = a.Row(r) + k;
            for (int64_t j = 0; j < nb; ++j) {
              const double* lj = a.Row(k + j) + k;
              double s = row[j];
              for (int64_t t = 0; t < j; ++t) s -= lj[t] * row[t];
              row[j] = s / lj[j];
            }
          }
        });
    // Trailing SYRK: A22 -= L21 L21^T, lower triangle only. This is where
    // the n^3/3 bulk of the factorization runs, at blocked-GEMM speed. The
    // trailing matrix fans out by block-column: task cb updates the panel
    // A[j0:n, j0:j0+w] (j0 = k + nb + cb*kPanel) with its own rank-nb GEMM —
    // independent macro-panels, no shared packing buffers. The decomposition
    // is the same at every pool width (on a 1-wide pool ParallelFor runs it
    // inline), so the factor is bit-identical whether 1 or 16 threads run
    // it; the extra per-block A packing costs ~1/kPanel of the update's
    // flops. Tasks are issued widest-block first purely for balance.
    const int64_t trail_blocks = (rest + kPanel - 1) / kPanel;
    pool.ParallelFor(0, trail_blocks, /*grain=*/1, [&](int64_t b0,
                                                       int64_t b1) {
      for (int64_t cb = b0; cb < b1; ++cb) {
        const int64_t j0 = k + nb + cb * kPanel;
        const int64_t w = std::min<int64_t>(kPanel, n - j0);
        GemmViewUpdate(n - j0, w, nb, -1.0, a.Row(j0) + k, n, false,
                       a.Row(j0) + k, n, true, a.Row(j0) + j0, n,
                       /*lower_only=*/true, GemmParallelism::kSerial);
      }
    });
  }
  // Only the lower triangle was factored; clear the copied-over upper part.
  for (int64_t i = 0; i < n; ++i) {
    double* row = a.Row(i);
    for (int64_t j = i + 1; j < n; ++j) row[j] = 0.0;
  }
  return true;
}

void ForwardSubstitute(const Matrix& l, Vector* b) {
  const int64_t n = l.rows();
  for (int64_t i = 0; i < n; ++i) {
    double s = (*b)[static_cast<size_t>(i)];
    const double* li = l.Row(i);
    for (int64_t k = 0; k < i; ++k) s -= li[k] * (*b)[static_cast<size_t>(k)];
    (*b)[static_cast<size_t>(i)] = s / li[i];
  }
}

void BackwardSubstituteTranspose(const Matrix& l, Vector* b) {
  const int64_t n = l.rows();
  for (int64_t i = n - 1; i >= 0; --i) {
    double s = (*b)[static_cast<size_t>(i)];
    for (int64_t k = i + 1; k < n; ++k)
      s -= l(k, i) * (*b)[static_cast<size_t>(k)];
    (*b)[static_cast<size_t>(i)] = s / l(i, i);
  }
}

void ForwardSubstituteMatrix(const Matrix& l, Matrix* b) {
  HDMM_CHECK(l.rows() == l.cols() && l.rows() == b->rows());
  const int64_t n = l.rows();
  const int64_t m = b->cols();
  if (m == 0) return;
  for (int64_t k = 0; k < n; k += kPanel) {
    const int64_t nb = std::min<int64_t>(kPanel, n - k);
    // Diagonal-block solve, vectorized along the RHS columns: every inner
    // operation is a contiguous axpy across a whole row of B.
    for (int64_t i = k; i < k + nb; ++i) {
      double* bi = b->Row(i);
      const double* li = l.Row(i);
      for (int64_t t = k; t < i; ++t) {
        const double c = li[t];
        if (c == 0.0) continue;
        const double* bt = b->Row(t);
        for (int64_t j = 0; j < m; ++j) bi[j] -= c * bt[j];
      }
      const double inv = 1.0 / li[i];
      for (int64_t j = 0; j < m; ++j) bi[j] *= inv;
    }
    // Push the finished panel into every row below in one GEMM:
    // B[k+nb:, :] -= L[k+nb:, k:k+nb] * B[k:k+nb, :].
    GemmViewUpdate(n - k - nb, m, nb, -1.0, l.Row(k + nb) + k, n, false,
                   b->Row(k), m, false, b->Row(k + nb), m,
                   /*lower_only=*/false);
  }
}

void BackwardSubstituteTransposeMatrix(const Matrix& l, Matrix* b) {
  HDMM_CHECK(l.rows() == l.cols() && l.rows() == b->rows());
  const int64_t n = l.rows();
  const int64_t m = b->cols();
  if (m == 0 || n == 0) return;
  for (int64_t k = ((n - 1) / kPanel) * kPanel; k >= 0; k -= kPanel) {
    const int64_t nb = std::min<int64_t>(kPanel, n - k);
    // Diagonal-block solve against L11^T, bottom row first.
    for (int64_t i = k + nb - 1; i >= k; --i) {
      double* bi = b->Row(i);
      for (int64_t t = i + 1; t < k + nb; ++t) {
        const double c = l(t, i);
        if (c == 0.0) continue;
        const double* bt = b->Row(t);
        for (int64_t j = 0; j < m; ++j) bi[j] -= c * bt[j];
      }
      const double inv = 1.0 / l(i, i);
      for (int64_t j = 0; j < m; ++j) bi[j] *= inv;
    }
    // Rows above the block: B[0:k, :] -= L[k:k+nb, 0:k]^T * B[k:k+nb, :].
    if (k > 0) {
      GemmViewUpdate(k, m, nb, -1.0, l.Row(k), n, true, b->Row(k), m, false,
                     b->data(), m, /*lower_only=*/false);
    }
  }
}

Vector CholeskySolve(const Matrix& l, const Vector& b) {
  Vector y = b;
  ForwardSubstitute(l, &y);
  BackwardSubstituteTranspose(l, &y);
  return y;
}

void CholeskySolveMatrixInto(const Matrix& l, const Matrix& b, Matrix* out) {
  HDMM_CHECK(l.rows() == b.rows());
  if (out != &b) *out = b;
  ForwardSubstituteMatrix(l, out);
  BackwardSubstituteTransposeMatrix(l, out);
}

void CholeskySolveRowsInto(const Matrix& l, const Matrix& b, Matrix* out,
                           GemmParallelism par) {
  HDMM_CHECK(l.rows() == l.cols() && l.rows() == b.cols());
  const int64_t p = l.rows();
  const int64_t rows = b.rows();
  if (out != &b) *out = b;  // Copy-assign reuses out's storage when sized.
  if (p == 0 || rows == 0) return;
  auto body = [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      double* x = out->Row(r);
      // Row solve y X = x for symmetric X = L L^T: x = (L L^T y^T)^T, so a
      // forward substitution (L z = x) then a backward one (L^T y = z),
      // both on the contiguous length-p row.
      for (int64_t i = 0; i < p; ++i) {
        const double* li = l.Row(i);
        double s = x[i];
        for (int64_t t = 0; t < i; ++t) s -= li[t] * x[t];
        x[i] = s / li[i];
      }
      for (int64_t i = p - 1; i >= 0; --i) {
        double s = x[i];
        for (int64_t t = i + 1; t < p; ++t) s -= l(t, i) * x[t];
        x[i] = s / l(i, i);
      }
    }
  };
  if (par == GemmParallelism::kPooled) {
    ComputePool().ParallelFor(0, rows, /*grain=*/32, body);
  } else {
    body(0, rows);
  }
}

Matrix SpdInverse(const Matrix& x) {
  Matrix l;
  HDMM_CHECK_MSG(CholeskyFactor(x, &l), "SpdInverse: matrix not SPD");
  Matrix out;
  CholeskySolveMatrixInto(l, Matrix::Identity(x.rows()), &out);
  return out;
}

double TraceSolveSpd(const Matrix& x, const Matrix& g) {
  HDMM_CHECK(x.rows() == g.rows() && x.cols() == g.cols());
  Matrix l;
  HDMM_CHECK_MSG(CholeskyFactor(x, &l), "TraceSolveSpd: matrix not SPD");
  // tr[X^{-1} G]: one blocked multi-RHS solve, then read the diagonal.
  Matrix z;
  CholeskySolveMatrixInto(l, g, &z);
  return z.Trace();
}

}  // namespace hdmm
