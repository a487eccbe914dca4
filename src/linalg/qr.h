// Column-pivoted Householder QR: the rank-revealing least-squares solve
// behind the low-rank mechanism baseline. Works on A itself rather than the
// normal equations (which square the condition number), and truncates the
// directions beyond the numerical rank instead of dividing by them.
#ifndef HDMM_LINALG_QR_H_
#define HDMM_LINALG_QR_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace hdmm {

/// Column-pivoted (rank-revealing) QR factorization A P = Q R of an m x n
/// matrix: `q` is m x k with orthonormal columns (k = min(m, n)), `r` is
/// k x n upper trapezoidal with a non-negative diagonal of non-increasing
/// magnitude, and `perm[j]` names the original column standing at pivot
/// position j. `rank` counts the diagonal entries above rcond * r_00 — the
/// numerical rank the pivoting reveals.
struct PivotedQrResult {
  Matrix q;
  Matrix r;
  std::vector<int64_t> perm;
  int64_t rank = 0;

  /// Q R P^T (= A up to roundoff), for testing the factorization.
  Matrix Reconstruct() const;
};

/// Businger-Golub column pivoting with downdated column norms (and the
/// LAPACK-style recompute guard against cancellation). Accepts any shape and
/// any rank.
PivotedQrResult ColumnPivotedQr(const Matrix& a, double rcond = 1e-12);

/// Minimum-residual "basic" solution of min_X ||A X - B||_F through the
/// rank-revealing factorization: directions beyond the numerical rank
/// (diagonal entries at or below 1e-12 * r_00) are truncated instead of
/// divided by, so rank-deficient systems get a finite least-squares solution
/// (the one with zero coefficients on the n - rank non-pivot columns, not
/// the minimum-norm one). Requires rows >= cols; B stacks one right-hand
/// side per column.
Matrix PivotedQrLeastSquares(const Matrix& a, const Matrix& b);

}  // namespace hdmm

#endif  // HDMM_LINALG_QR_H_
