// Householder QR factorization: orthonormal range bases and full-rank least
// squares without forming normal equations (which square the condition
// number). Complements the Gram/Cholesky and SVD paths used elsewhere in the
// linear-algebra substrate.
#ifndef HDMM_LINALG_QR_H_
#define HDMM_LINALG_QR_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace hdmm {

/// Thin QR factorization A = Q R of an m x n matrix with m >= n:
/// `q` is m x n with orthonormal columns and `r` is n x n upper triangular
/// with non-negative diagonal.
struct QrResult {
  Matrix q;
  Matrix r;

  /// Q R, for testing the factorization.
  Matrix Reconstruct() const;
};

/// Computes the thin QR factorization via Householder reflections.
/// Requires rows >= cols. O(m n^2), backward stable.
QrResult HouseholderQr(const Matrix& a);

/// Solves the least squares problem min_x ||A x - b||_2 through the QR
/// factorization. Requires rows >= cols and numerically full column rank
/// (every |r_jj| > rcond * max_j |r_jj|; dies otherwise — rank-deficient
/// problems should go through PinvViaSvd or LSMR instead).
Vector QrLeastSquares(const Matrix& a, const Vector& b, double rcond = 1e-12);

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
/// LAPACK-style recompute guard against cancellation). Unlike HouseholderQr
/// this accepts any shape and any rank.
PivotedQrResult ColumnPivotedQr(const Matrix& a, double rcond = 1e-12);

/// Minimum-residual "basic" solution of min_X ||A X - B||_F through the
/// rank-revealing factorization: directions beyond the numerical rank are
/// truncated instead of divided by, so rank-deficient systems get a finite
/// least-squares solution where QrLeastSquares dies (the solution with zero
/// coefficients on the n - rank non-pivot columns, not the minimum-norm
/// one). Requires rows >= cols; B stacks one right-hand side per column.
Matrix PivotedQrLeastSquares(const Matrix& a, const Matrix& b,
                             double rcond = 1e-12);

/// Single right-hand-side convenience overload.
Vector PivotedQrLeastSquares(const Matrix& a, const Vector& b,
                             double rcond = 1e-12);

}  // namespace hdmm

#endif  // HDMM_LINALG_QR_H_
