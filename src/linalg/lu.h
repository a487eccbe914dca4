// Triangular solves against an upper-triangular factor (the R of a QR
// factorization), used by the marginals optimizer (core/opt_marginals).
#ifndef HDMM_LINALG_LU_H_
#define HDMM_LINALG_LU_H_

#include "linalg/matrix.h"

namespace hdmm {

/// Solves an upper-triangular system U x = b. Dies on zero diagonal.
Vector UpperTriangularSolve(const Matrix& u, const Vector& b);

/// Solves U^T x = b with U upper triangular (i.e., a lower-triangular solve).
Vector UpperTriangularSolveTranspose(const Matrix& u, const Vector& b);

}  // namespace hdmm

#endif  // HDMM_LINALG_LU_H_
