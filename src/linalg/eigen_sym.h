// Symmetric eigendecomposition. Used to build pseudo-inverses of Gram
// matrices (Section 4.4), of strategy matrices, and for the spectral lower
// bound (Section 8).
//
// The solver is the classic dense pipeline: Householder reduction to
// tridiagonal form, implicit-shift QL on the tridiagonal, and a blocked
// (compact-WY) back-transformation of the eigenvectors through the GEMM
// substrate. Cyclic Jacobi survives only as the tiny-n fallback, where its
// simplicity beats the pipeline's fixed costs.
#ifndef HDMM_LINALG_EIGEN_SYM_H_
#define HDMM_LINALG_EIGEN_SYM_H_

#include "linalg/matrix.h"

namespace hdmm {

/// Result of a symmetric eigendecomposition X = V diag(lambda) V^T.
struct SymmetricEigen {
  Vector eigenvalues;   ///< Ascending order.
  Matrix eigenvectors;  ///< Column i is the eigenvector for eigenvalues[i].
};

/// Full eigendecomposition of a symmetric matrix. Householder
/// tridiagonalization + implicit-shift QL + blocked reflector
/// back-transformation; matrices smaller than the Jacobi cutoff use cyclic
/// Jacobi instead, as does a (practically unreachable) QL non-convergence.
SymmetricEigen EigenSym(const Matrix& x);

/// Eigenvalues only (ascending). Skips eigenvector accumulation and the
/// back-transformation entirely — about 4x cheaper than EigenSym and the
/// right call for spectra-only consumers (nuclear norms, spectral bounds).
Vector EigenvaluesSym(const Matrix& x);

}  // namespace hdmm

#endif  // HDMM_LINALG_EIGEN_SYM_H_
