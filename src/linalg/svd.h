// Singular values via the one-sided Jacobi method: the spectral quantities
// behind the Hardt-Talwar / Li-Miklau lower bound on strategy error
// (Section 8) and the pct_of_optimal diagnostic.
#ifndef HDMM_LINALG_SVD_H_
#define HDMM_LINALG_SVD_H_

#include "linalg/matrix.h"

namespace hdmm {

/// The min(m, n) singular values of A in descending order. Columns of a
/// working copy of A (or A^T, whichever is taller) are rotated pairwise
/// until mutually orthogonal; their norms are then the singular values.
/// O(m n^2) per sweep and unconditionally backward stable; sweeps needed is
/// small (< 20) for the matrices this library produces.
Vector SingularValues(const Matrix& a);

/// Nuclear norm ||A||_* = sum of singular values.
double NuclearNorm(const Matrix& a);

}  // namespace hdmm

#endif  // HDMM_LINALG_SVD_H_
