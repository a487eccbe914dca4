#include "linalg/pinv.h"

#include <cmath>

#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/gemm.h"

namespace hdmm {

namespace {

// Eigenvalues at or below this fraction of the largest count as zero.
constexpr double kRcond = 1e-12;

}  // namespace

Matrix PsdPseudoInverse(const Matrix& x) {
  SymmetricEigen eig = EigenSym(x);
  const int64_t n = x.rows();
  double max_ev = 0.0;
  for (double v : eig.eigenvalues) max_ev = std::max(max_ev, v);
  double cut = kRcond * std::max(max_ev, 1e-300);
  // X^+ = V diag(1/lambda_i for lambda_i > cut else 0) V^T. Scaling the
  // retained columns by lambda^{-1/2} in place turns this into an outer SYRK
  // of the scaled eigenvector matrix: no second copy of V, half the flops of
  // a general product, and an exactly symmetric result.
  Matrix& v = eig.eigenvectors;
  for (int64_t j = 0; j < n; ++j) {
    double ev = eig.eigenvalues[static_cast<size_t>(j)];
    double inv_sqrt = (ev > cut) ? 1.0 / std::sqrt(ev) : 0.0;
    for (int64_t i = 0; i < n; ++i) v(i, j) *= inv_sqrt;
  }
  return GramOuter(v);
}

Matrix PseudoInverse(const Matrix& a) {
  if (a.rows() >= a.cols()) {
    Matrix g;
    GramInto(a, &g);
    Matrix gp = PsdPseudoInverse(g);
    // A^+ = (A^T A)^+ A^T.
    return MatMulNT(gp, a);
  }
  Matrix g = GramOuter(a);
  Matrix gp = PsdPseudoInverse(g);
  // A^+ = A^T (A A^T)^+.
  return MatMulTN(a, gp);
}

double TracePinvGram(const Matrix& gram_a, const Matrix& gram_w) {
  HDMM_CHECK(gram_a.rows() == gram_w.rows());
  Matrix l;
  if (CholeskyFactor(gram_a, &l)) {
    // One blocked multi-RHS solve against all of G's columns at once, then
    // read the diagonal — no per-column Vector extraction.
    Matrix z;
    CholeskySolveMatrixInto(l, gram_w, &z);
    return z.Trace();
  }
  // Singular Gram: pseudo-inverse semantics. tr[P G] = sum_i P(i,:) . G(:,i),
  // and both operands are symmetric, so the columns of G can be read as rows
  // (contiguous in the row-major layout).
  Matrix pinv = PsdPseudoInverse(gram_a);
  double tr = 0.0;
  for (int64_t i = 0; i < pinv.rows(); ++i) {
    const double* prow = pinv.Row(i);
    const double* grow = gram_w.Row(i);
    double s = 0.0;
    for (int64_t j = 0; j < pinv.cols(); ++j) s += prow[j] * grow[j];
    tr += s;
  }
  return tr;
}

PinvGramTracer::PinvGramTracer(const Matrix& gram_a) {
  HDMM_CHECK(gram_a.rows() == gram_a.cols());
  Matrix l;
  if (CholeskyFactor(gram_a, &l)) {
    CholeskySolveMatrixInto(l, Matrix::Identity(gram_a.rows()), &inv_);
  } else {
    inv_ = PsdPseudoInverse(gram_a);
  }
}

double PinvGramTracer::Trace(const Matrix& gram_w) const {
  HDMM_CHECK(gram_w.rows() == inv_.rows() && gram_w.cols() == inv_.cols());
  // Both operands are symmetric, so the trace of the product is the
  // elementwise dot of the row-major storage — one linear pass.
  const double* a = inv_.data();
  const double* b = gram_w.data();
  const int64_t n = inv_.rows() * inv_.cols();
  double tr = 0.0;
  for (int64_t i = 0; i < n; ++i) tr += a[i] * b[i];
  return tr;
}

}  // namespace hdmm
