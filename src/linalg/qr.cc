#include "linalg/qr.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "linalg/gemm.h"

namespace hdmm {

namespace {

// Panel width for the blocked factorization, and the order below which the
// scalar path wins (the WY scratch and GEMM dispatch overheads dominate for
// tiny trailing matrices).
constexpr int64_t kPanelWidth = 32;
constexpr int64_t kBlockedCutoff = 64;

// Generates the Householder reflector for column j over rows [j, m) and
// applies it to columns (j, col_end). Storage convention (shared with the
// least-squares / determinant paths): R's entry on the diagonal, the
// essential vector scaled to a unit leading entry below it, and
// tau_j = 2 v0^2 / ||v||^2 in betas so H_j = I - tau_j v v^T with
// v = (1, a_{j+1,j}, ...). Standard Golub & Van Loan algorithm 5.2.1.
void ReflectColumn(Matrix* a, Vector* betas, int64_t j, int64_t col_end) {
  const int64_t m = a->rows();
  double sigma = 0.0;
  for (int64_t i = j; i < m; ++i) sigma += (*a)(i, j) * (*a)(i, j);
  const double norm = std::sqrt(sigma);
  if (norm == 0.0) return;  // Zero column: nothing to reflect.

  const double ajj = (*a)(j, j);
  // Choose the sign that avoids cancellation.
  const double alpha = ajj >= 0.0 ? -norm : norm;
  const double v0 = ajj - alpha;
  // beta = 2 / ||v||^2 with v = (v0, a_{j+1,j}, ..., a_{m-1,j}).
  const double vnorm2 = sigma - ajj * ajj + v0 * v0;
  if (vnorm2 == 0.0) return;  // Column already in triangular form.
  const double tau = 2.0 * v0 * v0 / vnorm2;
  (*betas)[static_cast<size_t>(j)] = tau;

  // Store the essential vector scaled so its leading entry is 1.
  (*a)(j, j) = alpha;
  for (int64_t i = j + 1; i < m; ++i) (*a)(i, j) /= v0;

  // Apply the reflector to columns (j, col_end).
  for (int64_t k = j + 1; k < col_end; ++k) {
    double dot = (*a)(j, k);
    for (int64_t i = j + 1; i < m; ++i) dot += (*a)(i, j) * (*a)(i, k);
    const double scale = tau * dot;
    (*a)(j, k) -= scale;
    for (int64_t i = j + 1; i < m; ++i) (*a)(i, k) -= scale * (*a)(i, j);
  }
}

// Compact scalar Householder factorization: R in the upper triangle,
// essential reflector vectors below the diagonal, taus in `betas`.
void HouseholderFactorScalar(Matrix* a, Vector* betas) {
  const int64_t n = a->cols();
  for (int64_t j = 0; j < n; ++j) ReflectColumn(a, betas, j, n);
}

// Materializes the unit-lower-trapezoidal reflector panel V (h x nb) for
// panel columns [j0, j0 + nb), h = m - j0: column jl holds reflector
// j0 + jl with its implicit unit on local row jl.
Matrix BuildPanelV(const Matrix& a, int64_t j0, int64_t nb) {
  const int64_t m = a.rows();
  const int64_t h = m - j0;
  Matrix v(h, nb);
  for (int64_t jl = 0; jl < nb; ++jl) {
    v(jl, jl) = 1.0;
    for (int64_t r = jl + 1; r < h; ++r) v(r, jl) = a(j0 + r, j0 + jl);
  }
  return v;
}

// dlarft-style forward columnwise build of the nb x nb upper-triangular T
// with H_{j0} H_{j0+1} ... H_{j0+nb-1} = I - V T V^T:
// T(jl,jl) = tau_jl, T(0:jl, jl) = -tau_jl T(0:jl, 0:jl) (V^T v_jl).
Matrix BuildPanelT(const Matrix& v, const Vector& betas, int64_t j0,
                   int64_t nb) {
  const int64_t h = v.rows();
  Matrix t(nb, nb);
  Vector vv(static_cast<size_t>(nb), 0.0);
  for (int64_t jl = 0; jl < nb; ++jl) {
    const double tau = betas[static_cast<size_t>(j0 + jl)];
    if (tau == 0.0) continue;  // H = I: zero column keeps the product exact.
    for (int64_t c = 0; c < jl; ++c) vv[static_cast<size_t>(c)] = 0.0;
    for (int64_t r = jl; r < h; ++r) {
      const double* vrow = v.Row(r);
      const double vr = vrow[jl];
      for (int64_t c = 0; c < jl; ++c) vv[static_cast<size_t>(c)] += vrow[c] * vr;
    }
    for (int64_t rr = 0; rr < jl; ++rr) {
      double s = 0.0;
      for (int64_t cc = rr; cc < jl; ++cc) {
        s += t(rr, cc) * vv[static_cast<size_t>(cc)];
      }
      t(rr, jl) = -tau * s;
    }
    t(jl, jl) = tau;
  }
  return t;
}

// work := T^T work in place (T upper triangular, so T^T is lower). Row i of
// the product reads only original rows <= i; descending order leaves those
// rows untouched until they are themselves computed.
void ApplyTTranspose(const Matrix& t, Matrix* work) {
  const int64_t nb = t.rows();
  const int64_t nc = work->cols();
  for (int64_t i = nb - 1; i >= 0; --i) {
    double* wrow = work->Row(i);
    const double tii = t(i, i);
    for (int64_t j = 0; j < nc; ++j) wrow[j] *= tii;
    for (int64_t r = 0; r < i; ++r) {
      const double coef = t(r, i);
      if (coef == 0.0) continue;
      const double* xrow = work->Row(r);
      for (int64_t j = 0; j < nc; ++j) wrow[j] += coef * xrow[j];
    }
  }
}

// work := T work in place (ascending rows only read not-yet-overwritten
// rows at or below the current one).
void ApplyT(const Matrix& t, Matrix* work) {
  const int64_t nb = t.rows();
  const int64_t nc = work->cols();
  for (int64_t i = 0; i < nb; ++i) {
    double* wrow = work->Row(i);
    const double tii = t(i, i);
    for (int64_t j = 0; j < nc; ++j) wrow[j] *= tii;
    for (int64_t r = i + 1; r < nb; ++r) {
      const double coef = t(i, r);
      if (coef == 0.0) continue;
      const double* xrow = work->Row(r);
      for (int64_t j = 0; j < nc; ++j) wrow[j] += coef * xrow[j];
    }
  }
}

// Blocked right-looking Householder factorization on the GEMM substrate:
// each kPanelWidth-column panel is factored with the scalar kernel confined
// to the panel, aggregated into compact-WY form Q_panel = I - V T V^T, and
// the trailing columns are updated with two GEMMs
//   C := Q_panel^T C = C - V (T^T (V^T C))
// so the O(m n^2) bulk of the factorization runs at GEMM speed instead of
// one rank-1 update per reflector.
void HouseholderFactorBlocked(Matrix* a, Vector* betas) {
  const int64_t m = a->rows();
  const int64_t n = a->cols();
  for (int64_t j0 = 0; j0 < n; j0 += kPanelWidth) {
    const int64_t nb = std::min<int64_t>(kPanelWidth, n - j0);
    for (int64_t j = j0; j < j0 + nb; ++j) ReflectColumn(a, betas, j, j0 + nb);

    const int64_t ntrail = n - (j0 + nb);
    if (ntrail <= 0) continue;
    const int64_t h = m - j0;
    const Matrix v = BuildPanelV(*a, j0, nb);
    const Matrix t = BuildPanelT(v, *betas, j0, nb);

    // W = V^T C over the h x ntrail trailing view C = a[j0.., j0+nb..].
    double* c = a->Row(j0) + (j0 + nb);
    Matrix work(nb, ntrail);
    GemmViewUpdate(nb, ntrail, h, 1.0, v.data(), nb, /*a_trans=*/true, c, n,
                   /*b_trans=*/false, work.data(), ntrail,
                   /*lower_only=*/false);
    ApplyTTranspose(t, &work);
    GemmViewUpdate(h, ntrail, nb, -1.0, v.data(), nb, /*a_trans=*/false,
                   work.data(), ntrail, /*b_trans=*/false, c, n,
                   /*lower_only=*/false);
  }
}

// Compact Householder factorization: scalar for small problems, blocked
// panels + compact-WY trailing updates beyond kBlockedCutoff columns.
void HouseholderFactor(Matrix* a, Vector* betas) {
  betas->assign(static_cast<size_t>(a->cols()), 0.0);
  if (a->cols() < kBlockedCutoff) {
    HouseholderFactorScalar(a, betas);
  } else {
    HouseholderFactorBlocked(a, betas);
  }
}

// Applies Q^T (the accumulated reflectors) to a vector in place.
void ApplyQTranspose(const Matrix& factored, const Vector& betas, Vector* b) {
  const int64_t m = factored.rows();
  const int64_t n = factored.cols();
  for (int64_t j = 0; j < n; ++j) {
    const double beta = betas[static_cast<size_t>(j)];
    if (beta == 0.0) continue;
    double dot = (*b)[static_cast<size_t>(j)];
    for (int64_t i = j + 1; i < m; ++i) {
      dot += factored(i, j) * (*b)[static_cast<size_t>(i)];
    }
    const double scale = beta * dot;
    (*b)[static_cast<size_t>(j)] -= scale;
    for (int64_t i = j + 1; i < m; ++i) {
      (*b)[static_cast<size_t>(i)] -= scale * factored(i, j);
    }
  }
}

// Thin Q from the compact factorization: start from the first n identity
// columns and apply the reflector blocks last-to-first through the WY form,
//   E := Q_panel E = E - V (T (V^T E)),
// one panel pass over E per block instead of one pass per reflector. As in
// LAPACK's dorgqr, each block only touches columns >= j0: with last-to-first
// application a column k < j0 still has all-zero rows below j0 when panel j0
// is applied, so its update is provably a no-op — skipping those columns
// halves the back-transform flops.
Matrix BuildThinQ(const Matrix& factored, const Vector& betas) {
  const int64_t m = factored.rows();
  const int64_t n = factored.cols();
  Matrix q(m, n);
  for (int64_t k = 0; k < n; ++k) q(k, k) = 1.0;

  const int64_t last_panel = ((n - 1) / kPanelWidth) * kPanelWidth;
  for (int64_t j0 = last_panel; j0 >= 0; j0 -= kPanelWidth) {
    const int64_t nb = std::min<int64_t>(kPanelWidth, n - j0);
    const int64_t h = m - j0;
    const int64_t ncols = n - j0;
    const Matrix v = BuildPanelV(factored, j0, nb);
    const Matrix t = BuildPanelT(v, betas, j0, nb);

    double* c = q.Row(j0) + j0;
    Matrix work(nb, ncols);
    GemmViewUpdate(nb, ncols, h, 1.0, v.data(), nb, /*a_trans=*/true, c, n,
                   /*b_trans=*/false, work.data(), ncols,
                   /*lower_only=*/false);
    ApplyT(t, &work);
    GemmViewUpdate(h, ncols, nb, -1.0, v.data(), nb, /*a_trans=*/false,
                   work.data(), ncols, /*b_trans=*/false, c, n,
                   /*lower_only=*/false);
  }
  return q;
}

}  // namespace

Matrix QrResult::Reconstruct() const { return MatMul(q, r); }

QrResult HouseholderQr(const Matrix& a) {
  HDMM_CHECK_MSG(a.rows() >= a.cols(),
                 "HouseholderQr requires rows >= cols (thin factorization)");
  HDMM_CHECK(a.cols() > 0);
  const int64_t n = a.cols();

  Matrix factored = a;
  Vector betas;
  HouseholderFactor(&factored, &betas);

  // Extract R (upper triangle), flipping signs so the diagonal is >= 0.
  Matrix r(n, n);
  std::vector<bool> flip(static_cast<size_t>(n), false);
  for (int64_t i = 0; i < n; ++i) {
    flip[static_cast<size_t>(i)] = factored(i, i) < 0.0;
    for (int64_t j = i; j < n; ++j) {
      r(i, j) = flip[static_cast<size_t>(i)] ? -factored(i, j) : factored(i, j);
    }
  }

  Matrix q = BuildThinQ(factored, betas);
  for (int64_t k = 0; k < n; ++k) {
    if (!flip[static_cast<size_t>(k)]) continue;
    for (int64_t i = 0; i < a.rows(); ++i) q(i, k) = -q(i, k);
  }
  return QrResult{std::move(q), std::move(r)};
}

Vector QrLeastSquares(const Matrix& a, const Vector& b, double rcond) {
  HDMM_CHECK_MSG(a.rows() >= a.cols(),
                 "QrLeastSquares requires rows >= cols");
  HDMM_CHECK(static_cast<int64_t>(b.size()) == a.rows());
  const int64_t n = a.cols();

  Matrix factored = a;
  Vector betas;
  HouseholderFactor(&factored, &betas);

  // Rank check on the R diagonal.
  double max_diag = 0.0;
  for (int64_t j = 0; j < n; ++j) {
    max_diag = std::max(max_diag, std::abs(factored(j, j)));
  }
  for (int64_t j = 0; j < n; ++j) {
    HDMM_CHECK_MSG(std::abs(factored(j, j)) > rcond * max_diag,
                   "QrLeastSquares: numerically rank-deficient input");
  }

  Vector qtb = b;
  ApplyQTranspose(factored, betas, &qtb);

  // Back substitution on R x = (Q^T b)[0..n).
  Vector x(static_cast<size_t>(n), 0.0);
  for (int64_t i = n - 1; i >= 0; --i) {
    double acc = qtb[static_cast<size_t>(i)];
    for (int64_t j = i + 1; j < n; ++j) {
      acc -= factored(i, j) * x[static_cast<size_t>(j)];
    }
    x[static_cast<size_t>(i)] = acc / factored(i, i);
  }
  return x;
}

namespace {

// Businger-Golub pivoted factorization in compact form: R in the upper
// trapezoid of `a`, essential reflector vectors below the diagonal of the
// first min(m, n) columns, taus in `betas`, column permutation in `perm`.
// Pivot selection maximizes the remaining column norm; norms are downdated
// per step (O(n) instead of O(mn)) and recomputed from scratch when
// cancellation has eaten the downdated value (the dgeqp3 guard — without it
// a near-rank boundary can pivot on pure roundoff).
void PivotedFactor(Matrix* a, Vector* betas, std::vector<int64_t>* perm,
                   int64_t* rank, double rcond) {
  const int64_t m = a->rows();
  const int64_t n = a->cols();
  const int64_t kmax = std::min(m, n);
  betas->assign(static_cast<size_t>(n), 0.0);
  perm->resize(static_cast<size_t>(n));
  for (int64_t j = 0; j < n; ++j) (*perm)[static_cast<size_t>(j)] = j;

  Vector norms(static_cast<size_t>(n), 0.0);
  for (int64_t j = 0; j < n; ++j) {
    double s = 0.0;
    for (int64_t i = 0; i < m; ++i) s += (*a)(i, j) * (*a)(i, j);
    norms[static_cast<size_t>(j)] = std::sqrt(s);
  }
  Vector norms_ref = norms;
  // Downdate accuracy floor (sqrt of double machine epsilon).
  constexpr double kRecomputeTol = 1.49e-8;

  *rank = 0;
  double r00 = 0.0;
  for (int64_t j = 0; j < kmax; ++j) {
    int64_t pivot = j;
    for (int64_t k = j + 1; k < n; ++k) {
      if (norms[static_cast<size_t>(k)] > norms[static_cast<size_t>(pivot)]) {
        pivot = k;
      }
    }
    if (pivot != j) {
      for (int64_t i = 0; i < m; ++i) std::swap((*a)(i, j), (*a)(i, pivot));
      std::swap((*perm)[static_cast<size_t>(j)],
                (*perm)[static_cast<size_t>(pivot)]);
      std::swap(norms[static_cast<size_t>(j)],
                norms[static_cast<size_t>(pivot)]);
      std::swap(norms_ref[static_cast<size_t>(j)],
                norms_ref[static_cast<size_t>(pivot)]);
    }

    ReflectColumn(a, betas, j, n);

    const double diag = std::abs((*a)(j, j));
    if (j == 0) r00 = diag;
    if (diag > rcond * r00) *rank = j + 1;

    for (int64_t k = j + 1; k < n; ++k) {
      double& nk = norms[static_cast<size_t>(k)];
      if (nk == 0.0) continue;
      const double ratio = std::abs((*a)(j, k)) / nk;
      const double temp = std::max(0.0, 1.0 - ratio * ratio);
      const double rel = nk / norms_ref[static_cast<size_t>(k)];
      if (temp * rel * rel <= kRecomputeTol) {
        double s = 0.0;
        for (int64_t i = j + 1; i < m; ++i) s += (*a)(i, k) * (*a)(i, k);
        nk = std::sqrt(s);
        norms_ref[static_cast<size_t>(k)] = nk;
      } else {
        nk *= std::sqrt(temp);
      }
    }
  }
}

}  // namespace

Matrix PivotedQrResult::Reconstruct() const {
  const Matrix qr = MatMul(q, r);
  Matrix out(qr.rows(), qr.cols());
  for (int64_t j = 0; j < qr.cols(); ++j) {
    const int64_t dst = perm[static_cast<size_t>(j)];
    for (int64_t i = 0; i < qr.rows(); ++i) out(i, dst) = qr(i, j);
  }
  return out;
}

PivotedQrResult ColumnPivotedQr(const Matrix& a, double rcond) {
  HDMM_CHECK(a.rows() > 0 && a.cols() > 0);
  const int64_t m = a.rows();
  const int64_t n = a.cols();
  const int64_t kmax = std::min(m, n);

  Matrix factored = a;
  Vector betas;
  PivotedQrResult result;
  PivotedFactor(&factored, &betas, &result.perm, &result.rank, rcond);

  // R (upper trapezoid), flipping signs so the diagonal is >= 0.
  Matrix r(kmax, n);
  std::vector<bool> flip(static_cast<size_t>(kmax), false);
  for (int64_t i = 0; i < kmax; ++i) {
    flip[static_cast<size_t>(i)] = factored(i, i) < 0.0;
    for (int64_t j = i; j < n; ++j) {
      r(i, j) = flip[static_cast<size_t>(i)] ? -factored(i, j) : factored(i, j);
    }
  }

  // BuildThinQ reads one reflector per column, so hand it just the kmax
  // reflector columns (all of them when m >= n; the wide case has no
  // reflectors past row m).
  Matrix reflectors(m, kmax);
  for (int64_t j = 0; j < kmax; ++j) {
    for (int64_t i = 0; i < m; ++i) reflectors(i, j) = factored(i, j);
  }
  Vector reflector_betas(betas.begin(), betas.begin() + kmax);
  Matrix q = BuildThinQ(reflectors, reflector_betas);
  for (int64_t k = 0; k < kmax; ++k) {
    if (!flip[static_cast<size_t>(k)]) continue;
    for (int64_t i = 0; i < m; ++i) q(i, k) = -q(i, k);
  }
  result.q = std::move(q);
  result.r = std::move(r);
  return result;
}

Matrix PivotedQrLeastSquares(const Matrix& a, const Matrix& b, double rcond) {
  HDMM_CHECK_MSG(a.rows() >= a.cols(),
                 "PivotedQrLeastSquares requires rows >= cols");
  HDMM_CHECK(b.rows() == a.rows());
  const int64_t m = a.rows();
  const int64_t n = a.cols();
  const int64_t nrhs = b.cols();

  Matrix factored = a;
  Vector betas;
  std::vector<int64_t> perm;
  int64_t rank = 0;
  PivotedFactor(&factored, &betas, &perm, &rank, rcond);

  Matrix x(n, nrhs);
  Vector c(static_cast<size_t>(m), 0.0);
  Vector z(static_cast<size_t>(n), 0.0);
  for (int64_t col = 0; col < nrhs; ++col) {
    for (int64_t i = 0; i < m; ++i) c[static_cast<size_t>(i)] = b(i, col);
    ApplyQTranspose(factored, betas, &c);
    // Back substitution on the leading rank x rank block; directions beyond
    // the numerical rank carry no signal, only noise divided by a tiny
    // pivot — truncate them to zero instead.
    std::fill(z.begin(), z.end(), 0.0);
    for (int64_t i = rank - 1; i >= 0; --i) {
      double acc = c[static_cast<size_t>(i)];
      for (int64_t j = i + 1; j < rank; ++j) {
        acc -= factored(i, j) * z[static_cast<size_t>(j)];
      }
      z[static_cast<size_t>(i)] = acc / factored(i, i);
    }
    for (int64_t j = 0; j < n; ++j) {
      x(perm[static_cast<size_t>(j)], col) = z[static_cast<size_t>(j)];
    }
  }
  return x;
}

Vector PivotedQrLeastSquares(const Matrix& a, const Vector& b, double rcond) {
  HDMM_CHECK(static_cast<int64_t>(b.size()) == a.rows());
  Matrix rhs(a.rows(), 1);
  for (int64_t i = 0; i < a.rows(); ++i) rhs(i, 0) = b[static_cast<size_t>(i)];
  const Matrix x = PivotedQrLeastSquares(a, rhs, rcond);
  Vector out(static_cast<size_t>(a.cols()), 0.0);
  for (int64_t i = 0; i < a.cols(); ++i) out[static_cast<size_t>(i)] = x(i, 0);
  return out;
}

}  // namespace hdmm
