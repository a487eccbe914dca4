#include "linalg/qr.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/cholesky.h"
#include "linalg/pinv.h"

namespace hdmm {
namespace {

// PivotedQrLeastSquares on a single right-hand side.
Vector SolveOne(const Matrix& a, const Vector& b) {
  Matrix rhs(a.rows(), 1);
  for (int64_t i = 0; i < a.rows(); ++i) rhs(i, 0) = b[static_cast<size_t>(i)];
  const Matrix x = PivotedQrLeastSquares(a, rhs);
  Vector out(static_cast<size_t>(a.cols()), 0.0);
  for (int64_t i = 0; i < a.cols(); ++i) out[static_cast<size_t>(i)] = x(i, 0);
  return out;
}

class PivotedQrShapeTest
    : public ::testing::TestWithParam<std::pair<int64_t, int64_t>> {};

TEST_P(PivotedQrShapeTest, FactorizationReconstructs) {
  auto [m, n] = GetParam();
  Rng rng(m * 67 + n);
  Matrix a = Matrix::RandomUniform(m, n, &rng, -1.0, 1.0);
  PivotedQrResult qr = ColumnPivotedQr(a);
  const int64_t k = std::min(m, n);
  EXPECT_EQ(qr.q.rows(), m);
  EXPECT_EQ(qr.q.cols(), k);
  EXPECT_EQ(qr.r.rows(), k);
  EXPECT_EQ(qr.r.cols(), n);
  EXPECT_LT(qr.Reconstruct().MaxAbsDiff(a), 1e-10);
}

TEST_P(PivotedQrShapeTest, QOrthonormalAndDiagonalDescending) {
  auto [m, n] = GetParam();
  Rng rng(m * 71 + n);
  Matrix a = Matrix::RandomUniform(m, n, &rng, -1.0, 1.0);
  PivotedQrResult qr = ColumnPivotedQr(a);
  const int64_t k = std::min(m, n);
  EXPECT_LT(Gram(qr.q).MaxAbsDiff(Matrix::Identity(k)), 1e-10);
  for (int64_t i = 0; i < k; ++i) {
    EXPECT_GE(qr.r(i, i), 0.0);
    if (i > 0) {
      EXPECT_LE(qr.r(i, i), qr.r(i - 1, i - 1) + 1e-12);
    }
    for (int64_t j = 0; j < std::min(i, n); ++j) EXPECT_EQ(qr.r(i, j), 0.0);
  }
}

TEST_P(PivotedQrShapeTest, PermIsAPermutation) {
  auto [m, n] = GetParam();
  Rng rng(m * 73 + n);
  Matrix a = Matrix::RandomUniform(m, n, &rng, -1.0, 1.0);
  PivotedQrResult qr = ColumnPivotedQr(a);
  std::vector<bool> seen(static_cast<size_t>(n), false);
  for (int64_t p : qr.perm) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, n);
    EXPECT_FALSE(seen[static_cast<size_t>(p)]);
    seen[static_cast<size_t>(p)] = true;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PivotedQrShapeTest,
    ::testing::Values(std::pair<int64_t, int64_t>{5, 5},
                      std::pair<int64_t, int64_t>{12, 4},
                      std::pair<int64_t, int64_t>{4, 12},
                      std::pair<int64_t, int64_t>{25, 13},
                      std::pair<int64_t, int64_t>{40, 40}));

TEST(PivotedQr, RevealsExactRankOfConstructedMatrix) {
  // A = U V^T with U 20x3, V 11x3: rank exactly 3.
  Rng rng(77);
  Matrix u = Matrix::RandomUniform(20, 3, &rng, -1.0, 1.0);
  Matrix v = Matrix::RandomUniform(11, 3, &rng, -1.0, 1.0);
  Matrix a = MatMulNT(u, v);
  PivotedQrResult qr = ColumnPivotedQr(a, 1e-10);
  EXPECT_EQ(qr.rank, 3);
  EXPECT_LT(qr.Reconstruct().MaxAbsDiff(a), 1e-10);
}

TEST(PivotedQr, FullRankMatrixHasFullRank) {
  Rng rng(79);
  Matrix a = Matrix::RandomUniform(9, 6, &rng, -1.0, 1.0);
  EXPECT_EQ(ColumnPivotedQr(a).rank, 6);
}

TEST(PivotedQr, LeastSquaresMatchesNormalEquationsOnFullRank) {
  Rng rng(83);
  Matrix a = Matrix::RandomUniform(14, 6, &rng, -1.0, 1.0);
  Vector b(14);
  for (double& x : b) x = rng.Uniform(-1.0, 1.0);
  const Vector pivoted = SolveOne(a, b);
  // Normal equations solution (A^T A) x = A^T b via Cholesky.
  Matrix l;
  ASSERT_TRUE(CholeskyFactor(Gram(a), &l));
  const Vector x_ne = CholeskySolve(l, MatTVec(a, b));
  for (size_t i = 0; i < x_ne.size(); ++i) {
    EXPECT_NEAR(pivoted[i], x_ne[i], 1e-9);
  }
}

TEST(PivotedQr, RankDeficientLeastSquaresHasOptimalResidual) {
  // Column 2 duplicates column 0: rank 2 of 3. The pivoted solve must
  // return a finite x whose residual matches the
  // pseudo-inverse (minimum-norm) solution's — both are least-squares
  // optimal even though the basic solution zeroes the redundant column.
  Matrix a = Matrix::FromRows({{1.0, 2.0, 1.0},
                               {2.0, 1.0, 2.0},
                               {3.0, 1.0, 3.0},
                               {1.0, 5.0, 1.0}});
  Vector b = {1.0, -2.0, 0.5, 3.0};
  const Vector x = SolveOne(a, b);
  const Vector x_pinv = MatVec(PseudoInverse(a), b);
  auto residual = [&](const Vector& sol) {
    double s = 0.0;
    for (int64_t i = 0; i < a.rows(); ++i) {
      double r = b[static_cast<size_t>(i)];
      for (int64_t j = 0; j < a.cols(); ++j) {
        r -= a(i, j) * sol[static_cast<size_t>(j)];
      }
      s += r * r;
    }
    return s;
  };
  EXPECT_NEAR(residual(x), residual(x_pinv), 1e-9);
  for (double v : x) EXPECT_TRUE(std::isfinite(v));
}

TEST(PivotedQr, MultiRhsSolvesEachColumn) {
  Rng rng(89);
  Matrix a = Matrix::RandomUniform(10, 4, &rng, -1.0, 1.0);
  Matrix b = Matrix::RandomUniform(10, 3, &rng, -1.0, 1.0);
  const Matrix x = PivotedQrLeastSquares(a, b);
  ASSERT_EQ(x.rows(), 4);
  ASSERT_EQ(x.cols(), 3);
  for (int64_t col = 0; col < 3; ++col) {
    Vector rhs(10);
    for (int64_t i = 0; i < 10; ++i) rhs[static_cast<size_t>(i)] = b(i, col);
    const Vector single = SolveOne(a, rhs);
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(x(j, col), single[static_cast<size_t>(j)], 1e-9);
    }
  }
}

}  // namespace
}  // namespace hdmm
