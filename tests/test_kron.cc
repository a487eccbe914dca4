#include "linalg/kron.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/pinv.h"

namespace hdmm {
namespace {

TEST(Kron, ExplicitSmall) {
  Matrix a = Matrix::FromRows({{1, 2}});
  Matrix b = Matrix::FromRows({{0, 1}, {1, 0}});
  Matrix k = KronExplicit(a, b);
  EXPECT_EQ(k.rows(), 2);
  EXPECT_EQ(k.cols(), 4);
  // a kron b = [0 1 0 2; 1 0 2 0].
  EXPECT_DOUBLE_EQ(k(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(k(0, 3), 2.0);
  EXPECT_DOUBLE_EQ(k(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(k(1, 2), 2.0);
}

TEST(Kron, VectorKron) {
  Vector a = {1.0, 2.0};
  Vector b = {3.0, 4.0, 5.0};
  Vector k = KronVector({a, b});
  ASSERT_EQ(k.size(), 6u);
  EXPECT_DOUBLE_EQ(k[0], 3.0);
  EXPECT_DOUBLE_EQ(k[2], 5.0);
  EXPECT_DOUBLE_EQ(k[3], 6.0);
  EXPECT_DOUBLE_EQ(k[5], 10.0);
}

// Property: KronMatVec(A_1..A_d, x) == KronExplicit(A_1..A_d) * x for random
// factor shapes (including non-square factors), d = 1..4.
class KronMatVecTest : public ::testing::TestWithParam<int> {};

TEST_P(KronMatVecTest, MatchesExplicit) {
  const int d = GetParam();
  Rng rng(static_cast<uint64_t>(100 + d));
  std::vector<Matrix> factors;
  int64_t n_total = 1;
  for (int i = 0; i < d; ++i) {
    int64_t m = rng.UniformInt(1, 4);
    int64_t n = rng.UniformInt(2, 4);
    factors.push_back(Matrix::RandomUniform(m, n, &rng, -1.0, 1.0));
    n_total *= n;
  }
  Vector x(static_cast<size_t>(n_total));
  for (auto& v : x) v = rng.Uniform(-1.0, 1.0);

  Vector fast = KronMatVec(factors, x);
  Matrix full = KronExplicit(factors);
  Vector ref = MatVec(full, x);
  ASSERT_EQ(fast.size(), ref.size());
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(fast[i], ref[i], 1e-11);

  // Transpose apply agrees too.
  Vector y(static_cast<size_t>(full.rows()));
  for (auto& v : y) v = rng.Uniform(-1.0, 1.0);
  Vector fast_t = KronMatTVec(factors, y);
  Vector ref_t = MatTVec(full, y);
  for (size_t i = 0; i < ref_t.size(); ++i)
    EXPECT_NEAR(fast_t[i], ref_t[i], 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Dims, KronMatVecTest, ::testing::Values(1, 2, 3, 4));

TEST(Kron, OperatorInterface) {
  Rng rng(42);
  Matrix a = Matrix::RandomUniform(3, 4, &rng);
  Matrix b = Matrix::RandomUniform(2, 5, &rng);
  KronOperator op({a, b});
  EXPECT_EQ(op.Rows(), 6);
  EXPECT_EQ(op.Cols(), 20);
  Vector x(20, 1.0);
  Vector y = op.Apply(x);
  Vector ref = MatVec(KronExplicit({a, b}), x);
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(y[i], ref[i], 1e-12);
}

TEST(Kron, SensitivityTheorem3) {
  // ||A_1 x A_2||_1 = ||A_1||_1 ||A_2||_1.
  Rng rng(43);
  Matrix a = Matrix::RandomUniform(3, 3, &rng, -1.0, 1.0);
  Matrix b = Matrix::RandomUniform(4, 2, &rng, -1.0, 1.0);
  double implicit = KronSensitivity({a, b});
  double explicit_sens = KronExplicit({a, b}).MaxAbsColSum();
  EXPECT_NEAR(implicit, explicit_sens, 1e-12);
}

TEST(Kron, PinvFactorization) {
  // (A x B)^+ = A^+ x B^+ (Section 4.4): verified via explicit matrices.
  Rng rng(44);
  Matrix a = Matrix::RandomUniform(4, 3, &rng, -1.0, 1.0);
  Matrix b = Matrix::RandomUniform(5, 2, &rng, -1.0, 1.0);
  Matrix full = KronExplicit({a, b});
  // Use the library pinv on the kron and on the factors.
  Matrix p_full = PseudoInverse(full);
  Matrix p_kron = KronExplicit({PseudoInverse(a), PseudoInverse(b)});
  EXPECT_LT(p_full.MaxAbsDiff(p_kron), 1e-8);
}

}  // namespace
}  // namespace hdmm
