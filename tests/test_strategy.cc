#include "core/strategy.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/error.h"
#include "data/census.h"
#include "linalg/pinv.h"
#include "workload/building_blocks.h"
#include "workload/marginals.h"

namespace hdmm {
namespace {

UnionWorkload SmallWorkload() {
  Domain d({3, 4});
  UnionWorkload w(d);
  ProductWorkload p;
  p.factors = {PrefixBlock(3), PrefixBlock(4)};
  w.AddProduct(p);
  return w;
}

TEST(ExplicitStrategy, SquaredErrorAgainstDefinition) {
  UnionWorkload w = SmallWorkload();
  Rng rng(1);
  Matrix a = Matrix::RandomUniform(14, 12, &rng, 0.0, 1.0);
  ExplicitStrategy strat(a);
  // Definition 7 (sens^2-scaled): ||A||_1^2 ||W A^+||_F^2.
  Matrix wap = MatMul(w.Explicit(), PseudoInverse(a));
  double sens = a.MaxAbsColSum();
  EXPECT_NEAR(strat.SquaredError(w), sens * sens * wap.FrobeniusNormSquared(),
              1e-6 * strat.SquaredError(w));
}

TEST(ExplicitStrategy, ReconstructIsPinv) {
  Rng rng(2);
  Matrix a = Matrix::RandomUniform(9, 5, &rng, 0.0, 1.0);
  ExplicitStrategy strat(a);
  Vector y(9);
  for (auto& v : y) v = rng.Uniform(-1.0, 1.0);
  Vector xhat = strat.Reconstruct(y);
  Vector ref = MatVec(PseudoInverse(a), y);
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(xhat[i], ref[i], 1e-9);
}

TEST(KronStrategy, MatchesExplicitEquivalent) {
  UnionWorkload w = SmallWorkload();
  Rng rng(3);
  Matrix a1 = Matrix::RandomUniform(4, 3, &rng, 0.1, 1.0);
  Matrix a2 = Matrix::RandomUniform(5, 4, &rng, 0.1, 1.0);
  KronStrategy kron({a1, a2});
  ExplicitStrategy explicit_strat(KronExplicit({a1, a2}));

  EXPECT_NEAR(kron.Sensitivity(), explicit_strat.Sensitivity(), 1e-12);
  EXPECT_NEAR(kron.SquaredError(w), explicit_strat.SquaredError(w),
              1e-6 * kron.SquaredError(w));

  Vector x(12);
  for (auto& v : x) v = rng.Uniform(0.0, 5.0);
  Vector ya = kron.Apply(x);
  Vector yb = explicit_strat.Apply(x);
  for (size_t i = 0; i < ya.size(); ++i) EXPECT_NEAR(ya[i], yb[i], 1e-10);

  Vector y(20);
  for (auto& v : y) v = rng.Uniform(-1.0, 1.0);
  Vector ra = kron.Reconstruct(y);
  Vector rb = explicit_strat.Reconstruct(y);
  for (size_t i = 0; i < ra.size(); ++i) EXPECT_NEAR(ra[i], rb[i], 1e-8);
}

TEST(KronStrategy, ReconstructInvertsApplyForInvertibleStrategy) {
  Rng rng(4);
  // Full-rank square factors: A^+ A = I, so Reconstruct(Apply(x)) = x.
  Matrix a1 = Matrix::RandomUniform(3, 3, &rng, 0.1, 1.0);
  Matrix a2 = Matrix::RandomUniform(4, 4, &rng, 0.1, 1.0);
  for (int64_t i = 0; i < 3; ++i) a1(i, i) += 2.0;
  for (int64_t i = 0; i < 4; ++i) a2(i, i) += 2.0;
  KronStrategy kron({a1, a2});
  Vector x(12);
  for (auto& v : x) v = rng.Uniform(0.0, 3.0);
  Vector round = kron.Reconstruct(kron.Apply(x));
  for (size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(round[i], x[i], 1e-8);
}

TEST(UnionKronStrategy, SquaredErrorConvention) {
  // Two groups, each handling one product; sens doubles -> error x4 vs the
  // per-group sum.
  const int64_t n = 5;
  Domain d({n, n});
  UnionWorkload w(d);
  ProductWorkload p1;
  p1.factors = {AllRangeBlock(n), TotalBlock(n)};
  w.AddProduct(p1);
  ProductWorkload p2;
  p2.factors = {TotalBlock(n), AllRangeBlock(n)};
  w.AddProduct(p2);

  // Each part is a sensitivity-1 p-identity-like strategy: use identity.
  std::vector<Matrix> part1 = {IdentityBlock(n), TotalBlock(n)};
  std::vector<Matrix> part2 = {TotalBlock(n), IdentityBlock(n)};
  // Normalize: [I] has column sums 1; [T] column sums 1. OK as-is.
  UnionKronStrategy strat({part1, part2}, {{0}, {1}});
  EXPECT_NEAR(strat.Sensitivity(), 2.0, 1e-12);

  double expected = 0.0;
  {
    double term = TracePinvGram(Gram(IdentityBlock(n)), AllRangeGram(n)) *
                  TracePinvGram(Gram(TotalBlock(n)),
                                Gram(TotalBlock(n)));
    expected += term;
    expected += term;  // Symmetric second group.
  }
  EXPECT_NEAR(strat.SquaredError(w), 4.0 * expected, 1e-8 * expected);
}

TEST(UnionKronStrategy, LsmrReconstructSolvesLeastSquares) {
  Rng rng(5);
  const int64_t n = 4;
  std::vector<Matrix> part1 = {PrefixBlock(n), IdentityBlock(n)};
  std::vector<Matrix> part2 = {IdentityBlock(n), PrefixBlock(n)};
  UnionKronStrategy strat({part1, part2}, {{0}, {1}});
  Vector x(16);
  for (auto& v : x) v = rng.Uniform(0.0, 2.0);
  Vector y = strat.Apply(x);
  Vector xhat = strat.Reconstruct(y);
  // The stacked strategy has full column rank, so recovery is exact.
  for (size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(xhat[i], x[i], 1e-6);
}

TEST(MarginalsStrategy, SensitivityAndShape) {
  Domain d({2, 3});
  Vector theta = {0.5, 1.0, 0.0, 2.0};
  MarginalsStrategy strat(d, theta);
  EXPECT_DOUBLE_EQ(strat.Sensitivity(), 3.5);
  // Queries: total (1) + marginal{0} (2) + marginal{0,1} (6) = 9.
  EXPECT_EQ(strat.NumQueries(), 9);
}

TEST(MarginalsStrategy, ApplyMatchesExplicit) {
  Domain d({2, 3});
  Vector theta = {0.5, 1.0, 0.7, 2.0};
  MarginalsStrategy strat(d, theta);
  Rng rng(6);
  Vector x(6);
  for (auto& v : x) v = rng.Uniform(0.0, 4.0);

  Vector y = strat.Apply(x);
  // Explicit: stack of weighted marginals in ascending mask order.
  std::vector<Matrix> blocks;
  for (uint32_t mask = 0; mask < 4; ++mask) {
    ProductWorkload p = MarginalProduct(d, mask, theta[mask]);
    blocks.push_back(p.Explicit());
  }
  Vector ref = MatVec(VStack(blocks), x);
  ASSERT_EQ(y.size(), ref.size());
  for (size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], ref[i], 1e-10);
}

TEST(MarginalsStrategy, ReconstructMatchesPinv) {
  Domain d({2, 3});
  Vector theta = {0.5, 1.0, 0.7, 2.0};
  MarginalsStrategy strat(d, theta);
  std::vector<Matrix> blocks;
  for (uint32_t mask = 0; mask < 4; ++mask) {
    ProductWorkload p = MarginalProduct(d, mask, theta[mask]);
    blocks.push_back(p.Explicit());
  }
  Matrix m = VStack(blocks);
  Rng rng(7);
  Vector y(static_cast<size_t>(m.rows()));
  for (auto& v : y) v = rng.Uniform(-1.0, 1.0);
  Vector xhat = strat.Reconstruct(y);
  Vector ref = MatVec(PseudoInverse(m), y);
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(xhat[i], ref[i], 1e-7);
}

TEST(MarginalsStrategy, ReconstructMatchesPinvWithoutFullTable) {
  // No weight on the full table: M is rank-deficient, and Reconstruct is
  // still the pseudo-inverse solution.
  Domain d({2, 3});
  Vector theta = {0.5, 1.0, 0.7, 0.0};
  MarginalsStrategy strat(d, theta);
  std::vector<Matrix> blocks;
  for (uint32_t mask = 0; mask < 3; ++mask) {
    blocks.push_back(MarginalProduct(d, mask, theta[mask]).Explicit());
  }
  Matrix m = VStack(blocks);
  Rng rng(8);
  Vector y(static_cast<size_t>(m.rows()));
  for (auto& v : y) v = rng.Uniform(-1.0, 1.0);
  Vector xhat = strat.Reconstruct(y);
  Vector ref = MatVec(PseudoInverse(m), y);
  ASSERT_EQ(xhat.size(), ref.size());
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_NEAR(xhat[i], ref[i], 1e-9);
}

TEST(MarginalsStrategy, ReconstructIsExactForSpreadWeights) {
  // Weights spanning seven orders of magnitude on the Adult domain
  // (N = 240,000), the regime OPT_M's plans live in: noise-free
  // measurements must reconstruct the data exactly.
  const Domain domain = AdultDomain();
  Rng rng(31);
  Vector theta(32);
  for (double& t : theta) t = std::pow(10.0, rng.Uniform(-3.0, 1.0));
  theta[31] = 1e-4;
  const MarginalsStrategy strategy(domain, theta);
  Vector x(static_cast<size_t>(domain.TotalSize()));
  for (double& v : x) v = std::floor(rng.Uniform(0.0, 10.0));
  const Vector xhat = strategy.Reconstruct(strategy.Apply(x));
  ASSERT_EQ(xhat.size(), x.size());
  double worst = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    worst = std::max(worst, std::fabs(xhat[i] - x[i]));
  }
  EXPECT_LT(worst, 1e-9);
}

TEST(Strategy, MeasureAddsCalibratedNoise) {
  // Statistical test: empirical variance of Measure matches 2(sens/eps)^2.
  Domain d({4});
  UnionWorkload w = MakeProductWorkload(d, {IdentityBlock(4)});
  KronStrategy strat({IdentityBlock(4)});
  Rng rng(8);
  Vector x = {10.0, 20.0, 30.0, 40.0};
  const double eps = 0.7;
  const int trials = 4000;
  double sum_sq = 0.0;
  for (int t = 0; t < trials; ++t) {
    Vector y = strat.Measure(x, eps, &rng);
    for (size_t i = 0; i < 4; ++i) {
      double noise = y[i] - x[i];
      sum_sq += noise * noise;
    }
  }
  double var = sum_sq / (4 * trials);
  double expected = 2.0 / (eps * eps);  // sens = 1.
  EXPECT_NEAR(var, expected, 0.15 * expected);
}

TEST(ErrorRatio, IdentityVsItselfIsOne) {
  UnionWorkload w = SmallWorkload();
  KronStrategy a({IdentityBlock(3), IdentityBlock(4)});
  KronStrategy b({IdentityBlock(3), IdentityBlock(4)});
  EXPECT_NEAR(ErrorRatio(w, a, b), 1.0, 1e-12);
}

// Cached plans are shared across threads, so the first Reconstruct calls
// on a fresh strategy race to build its lazily cached pseudo-inverses. Every
// thread must see the fully built cache and the serial answer.
void ExpectConcurrentReconstructMatchesSerial(const Strategy& shared,
                                              const Strategy& reference) {
  constexpr int kThreads = 4;
  Rng rng(17);
  Vector y(static_cast<size_t>(shared.NumQueries()));
  for (double& v : y) v = rng.Uniform(-1.0, 1.0);
  const Vector expected = reference.Reconstruct(y);

  std::atomic<int> ready{0};
  std::vector<Vector> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Line every thread up so they all hit the cold cache together.
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      got[static_cast<size_t>(t)] = shared.Reconstruct(y);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<size_t>(t)], expected) << "thread " << t;
  }
}

TEST(StrategyConcurrency, SharedKronReconstruct) {
  for (int round = 0; round < 8; ++round) {
    const std::vector<Matrix> factors(3, PrefixBlock(16));
    KronStrategy shared(factors);
    KronStrategy reference(factors);
    ExpectConcurrentReconstructMatchesSerial(shared, reference);
  }
}

TEST(StrategyConcurrency, SharedExplicitReconstruct) {
  for (int round = 0; round < 8; ++round) {
    ExplicitStrategy shared(PrefixBlock(48));
    ExplicitStrategy reference(PrefixBlock(48));
    ExpectConcurrentReconstructMatchesSerial(shared, reference);
  }
}

}  // namespace
}  // namespace hdmm
