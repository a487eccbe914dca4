#include "core/opt_marginals.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/strategy.h"
#include "data/census.h"
#include "linalg/pinv.h"
#include "workload/building_blocks.h"
#include "workload/marginals.h"

namespace hdmm {
namespace {

// Explicit M(theta) for testing: stack of theta_a-weighted marginals.
Matrix ExplicitMarginalsMatrix(const Domain& domain, const Vector& theta) {
  std::vector<Matrix> blocks;
  for (uint32_t mask = 0; mask < theta.size(); ++mask) {
    if (theta[mask] == 0.0) continue;
    ProductWorkload p = MarginalProduct(domain, mask, theta[mask]);
    blocks.push_back(p.Explicit());
  }
  return VStack(blocks);
}

// (sum theta)^2 tr[(M^T M)^+ W^T W] for a workload of weighted marginals,
// summed naively over the common eigenspaces S of the algebra: on S,
// M^T M has eigenvalue sum_{a superset of S} theta_a^2 c(a), and a marginal
// over mask b puts trace w^2 prod_{i in S} (n_i - 1) prod_{i not in b} n_i
// there when S is a subset of b, and nothing otherwise.
double NaiveEigenspaceError(const UnionWorkload& w, const Vector& theta) {
  const Domain& domain = w.domain();
  const int d = domain.NumAttributes();
  const uint32_t masks = uint32_t{1} << d;
  double sum = 0.0, trace = 0.0;
  for (double t : theta) sum += t;
  for (uint32_t s = 0; s < masks; ++s) {
    double lambda = 0.0;
    for (const ProductWorkload& p : w.products()) {
      double term = p.weight * p.weight;
      for (int i = 0; i < d; ++i) {
        const bool measured = p.factors[static_cast<size_t>(i)].rows() > 1;
        const double n = static_cast<double>(domain.AttributeSize(i));
        if ((s >> i) & 1u) {
          term *= measured ? n - 1.0 : 0.0;
        } else if (!measured) {
          term *= n;
        }
      }
      lambda += term;
    }
    if (lambda == 0.0) continue;
    double mu = 0.0;
    for (uint32_t a = 0; a < masks; ++a) {
      if ((a & s) != s) continue;
      double c = theta[a] * theta[a];
      for (int i = 0; i < d; ++i) {
        if (((a >> i) & 1u) == 0) c *= static_cast<double>(domain.AttributeSize(i));
      }
      mu += c;
    }
    trace += lambda / mu;
  }
  return sum * sum * trace;
}

TEST(MarginalsAlgebra, CWeight) {
  MarginalsAlgebra alg({2, 3, 5});
  EXPECT_DOUBLE_EQ(alg.CWeight(0b000), 30.0);
  EXPECT_DOUBLE_EQ(alg.CWeight(0b111), 1.0);
  EXPECT_DOUBLE_EQ(alg.CWeight(0b001), 15.0);  // bit0 set -> drop n_0 = 2.
  EXPECT_DOUBLE_EQ(alg.CWeight(0b100), 6.0);   // bit2 set -> drop n_2 = 5.
}

TEST(MarginalsAlgebra, Proposition3ProductRule) {
  // C(a) C(b) = c(a|b) C(a&b), checked explicitly on a small domain.
  Domain d({2, 3});
  MarginalsAlgebra alg({2, 3});
  auto c_of = [&](uint32_t m) {
    std::vector<Matrix> fs;
    for (int i = 0; i < 2; ++i) {
      int64_t n = d.AttributeSize(i);
      fs.push_back(((m >> i) & 1u) ? Matrix::Identity(n) : Matrix::Ones(n, n));
    }
    return KronExplicit(fs);
  };
  for (uint32_t a = 0; a < 4; ++a) {
    for (uint32_t b = 0; b < 4; ++b) {
      Matrix lhs = MatMul(c_of(a), c_of(b));
      Matrix rhs = MatScale(c_of(a & b), alg.CWeight(a | b));
      EXPECT_LT(lhs.MaxAbsDiff(rhs), 1e-12) << "a=" << a << " b=" << b;
    }
  }
}

TEST(MarginalsAlgebra, EigenvaluesDiagonalizeGram) {
  // M^T M = G(theta^2) acts on eigenspace S as mu_S: M^T M P_S = mu_S P_S,
  // with P_S = kron_i (bit_i(S) ? I - J/n_i : J/n_i), checked explicitly.
  Domain d({2, 3});
  MarginalsAlgebra alg({2, 3});
  Rng rng(2);
  Vector theta(4), u(4);
  for (auto& v : theta) v = rng.Uniform(0.2, 1.0);
  for (size_t a = 0; a < 4; ++a) u[a] = theta[a] * theta[a];
  const Vector mu = alg.Eigenvalues(u);
  const Matrix mtm = Gram(ExplicitMarginalsMatrix(d, theta));
  for (uint32_t s = 0; s < 4; ++s) {
    std::vector<Matrix> fs;
    for (int i = 0; i < 2; ++i) {
      const int64_t n = d.AttributeSize(i);
      Matrix avg = MatScale(Matrix::Ones(n, n), 1.0 / static_cast<double>(n));
      if ((s >> i) & 1u) {
        Matrix rest = Matrix::Identity(n);
        rest.AddInPlace(avg, -1.0);
        fs.push_back(rest);
      } else {
        fs.push_back(avg);
      }
    }
    const Matrix p = KronExplicit(fs);
    EXPECT_LT(MatMul(mtm, p).MaxAbsDiff(MatScale(p, mu[s])), 1e-12)
        << "S=" << s;
  }
}

TEST(MarginalsAlgebra, TraceObjectiveMatchesExplicit) {
  Domain d({2, 3, 2});
  MarginalsAlgebra alg({2, 3, 2});
  Rng rng(3);
  Vector theta(8);
  for (auto& v : theta) v = rng.Uniform(0.2, 1.0);
  UnionWorkload w = UpToKWayMarginals(d, 2);

  Vector tau = alg.WorkloadTraceVector(w);
  double tr = alg.TraceObjective(theta, tau);

  Matrix m = ExplicitMarginalsMatrix(d, theta);
  Matrix ref_gram = Gram(w.Explicit());
  double ref = TracePinvGram(Gram(m), ref_gram);
  EXPECT_NEAR(tr, ref, 1e-6 * std::fabs(ref));
}

TEST(MarginalsAlgebra, TraceObjectiveMatchesExplicitForSpreadWeights) {
  // Weights spanning five orders of magnitude and non-marginal factors
  // (prefix, all-range, total): the eigenspace sum still matches the
  // explicit pseudo-inverse trace, to the reference's own accuracy (M^T M
  // has condition number up to ~1e10 here).
  Domain d({3, 4, 5});
  MarginalsAlgebra alg({3, 4, 5});
  UnionWorkload w(d);
  w.AddProduct({{PrefixBlock(3), IdentityBlock(4), TotalBlock(5)}, 2.0});
  w.AddProduct({{IdentityBlock(3), AllRangeBlock(4), PrefixBlock(5)}, 1.0});
  w.AddProduct({{TotalBlock(3), TotalBlock(4), AllRangeBlock(5)}, 0.5});
  const Vector lambda = alg.WorkloadTraceVector(w);
  const Matrix ref_gram = Gram(w.Explicit());
  Rng rng(21);
  for (int trial = 0; trial < 4; ++trial) {
    Vector theta(8);
    for (auto& v : theta) v = std::pow(10.0, rng.Uniform(-4.0, 1.0));
    const double ref =
        TracePinvGram(Gram(ExplicitMarginalsMatrix(d, theta)), ref_gram);
    EXPECT_NEAR(alg.TraceObjective(theta, lambda), ref, 1e-6 * ref);
  }
}

TEST(OptMarginals, GradientMatchesFiniteDifference) {
  Domain d({3, 4, 5});
  UnionWorkload w = AllMarginals(d);
  w.AddProduct({{PrefixBlock(3), IdentityBlock(4), TotalBlock(5)}, 1.0});
  MarginalsAlgebra alg({3, 4, 5});
  const Vector lambda = alg.WorkloadTraceVector(w);
  Rng rng(4);
  Vector theta(8);
  for (auto& v : theta) v = rng.Uniform(0.3, 1.0);
  Vector grad;
  const double f = alg.Objective(theta, lambda, &grad);
  double sum = 0.0;
  for (double t : theta) sum += t;
  EXPECT_NEAR(f, sum * sum * alg.TraceObjective(theta, lambda), 1e-12 * f);
  ASSERT_EQ(grad.size(), theta.size());
  const double h = 1e-6;
  for (size_t a = 0; a < theta.size(); ++a) {
    Vector up = theta, down = theta;
    up[a] += h;
    down[a] -= h;
    const double fd = (alg.Objective(up, lambda, nullptr) -
                       alg.Objective(down, lambda, nullptr)) /
                      (2.0 * h);
    EXPECT_NEAR(grad[a], fd, 1e-6 * std::fabs(f)) << "a=" << a;
  }
}

TEST(OptMarginals, NeverWorseThanFullTable) {
  // At tiny scale (4x4x4) measuring the full table is locally optimal; the
  // built-in fallback guarantees OPT_M matches it.
  Domain d({4, 4, 4});
  UnionWorkload w = UpToKWayMarginals(d, 2);
  Rng rng(5);
  OptMarginalsResult res = OptMarginals(w, OptMarginalsOptions(), &rng);
  MarginalsAlgebra alg({4, 4, 4});
  Vector full_only(8, 0.0);
  full_only[7] = 1.0;
  Vector tau = alg.WorkloadTraceVector(w);
  double id_err = alg.TraceObjective(full_only, tau);
  EXPECT_LE(res.error, id_err + 1e-9);
}

TEST(OptMarginals, BeatsFullTableOnLargerDomains) {
  // The regime of Table 5: larger per-attribute domains make weighted
  // low-order marginals strongly better than the full contingency table.
  Domain d({10, 10, 10, 10});
  UnionWorkload w = UpToKWayMarginals(d, 2);
  Rng rng(7);
  OptMarginalsResult res = OptMarginals(w, OptMarginalsOptions(), &rng);
  MarginalsAlgebra alg({10, 10, 10, 10});
  Vector full_only(16, 0.0);
  full_only[15] = 1.0;
  Vector tau = alg.WorkloadTraceVector(w);
  double id_err = alg.TraceObjective(full_only, tau);
  EXPECT_LT(res.error, 0.5 * id_err);
}

TEST(OptMarginals, RestartsTakeDistinctStarts) {
  // Restart 0 is the workload-aware start and never reads the Rng; later
  // restarts draw their starts from the Rng, and Algorithm 2's grid gives
  // every job its own stream, so its restarts do not repeat one run.
  UnionWorkload w = KWayMarginals(AdultDomain(), 2);
  auto run = [&](uint64_t seed, int restart) {
    Rng rng(seed);
    return OptMarginals(w, OptMarginalsOptions(), &rng, restart).theta;
  };
  const Vector r0 = run(11, 0), r1 = run(11, 1), r1_other = run(12, 1);
  EXPECT_NE(r0, r1);
  EXPECT_NE(r0, r1_other);
  EXPECT_NE(r1, r1_other);
  EXPECT_EQ(r0, run(12, 0));
}

TEST(OptMarginals, ErrorIsExactOnTable5Domain) {
  // Table 5's domain (d = 8, n = 10, N = 10^8) with up-to-3-way marginals:
  // c(a) reaches 10^8, where a solve in the C(a) basis cancels and reports
  // a fraction of the true error. OPT_M's own error and the strategy's
  // SquaredError must both equal the naive eigenspace sum, for the
  // workload-aware start and for random starts.
  const Domain domain(std::vector<int64_t>(8, 10));
  const UnionWorkload w = UpToKWayMarginals(domain, 3);
  OptMarginalsOptions opts;
  opts.lbfgs.max_iterations = 200;
  for (int restart = 0; restart < 3; ++restart) {
    Rng rng(static_cast<uint64_t>(3 + restart));
    const OptMarginalsResult res = OptMarginals(w, opts, &rng, restart);
    const double exact = NaiveEigenspaceError(w, res.theta);
    EXPECT_NEAR(res.error, exact, 1e-9 * exact) << "restart " << restart;
    const MarginalsStrategy strategy(domain, res.theta);
    EXPECT_NEAR(strategy.SquaredError(w), exact, 1e-9 * exact)
        << "restart " << restart;
  }
}

TEST(OptMarginals, ErrorMatchesStrategySquaredError) {
  Domain d({3, 3});
  UnionWorkload w = AllMarginals(d);
  Rng rng(6);
  OptMarginalsResult res = OptMarginals(w, OptMarginalsOptions(), &rng);
  MarginalsStrategy strat(d, res.theta);
  EXPECT_NEAR(strat.SquaredError(w), res.error,
              1e-6 * std::max(1.0, res.error));
}

}  // namespace
}  // namespace hdmm
