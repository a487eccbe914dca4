#include "core/opt_marginals.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"

namespace hdmm {

MarginalsAlgebra::MarginalsAlgebra(std::vector<int64_t> attr_sizes)
    : d_(static_cast<int>(attr_sizes.size())), sizes_(std::move(attr_sizes)) {
  HDMM_CHECK_MSG(d_ >= 1 && d_ <= 20, "marginals algebra supports d in [1,20]");
  const uint32_t masks = num_masks();
  cweight_.resize(masks);
  for (uint32_t m = 0; m < masks; ++m) {
    double c = 1.0;
    for (int i = 0; i < d_; ++i) {
      if (((m >> i) & 1u) == 0) c *= static_cast<double>(sizes_[static_cast<size_t>(i)]);
    }
    cweight_[m] = c;
  }
}

Vector MarginalsAlgebra::Eigenvalues(const Vector& u) const {
  const uint32_t masks = num_masks();
  HDMM_CHECK(u.size() == masks);
  Vector mu(masks);
  for (uint32_t a = 0; a < masks; ++a) mu[a] = u[a] * cweight_[a];
  for (int i = 0; i < d_; ++i) {
    const uint32_t bit = 1u << i;
    for (uint32_t s = 0; s < masks; ++s) {
      if ((s & bit) == 0) mu[s] += mu[s | bit];
    }
  }
  return mu;
}

Vector MarginalsAlgebra::WorkloadTraceVector(const UnionWorkload& w) const {
  HDMM_CHECK(w.domain().NumAttributes() == d_);
  const uint32_t masks = num_masks();
  Vector lambda(masks, 0.0);
  for (const ProductWorkload& prod : w.products()) {
    // Per attribute, the factor Gram's trace on the ones vector, sum(G)/n,
    // and on its complement, tr(G) - sum(G)/n. Neither needs the n x n Gram
    // materialized: tr(F^T F) = ||F||_F^2 and sum(F^T F) = ||F 1||^2, both
    // O(rows x cols) row scans.
    std::vector<double> ones(static_cast<size_t>(d_)),
        rest(static_cast<size_t>(d_));
    for (int i = 0; i < d_; ++i) {
      const Matrix& f = prod.factors[static_cast<size_t>(i)];
      double row_sum_sq = 0.0;
      for (int64_t r = 0; r < f.rows(); ++r) {
        const double* row = f.Row(r);
        double rs = 0.0;
        for (int64_t c = 0; c < f.cols(); ++c) rs += row[c];
        row_sum_sq += rs * rs;
      }
      const double on_ones = row_sum_sq / static_cast<double>(f.cols());
      ones[static_cast<size_t>(i)] = on_ones;
      // Non-negative in exact arithmetic (G is PSD); clamp the rounding.
      rest[static_cast<size_t>(i)] =
          std::max(0.0, f.FrobeniusNormSquared() - on_ones);
    }
    const double w2 = prod.weight * prod.weight;
    for (uint32_t s = 0; s < masks; ++s) {
      double term = w2;
      for (int i = 0; i < d_; ++i) {
        term *= ((s >> i) & 1u) ? rest[static_cast<size_t>(i)]
                                : ones[static_cast<size_t>(i)];
      }
      lambda[s] += term;
    }
  }
  return lambda;
}

double MarginalsAlgebra::TraceObjective(const Vector& theta,
                                        const Vector& lambda) const {
  const uint32_t masks = num_masks();
  HDMM_CHECK(theta.size() == masks && lambda.size() == masks);
  Vector u(masks);
  for (uint32_t a = 0; a < masks; ++a) u[a] = theta[a] * theta[a];
  const Vector mu = Eigenvalues(u);
  double tr = 0.0;
  for (uint32_t s = 0; s < masks; ++s) {
    if (lambda[s] > 0.0) tr += lambda[s] / mu[s];  // +inf when mu_S = 0.
  }
  return tr;
}

double MarginalsAlgebra::Objective(const Vector& theta, const Vector& lambda,
                                   Vector* grad) const {
  const uint32_t masks = num_masks();
  HDMM_CHECK(theta.size() == masks && lambda.size() == masks);
  Vector u(masks);
  for (uint32_t a = 0; a < masks; ++a) u[a] = theta[a] * theta[a];
  const Vector mu = Eigenvalues(u);
  const double s = Sum(theta);
  // tr = sum_S lambda_S / mu_S and, for the gradient, r_S = lambda_S / mu_S^2.
  double tr = 0.0;
  Vector r(masks, 0.0);
  for (uint32_t e = 0; e < masks; ++e) {
    if (!(lambda[e] > 0.0)) continue;
    tr += lambda[e] / mu[e];
    r[e] = lambda[e] / (mu[e] * mu[e]);
  }
  const double obj = s * s * tr;
  if (!(s > 0.0) || !std::isfinite(obj)) {
    if (grad != nullptr) grad->assign(masks, 0.0);
    return std::numeric_limits<double>::infinity();
  }
  if (grad != nullptr) {
    // d mu_S / d theta_a = 2 theta_a c(a) for S subset of a, so
    //   d obj / d theta_a = 2 s tr - 2 s^2 theta_a c(a) sum_{S subset a} r_S,
    // the inner sums by a subset-sum transform.
    for (int i = 0; i < d_; ++i) {
      const uint32_t bit = 1u << i;
      for (uint32_t a = 0; a < masks; ++a) {
        if ((a & bit) != 0) r[a] += r[a ^ bit];
      }
    }
    grad->resize(masks);
    for (uint32_t a = 0; a < masks; ++a) {
      (*grad)[a] = 2.0 * s * tr - 2.0 * s * s * theta[a] * cweight_[a] * r[a];
    }
  }
  return obj;
}

OptMarginalsResult OptMarginals(const UnionWorkload& w,
                                const OptMarginalsOptions& options, Rng* rng,
                                int restart) {
  HDMM_CHECK(restart >= 0);
  MarginalsAlgebra algebra(w.domain().sizes());
  const uint32_t masks = algebra.num_masks();
  const Vector lambda = algebra.WorkloadTraceVector(w);
  ObjectiveFn fn = [&](const Vector& theta, Vector* grad) -> double {
    return algebra.Objective(theta, lambda, grad);
  };

  // The objective is invariant to rescaling theta (both (sum theta)^2 and
  // the inverse eigenvalues scale oppositely), so bounding the box loses no
  // generality. The lower bound on theta_{2^d} keeps every eigenvalue mu_S
  // positive, so every workload is supported and the objective finite.
  Vector lower(masks, 0.0);
  lower[masks - 1] = 1e-4;
  Vector upper(masks, 1e3);

  OptMarginalsResult best;
  // Deterministic fallback: theta = e_full (measure the full contingency
  // table, i.e. the identity strategy). Guarantees OPT_M never regresses
  // below the Algorithm 2 identity baseline on marginal workloads.
  best.theta.assign(masks, 0.0);
  best.theta[masks - 1] = 1.0;
  best.error = algebra.TraceObjective(best.theta, lambda);

  // One start per call; Algorithm 2's grid (OptimizeStrategy) supplies the
  // restarts. Restart 0 starts from the workload's own marginals (a very
  // strong basin): weight 1 on every mask the workload asks for, tiny weight
  // elsewhere. Later restarts draw uniform starts.
  Vector theta0(masks, 0.01);
  if (restart == 0) {
    for (const ProductWorkload& prod : w.products()) {
      uint32_t mask = 0;
      for (int i = 0; i < w.domain().NumAttributes(); ++i) {
        if (prod.factors[static_cast<size_t>(i)].rows() > 1) mask |= (1u << i);
      }
      theta0[mask] = 1.0;
    }
  } else {
    for (uint32_t a = 0; a < masks; ++a) theta0[a] = rng->Uniform(0.0, 1.0);
  }
  theta0[masks - 1] = std::max(theta0[masks - 1], 0.1);

  LbfgsbResult res =
      MinimizeLbfgsb(fn, std::move(theta0), lower, upper, options.lbfgs);
  if (res.f < best.error) {
    best.error = res.f;
    best.theta = std::move(res.x);
  }
  return best;
}

}  // namespace hdmm
