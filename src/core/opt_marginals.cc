#include "core/opt_marginals.h"

#include <cmath>
#include <limits>

#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "linalg/cholesky.h"

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

Matrix MarginalsAlgebra::BuildX(const Vector& u) const {
  const uint32_t masks = num_masks();
  HDMM_CHECK(u.size() == masks);
  Matrix x(masks, masks);
  for (uint32_t a = 0; a < masks; ++a) {
    const double ua = u[a];
    if (ua == 0.0) continue;
    for (uint32_t b = 0; b < masks; ++b) {
      x(a & b, b) += ua * cweight_[a | b];
    }
  }
  return x;
}

Vector MarginalsAlgebra::InverseWeights(const Vector& u) const {
  const uint32_t masks = num_masks();
  HDMM_CHECK(u.size() == masks);
  HDMM_CHECK_MSG(u[masks - 1] > 0.0,
                 "InverseWeights requires positive weight on the full "
                 "marginal (theta_{2^d} > 0)");
  Matrix x = BuildX(u);
  Vector e_full(masks, 0.0);
  e_full[masks - 1] = 1.0;  // C(2^d - 1) = I.
  return UpperTriangularSolve(x, e_full);
}

Vector MarginalsAlgebra::WorkloadTraceVector(const UnionWorkload& w) const {
  HDMM_CHECK(w.domain().NumAttributes() == d_);
  const uint32_t masks = num_masks();
  Vector tau(masks, 0.0);
  for (const ProductWorkload& prod : w.products()) {
    // Per-attribute trace and sum of the factor Gram matrices. tr(1 G) is
    // the sum of all entries of G; tr(I G) is the trace. Neither needs the
    // n x n Gram materialized: tr(F^T F) = ||F||_F^2 and
    // sum(F^T F) = 1^T F^T F 1 = ||F 1||^2, both O(rows x cols) row scans.
    std::vector<double> tr(static_cast<size_t>(d_)),
        sm(static_cast<size_t>(d_));
    for (int i = 0; i < d_; ++i) {
      const Matrix& f = prod.factors[static_cast<size_t>(i)];
      tr[static_cast<size_t>(i)] = f.FrobeniusNormSquared();
      double row_sum_sq = 0.0;
      for (int64_t r = 0; r < f.rows(); ++r) {
        const double* row = f.Row(r);
        double rs = 0.0;
        for (int64_t c = 0; c < f.cols(); ++c) rs += row[c];
        row_sum_sq += rs * rs;
      }
      sm[static_cast<size_t>(i)] = row_sum_sq;
    }
    const double w2 = prod.weight * prod.weight;
    for (uint32_t a = 0; a < masks; ++a) {
      double term = w2;
      for (int i = 0; i < d_; ++i) {
        term *= ((a >> i) & 1u) ? tr[static_cast<size_t>(i)]
                                : sm[static_cast<size_t>(i)];
      }
      tau[a] += term;
    }
  }
  return tau;
}

double MarginalsAlgebra::TraceObjective(const Vector& theta,
                                        const Vector& tau) const {
  const uint32_t masks = num_masks();
  HDMM_CHECK(theta.size() == masks && tau.size() == masks);
  Vector u(masks);
  for (uint32_t a = 0; a < masks; ++a) u[a] = theta[a] * theta[a];
  Vector v = InverseWeights(u);
  double tr = Dot(v, tau);
  // The exact trace is strictly positive; a non-positive value means the
  // triangular solve lost all precision (extreme weight disparity).
  if (!(tr > 0.0) || !std::isfinite(tr)) {
    return std::numeric_limits<double>::infinity();
  }
  return tr;
}

OptMarginalsResult OptMarginals(const UnionWorkload& w,
                                const OptMarginalsOptions& options, Rng* rng) {
  MarginalsAlgebra algebra(w.domain().sizes());
  const uint32_t masks = algebra.num_masks();
  const Vector tau = algebra.WorkloadTraceVector(w);

  // Objective (Problem 4): (sum theta)^2 * tr[G(v) W^T W], u = theta^2,
  // X(u) v = e_full. Gradient via the adjoint of the triangular solve:
  //   d(v . tau)/du_a = -sum_b y[a&b] c(a|b) v_b,  X(u)^T y = tau.
  ObjectiveFn fn = [&](const Vector& theta, Vector* grad) -> double {
    double s = Sum(theta);
    if (s <= 0.0 || theta[masks - 1] <= 0.0) {
      if (grad != nullptr) grad->assign(theta.size(), 0.0);
      return std::numeric_limits<double>::infinity();
    }
    Vector u(masks);
    for (uint32_t a = 0; a < masks; ++a) u[a] = theta[a] * theta[a];
    Matrix x = algebra.BuildX(u);
    Vector e_full(masks, 0.0);
    e_full[masks - 1] = 1.0;
    Vector v = UpperTriangularSolve(x, e_full);
    double vt = Dot(v, tau);
    double obj = s * s * vt;
    if (!(vt > 0.0) || !std::isfinite(obj)) {
      // Numerically poisoned region (the exact objective is positive).
      if (grad != nullptr) grad->assign(theta.size(), 0.0);
      return std::numeric_limits<double>::infinity();
    }
    if (grad != nullptr) {
      Vector y = UpperTriangularSolveTranspose(x, tau);
      grad->assign(masks, 0.0);
      // O(masks^2) double loop — the cost wall for high-d marginal domains.
      // Rows (gradient entries) are independent; fan out over the pool.
      ComputePool().ParallelFor(
          0, masks, /*grain=*/64, [&](int64_t a0, int64_t a1) {
            for (int64_t ai = a0; ai < a1; ++ai) {
              const uint32_t a = static_cast<uint32_t>(ai);
              double dvt = 0.0;
              for (uint32_t b = 0; b < masks; ++b) {
                dvt -= y[a & b] * algebra.CWeight(a | b) * v[b];
              }
              (*grad)[a] = 2.0 * s * vt + s * s * dvt * 2.0 * theta[a];
            }
          });
    }
    return obj;
  };

  // The objective is invariant to rescaling theta (both (sum theta)^2 and
  // the inverse weights scale oppositely), so bounding the box loses no
  // generality and keeps the triangular solves well-conditioned.
  Vector lower(masks, 0.0);
  lower[masks - 1] = options.min_full_weight;
  Vector upper(masks, 1e3);

  OptMarginalsResult best;
  // Deterministic fallback: theta = e_full (measure the full contingency
  // table, i.e. the identity strategy). Guarantees OPT_M never regresses
  // below the Algorithm 2 identity baseline on marginal workloads.
  best.theta.assign(masks, 0.0);
  best.theta[masks - 1] = 1.0;
  best.error = algebra.TraceObjective(best.theta, tau);

  // Masks present in the workload (for the workload-aware initialization):
  // a marginal strategy that measures roughly what the workload asks is an
  // excellent starting basin.
  Vector workload_mask_weight(masks, 0.0);
  for (const ProductWorkload& prod : w.products()) {
    uint32_t mask = 0;
    for (int i = 0; i < w.domain().NumAttributes(); ++i) {
      if (prod.factors[static_cast<size_t>(i)].rows() > 1) mask |= (1u << i);
    }
    workload_mask_weight[mask] += 1.0;
  }

  // Starting points are derived on the calling thread, in restart order,
  // from forked streams — a pure function of the seed, so the fan-out below
  // selects the same strategy at any thread count (lowest restart index
  // wins ties).
  const int restarts = std::max(1, options.restarts);
  std::vector<Vector> theta0s(static_cast<size_t>(restarts));
  for (int r = 0; r < restarts; ++r) {
    Vector theta0(masks);
    if (r == 0 && options.workload_aware_init) {
      // Workload-aware start: weight the workload's own marginals, tiny
      // weight elsewhere.
      for (uint32_t a = 0; a < masks; ++a) {
        theta0[a] = workload_mask_weight[a] > 0.0 ? 1.0 : 0.01;
      }
    } else {
      Rng child = rng->Fork(static_cast<uint64_t>(r));
      const double scale = 1.0 / static_cast<double>(int64_t{1} << (r % 3));
      for (uint32_t a = 0; a < masks; ++a)
        theta0[a] = child.Uniform(0.0, scale);
    }
    theta0[masks - 1] = std::max(theta0[masks - 1], 0.1);
    theta0s[static_cast<size_t>(r)] = std::move(theta0);
  }

  std::vector<LbfgsbResult> results(static_cast<size_t>(restarts));
  RestartPool().ParallelFor(0, restarts, /*grain=*/1, [&](int64_t r0,
                                                          int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      results[static_cast<size_t>(r)] =
          MinimizeLbfgsb(fn, std::move(theta0s[static_cast<size_t>(r)]), lower,
                         upper, options.lbfgs);
    }
  });
  for (int r = 0; r < restarts; ++r) {
    LbfgsbResult& res = results[static_cast<size_t>(r)];
    if (res.f < best.error) {
      best.error = res.f;
      best.theta = std::move(res.x);
    }
  }
  return best;
}

}  // namespace hdmm
