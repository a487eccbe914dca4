// OPT_M (Problem 4, Section 6.3) and the closed marginals algebra of
// Appendix A.4. Strategies are weighted sets of marginals M(theta),
// theta in R^{2^d}_+, and both the objective and its gradient are evaluated
// in O(d 2^d) time independent of the attribute domain sizes.
#ifndef HDMM_CORE_OPT_MARGINALS_H_
#define HDMM_CORE_OPT_MARGINALS_H_

#include <cstdint>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "optimize/lbfgsb.h"
#include "workload/workload.h"

namespace hdmm {

/// The closed algebra over matrices G(v) = sum_a v_a C(a), where
/// C(a) = kron_i (I if bit_i(a) else 1) — Propositions 3 and 4 of the paper.
///
/// Every G(u) is diagonal in one common eigenbasis: per attribute, the ones
/// vector and its orthogonal complement. Eigenspace S takes the complement
/// on the attributes in mask S, and there G(u) has the eigenvalue
/// mu_S = sum_{a superset of S} u_a c(a). Products and inverses stay in the
/// algebra (Proposition 4) because they act eigenvalue by eigenvalue. The
/// error objective and the reconstruction (MarginalsStreamReconstructor)
/// work in this basis, where no sum cancels; in the C(a) basis the weights
/// of G(u)^{-1} cancel catastrophically once c(a) theta_a^2 spans many
/// orders of magnitude.
class MarginalsAlgebra {
 public:
  explicit MarginalsAlgebra(std::vector<int64_t> attr_sizes);

  int d() const { return d_; }
  uint32_t num_masks() const { return uint32_t{1} << d_; }
  const std::vector<int64_t>& attr_sizes() const { return sizes_; }

  /// c(m) = prod_{i : bit_i(m) = 0} n_i  (Proposition 3's scalar).
  double CWeight(uint32_t mask) const {
    return cweight_[static_cast<size_t>(mask)];
  }

  /// The eigenvalues mu_S = sum_{a superset of S} u_a c(a) of G(u), one per
  /// mask S, by a superset-sum transform in O(d 2^d).
  Vector Eigenvalues(const Vector& u) const;

  /// Per-eigenspace workload traces lambda_S = tr[P_S W^T W], with P_S the
  /// projector on eigenspace S: lambda_S = sum_j w_j^2 prod_i (bit_i(S) ?
  /// tr(G_i^(j)) - sum(G_i^(j)) / n_i : sum(G_i^(j)) / n_i). Then
  /// tr[G(u)^+ W^T W] = sum_S lambda_S / mu_S. Precomputed once per
  /// workload; cost linear in the number of products (Section 6.3).
  Vector WorkloadTraceVector(const UnionWorkload& w) const;

  /// tr[(M(theta)^T M(theta))^+ W^T W] = sum_S lambda_S / mu_S(theta^2)
  /// given lambda = WorkloadTraceVector(w). Every term is non-negative, so
  /// the sum does not cancel however widely theta spreads. Infinite when
  /// the workload needs an eigenspace M(theta) does not measure
  /// (lambda_S > 0 = mu_S).
  double TraceObjective(const Vector& theta, const Vector& lambda) const;

  /// OPT_M's objective (Problem 4), (sum theta)^2 * TraceObjective, and,
  /// when `grad` is non-null, its gradient in theta, both in O(d 2^d).
  /// Infinite (with a zero gradient) where TraceObjective is infinite or
  /// sum theta <= 0.
  double Objective(const Vector& theta, const Vector& lambda,
                   Vector* grad) const;

 private:
  int d_;
  std::vector<int64_t> sizes_;
  Vector cweight_;
};

/// Options for OPT_M.
struct OptMarginalsOptions {
  LbfgsbOptions lbfgs;
};

/// Result of OPT_M.
struct OptMarginalsResult {
  Vector theta;        ///< 2^d marginal weights.
  double error = 0.0;  ///< (sum theta)^2 * ||W M(theta)^+||_F^2.
};

/// Optimizes the weighted-marginals strategy for a union-of-products
/// workload from one start. The sensitivity constraint is folded into the
/// objective (sum theta_i)^2 * ||W M(theta)^+||_F^2 exactly as in Problem 4.
///
/// `restart` is the index of this start in Algorithm 2's restart loop.
/// Restart 0 starts from the workload's own marginals and never reads `rng`;
/// restart r >= 1 draws theta_0 ~ U[0, 1) from `rng`. Pure random starts
/// (Figure 3) pass r >= 1. The result is never worse than the
/// full contingency table (theta = e_full).
OptMarginalsResult OptMarginals(const UnionWorkload& w,
                                const OptMarginalsOptions& options, Rng* rng,
                                int restart = 0);

}  // namespace hdmm

#endif  // HDMM_CORE_OPT_MARGINALS_H_
