// OPT_x (Definition 10 / Problem 3): strategy optimization for (unions of)
// product workloads, decomposed into per-attribute OPT_0 problems. For unions
// the coupled problem is solved block-cyclically with the surrogate workload
// of Equation 6.
#ifndef HDMM_CORE_OPT_KRON_H_
#define HDMM_CORE_OPT_KRON_H_

#include <vector>

#include "common/rng.h"
#include "core/opt0.h"
#include "workload/workload.h"

namespace hdmm {

/// Options for OPT_x.
struct OptKronOptions {
  /// Per-attribute p; empty = the Section 7.1 convention (1 for T/I-only
  /// attributes, n_i/16 otherwise).
  std::vector<int> p;
  int max_cycles = 8;  ///< Block-cyclic passes over the attributes.
  LbfgsbOptions lbfgs;
};

/// Result of OPT_x: one p_i-Identity parameter block per attribute.
struct OptKronResult {
  std::vector<Matrix> thetas;
  /// sum_j w_j^2 prod_i ||W_i^(j) A_i^+||_F^2 — the Theorem 6 objective for
  /// the sensitivity-1 product strategy A = A_1 x ... x A_d.
  double error = 0.0;
};

/// Runs OPT_x on a (union of) product workload from one random start,
/// Theta_i ~ U[0, 0.5) drawn from `rng->Fork(0)`. Restarts are the caller's:
/// Algorithm 2's grid (OptimizeStrategy) runs one call per restart.
OptKronResult OptKron(const UnionWorkload& w, const OptKronOptions& options,
                      Rng* rng);

/// Builds the explicit per-attribute strategy factors A_i(Theta_i) from an
/// OPT_x result.
std::vector<Matrix> KronStrategyFactors(const OptKronResult& result);

/// The Section 7.1 p-convention for attribute i of a union workload.
int AttributeDefaultP(const UnionWorkload& w, int attribute);

}  // namespace hdmm

#endif  // HDMM_CORE_OPT_KRON_H_
