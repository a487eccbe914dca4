// OPT_0 (Problem 2, Section 5.2): gradient-based optimization of p-Identity
// strategies for an explicitly-represented workload Gram matrix. Scales to
// modest domains (N ~ 10^4 in the paper); the multi-dimensional operators of
// Section 6 use it as their inner subroutine.
#ifndef HDMM_CORE_OPT0_H_
#define HDMM_CORE_OPT0_H_

#include "common/rng.h"
#include "core/pidentity.h"
#include "linalg/matrix.h"
#include "optimize/lbfgsb.h"

namespace hdmm {

/// Options for OPT_0.
struct Opt0Options {
  int p = 0;           ///< Extra rows; 0 = auto (max(1, n/16), Section 7.1).
  int restarts = 1;    ///< Random restarts (S in Algorithm 2).
  LbfgsbOptions lbfgs; ///< Inner optimizer settings.
};

/// Result of OPT_0: the optimized parameters and their error.
struct Opt0Result {
  Matrix theta;        ///< p x n parameters of the p-Identity strategy.
  double error = 0.0;  ///< ||W A^+||_F^2 (sensitivity-1 expected error).
};

/// Runs OPT_0 on the Gram matrix G = W^T W of an explicit workload. Taking
/// the Gram rather than W itself allows closed-form Grams for structured
/// workloads (e.g., AllRange) that are too large to materialize.
///
/// Restarts fan out in parallel over the shared pool, each on an
/// independent stream forked from `rng` (Rng::Fork), with the lowest
/// restart index winning error ties — the selected strategy is bit-identical
/// at any thread count. Restart 0 is kept unconditionally so the result
/// carries a valid Theta even when every restart evaluates non-finite.
Opt0Result Opt0(const Matrix& gram, const Opt0Options& options, Rng* rng);

/// Warm-started single run from an existing parameter matrix (used by the
/// block-cyclic union optimization, Problem 3). `par` selects the compute
/// kernels of the inner objective: Opt0's restart fan-out, which already
/// runs warm starts in parallel, passes kSerial.
Opt0Result Opt0WarmStart(const Matrix& gram, const Matrix& theta0,
                         const LbfgsbOptions& lbfgs,
                         GemmParallelism par = GemmParallelism::kPooled);

/// The paper's default p for a workload factor: 1 if every query row is
/// either a point query or the total (strategies richer than [I; T] don't
/// help), else max(1, n/16) (Section 7.1).
int DefaultP(const Matrix& workload_factor);

/// DefaultP from a Gram matrix when the factor itself is implicit: uses the
/// diagonal/off-diagonal structure to detect Identity+Total-like workloads.
int DefaultPFromSize(int64_t n);

}  // namespace hdmm

#endif  // HDMM_CORE_OPT0_H_
