// OPT_HDMM (Algorithm 2, Section 7.1) and the end-to-end HDMM mechanism
// (Table 1b): fully automated strategy selection followed by
// measure + reconstruct + workload answering.
#ifndef HDMM_CORE_HDMM_H_
#define HDMM_CORE_HDMM_H_

#include <memory>
#include <string>

#include "common/deadline.h"
#include "common/rng.h"
#include "core/opt_kron.h"
#include "core/opt_marginals.h"
#include "core/opt_union.h"
#include "core/strategy.h"
#include "workload/workload.h"

namespace hdmm {

/// Options for OPT_HDMM.
struct HdmmOptions {
  /// Random restarts S (Algorithm 2). The paper uses 25 but observes that
  /// "far fewer than 25 restarts may be sufficient in practice"
  /// (Section 8.1); the library default favors runtime. This is the only
  /// restart loop of the multi-dimensional operators: each (restart r,
  /// operator) cell runs one start on its own stream forked from `seed`.
  /// OPT_x and OPT_+ draw every Theta_i ~ U[0, 0.5) from that stream at any
  /// r. OPT_M's restart 0 starts from the workload's own marginals, and
  /// restart r >= 1 draws theta_0 ~ U[0, 1) (see OptMarginals).
  int restarts = 3;

  bool use_kron = true;       ///< Run OPT_x.
  bool use_union = true;      ///< Run OPT_+ on the signature grouping g(W).
  bool use_marginals = true;  ///< Run OPT_M.
  int max_marginals_dims = 14;  ///< Skip OPT_M beyond this dimensionality.

  OptKronOptions kron;
  OptUnionOptions union_opts;
  OptMarginalsOptions marginals;

  uint64_t seed = 0;

  /// Cooperative stop, polled before each restart job and once per L-BFGS-B
  /// iteration inside them. Not owned; null means run to completion. Plan
  /// fingerprints hash the fields above and ignore this pointer, so the same
  /// options with or without a token name the same plan.
  const CancelToken* cancel = nullptr;
};

/// Result of strategy selection.
struct HdmmResult {
  std::unique_ptr<Strategy> strategy;
  double squared_error = 0.0;   ///< ||A||_1^2 ||W A^+||_F^2 of the winner.
  std::string chosen_operator;  ///< "identity", "kron", "union", "marginals".
  /// True when options.cancel fired mid-run. The strategy is then a
  /// best-so-far, NOT the deterministic full-grid winner — callers must
  /// treat the result as abandoned (never cache or serve it).
  bool cancelled = false;
};

/// Runs OPT_HDMM: evaluates the Identity fallback plus every enabled operator
/// across `restarts` random starts and returns the lowest-error strategy.
/// Strategy selection is data-independent and consumes no privacy budget
/// (Section 7.3).
HdmmResult OptimizeStrategy(const UnionWorkload& w,
                            const HdmmOptions& options = HdmmOptions());

/// End-to-end mechanism (Table 1b): measures x with the strategy under
/// epsilon-DP and returns the estimated workload answers W x_hat.
/// The only interaction with x is through the Laplace mechanism, so the
/// output is epsilon-differentially private (Theorem 7).
Vector RunMechanism(const UnionWorkload& w, const Strategy& strategy,
                    const Vector& x, double epsilon, Rng* rng);

/// True workload answers W x (for evaluation only).
Vector TrueAnswers(const UnionWorkload& w, const Vector& x);

}  // namespace hdmm

#endif  // HDMM_CORE_HDMM_H_
