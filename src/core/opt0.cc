#include "core/opt0.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "common/thread_pool.h"

namespace hdmm {

int DefaultPFromSize(int64_t n) {
  return static_cast<int>(std::max<int64_t>(1, n / 16));
}

int DefaultP(const Matrix& workload_factor) {
  // "If an attribute's predicate set is contained in T u I, we set p = 1."
  bool simple = true;
  for (int64_t i = 0; i < workload_factor.rows() && simple; ++i) {
    const double* row = workload_factor.Row(i);
    int64_t nonzero = 0;
    bool all_ones = true;
    for (int64_t j = 0; j < workload_factor.cols(); ++j) {
      if (row[j] != 0.0) {
        ++nonzero;
        if (row[j] != 1.0) all_ones = false;
      }
    }
    bool is_point = (nonzero == 1 && all_ones);
    bool is_total = (nonzero == workload_factor.cols() && all_ones);
    if (!is_point && !is_total) simple = false;
  }
  if (simple) return 1;
  return DefaultPFromSize(workload_factor.cols());
}

Opt0Result Opt0WarmStart(const Matrix& gram, const Matrix& theta0,
                         const LbfgsbOptions& lbfgs, GemmParallelism par) {
  const int p = static_cast<int>(theta0.rows());
  PIdentityObjective objective(gram, p, par);
  // The counter update is an allocation-free relaxed store, so the
  // planner-smoke zero-alloc-per-Eval gate is unaffected (the static-local
  // registry lookup lands once, during warmup).
  static Counter* const evals = Metrics::GetCounter("optimizer.evals");
  ObjectiveFn fn = [&objective](const Vector& x, Vector* grad) {
    evals->Add(1);
    return objective.Eval(x, grad);
  };
  Vector x0(theta0.data(), theta0.data() + theta0.size());
  LbfgsbResult res = MinimizeNonNegative(fn, std::move(x0), lbfgs);
  Opt0Result out;
  out.theta = Matrix(p, gram.rows(), std::move(res.x));
  // Report the error through the backward-stable dense path so the restart
  // selection can never be fooled by Woodbury cancellation at extreme Theta
  // (one O(n^3) evaluation per restart).
  out.error = PIdentityObjective::EvalReference(out.theta, gram);
  return out;
}

Opt0Result Opt0(const Matrix& gram, const Opt0Options& options, Rng* rng) {
  HDMM_CHECK(gram.rows() == gram.cols());
  const int64_t n = gram.rows();
  const int p = options.p > 0 ? options.p : DefaultPFromSize(n);
  const int restarts = std::max(1, options.restarts);

  // Every restart draws its starting point from its own forked stream,
  // derived on the calling thread in restart order — so the set of starting
  // points (and hence the selected strategy) is a pure function of the seed,
  // not of the thread count or scheduling.
  std::vector<Matrix> theta0s;
  theta0s.reserve(static_cast<size_t>(restarts));
  for (int r = 0; r < restarts; ++r) {
    // Cycle the initialization scale across restarts: the Theta = 0 basin
    // (the identity strategy, always a strict local minimum) captures some
    // scales on some workloads, and varying the scale escapes it.
    // Restart 0 draws from U[0, 0.5), which is markedly more robust than
    // U[0, 1) at small n.
    const double scale = 0.5 / static_cast<double>(int64_t{1} << (r % 3));
    Rng child = rng->Fork(static_cast<uint64_t>(r));
    theta0s.push_back(Matrix::RandomUniform(p, n, &child, 0.0, scale));
  }

  // Fan the restarts out over the pool. Each restart runs its whole L-BFGS-B
  // trajectory serially inside one task (kSerial kernels: the inner loop is
  // allocation-free and the pool's width goes to restart-level parallelism);
  // a lone restart keeps pooled kernels so single-restart plans still use
  // the machine.
  const GemmParallelism par =
      restarts > 1 ? GemmParallelism::kSerial : GemmParallelism::kPooled;
  std::vector<Opt0Result> results(static_cast<size_t>(restarts));
  RestartPool().ParallelFor(0, restarts, /*grain=*/1, [&](int64_t r0,
                                                          int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      results[static_cast<size_t>(r)] =
          Opt0WarmStart(gram, theta0s[static_cast<size_t>(r)], options.lbfgs,
                        par);
    }
  });

  // Deterministic selection: restart 0 is kept unconditionally (so the
  // result always carries a valid parameterization even if every error came
  // out non-finite), later restarts only replace it on a strict improvement
  // — the lowest restart index wins ties at any thread count.
  Opt0Result best = std::move(results[0]);
  for (int r = 1; r < restarts; ++r) {
    if (results[static_cast<size_t>(r)].error < best.error)
      best = std::move(results[static_cast<size_t>(r)]);
  }
  return best;
}

}  // namespace hdmm
