// Figure 5 (Appendix C.4): solution quality vs time for OPT_0 (monolithic,
// explicit 2D domain) against OPT_x (decomposed per attribute) on the 2D
// all-range workload. The paper (64x64): OPT_0 eventually finds a slightly
// better strategy but takes far longer to converge; OPT_x converges almost
// immediately.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "common/timer.h"
#include "core/opt0.h"
#include "core/opt_kron.h"
#include "linalg/kron.h"
#include "workload/building_blocks.h"

int main(int argc, char** argv) {
  using namespace hdmm;
  bool full = hdmm_bench::FullScale(argc, argv);
  hdmm_bench::Banner("Figure 5: quality vs time, OPT_0 vs OPT_x (2D AllRange)",
                     "Figure 5 of McKenna et al. 2018");

  const int64_t n = full ? 32 : 16;  // Per-side; the 2D domain is n^2.
  Matrix g1 = AllRangeGram(n);
  Matrix gram2d = KronExplicit({g1, g1});
  const double id_err = gram2d.Trace();

  // OPT_x: time to run the decomposed optimization.
  Domain d({n, n});
  UnionWorkload w = MakeProductWorkload(d, {AllRangeBlock(n), AllRangeBlock(n)});
  // Two starts (seeds 1 and 2), keeping the better, as Algorithm 2's
  // restarts would.
  WallTimer t_kron;
  OptKronResult kres;
  for (uint64_t seed : {1, 2}) {
    Rng rng(seed);
    OptKronResult res = OptKron(w, OptKronOptions(), &rng);
    if (seed == 1 || res.error < kres.error) kres = std::move(res);
  }
  std::printf("OPT_x : %8.2fs  error %.1f  (vs identity %.1f)\n",
              t_kron.Seconds(), kres.error, id_err);

  // OPT_0 on the explicit 2D Gram, reporting the error trajectory by
  // re-running with increasing iteration budgets.
  std::printf("OPT_0 trajectory (explicit N = %lld):\n",
              static_cast<long long>(n * n));
  for (int iters : {5, 20, 60, 150}) {
    WallTimer t;
    Rng rng2(2);
    Opt0Options opts;
    opts.p = static_cast<int>(std::max<int64_t>(2, (n * n) / 16));
    opts.restarts = 1;
    opts.lbfgs.max_iterations = iters;
    Opt0Result res = Opt0(gram2d, opts, &rng2);
    std::printf("  iters=%4d  %8.2fs  error %.1f\n", iters, t.Seconds(),
                res.error);
  }
  std::printf(
      "\nShape check (paper): OPT_x converges in a fraction of OPT_0's "
      "time; OPT_0's larger search space eventually edges slightly ahead.\n");
  return 0;
}
