// Figure 6 (Appendix C.5): scalability of the two optimization kernels.
// Left: OPT_0 runtime vs 1D domain size (walls out near N ~ 10^4).
// Right: OPT_M runtime vs number of dimensions (independent of attribute
// sizes; scales to d = 14 at paper scale).
#include <cstdio>

#include "bench_util.h"
#include "common/timer.h"
#include "core/opt0.h"
#include "core/opt_marginals.h"
#include "workload/building_blocks.h"
#include "workload/marginals.h"

int main(int argc, char** argv) {
  using namespace hdmm;
  bool full = hdmm_bench::FullScale(argc, argv);
  hdmm_bench::Banner("Figure 6: OPT_0 time vs N; OPT_M time vs d",
                     "Figure 6 of McKenna et al. 2018");

  std::printf("OPT_0 (AllRange Gram, p = n/16, 1 restart):\n");
  std::printf("%-10s %12s\n", "N", "time(s)");
  std::vector<int64_t> sizes = {64, 128, 256, 512};
  if (full) sizes.push_back(1024);
  for (int64_t n : sizes) {
    Matrix gram = AllRangeGram(n);
    WallTimer t;
    Rng rng(1);
    Opt0Options opts;
    opts.p = static_cast<int>(std::max<int64_t>(1, n / 16));
    opts.restarts = 1;
    Opt0(gram, opts, &rng);
    std::printf("%-10lld %12.3f\n", static_cast<long long>(n), t.Seconds());
  }

  std::printf("\nOPT_M (up-to-2-way marginals, attribute size 4):\n");
  std::printf("%-10s %12s\n", "d", "time(s)");
  std::vector<int> dims = {2, 4, 6, 8, 10};
  if (full) {
    dims.push_back(12);
    dims.push_back(14);
  }
  for (int d : dims) {
    Domain domain(std::vector<int64_t>(d, 4));
    UnionWorkload w = UpToKWayMarginals(domain, std::min(2, d));
    WallTimer t;
    Rng rng(2);
    OptMarginalsOptions opts;
    opts.lbfgs.max_iterations = 100;
    OptMarginals(w, opts, &rng);
    std::printf("%-10d %12.3f\n", d, t.Seconds());
  }
  std::printf(
      "\nShape check (paper): OPT_0 ~cubic in N (practical to ~10^4); "
      "OPT_M cost independent of attribute sizes (O(d 2^d) per evaluation "
      "here; the paper's is O(4^d)).\n");
  return 0;
}
