// Marginals release on a CPS-like schema (Section 8): OPT_M finds a
// weighted set of marginals to measure and reports which ones it weights
// most — the kind of output an agency would review before a release.
//
//   build/examples/example_marginals_cps
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "baselines/baselines.h"
#include "baselines/datacube.h"
#include "core/hdmm.h"
#include "data/census.h"
#include "workload/marginals.h"

int main() {
  using namespace hdmm;

  Domain domain = CpsDomain();
  UnionWorkload w = KWayMarginals(domain, 2);
  std::printf("workload: all 2-way marginals of CPS %s — %lld queries\n",
              domain.ToString().c_str(),
              static_cast<long long>(w.TotalQueries()));

  HdmmOptions options;
  options.restarts = 3;
  HdmmResult res = OptimizeStrategy(w, options);
  std::printf("HDMM chose the %s operator, squared error %.3g\n",
              res.chosen_operator.c_str(), res.squared_error);

  double id_err = MakeIdentityBaseline(domain)->SquaredError(w);
  double lm_err = LaplaceMechanismSquaredError(w);
  std::printf("identity ratio %.2f, LM ratio %.2f  (paper, Adult 2-way: "
              "5.30 and 2.11)\n",
              std::sqrt(id_err / res.squared_error),
              std::sqrt(lm_err / res.squared_error));

  // If the winner is a marginals strategy, show the heaviest marginals.
  // The error is invariant to rescaling theta, so print each weight as its
  // share of the privacy budget, theta_m / sum(theta).
  if (auto* marg = dynamic_cast<MarginalsStrategy*>(res.strategy.get())) {
    const double total = marg->Sensitivity();
    std::vector<std::pair<double, uint32_t>> weighted;
    for (uint32_t m = 0; m < marg->theta().size(); ++m) {
      const double share = marg->theta()[m] / total;
      if (share > 1e-6) weighted.push_back({share, m});
    }
    std::sort(weighted.rbegin(), weighted.rend());
    std::printf("top weighted marginals in the selected strategy:\n");
    for (size_t i = 0; i < std::min<size_t>(6, weighted.size()); ++i) {
      std::printf("  budget share %5.3f  { ", weighted[i].first);
      for (int a = 0; a < domain.NumAttributes(); ++a) {
        if ((weighted[i].second >> a) & 1u)
          std::printf("%s ", domain.AttributeName(a).c_str());
      }
      std::printf("}\n");
    }
  }
  return 0;
}
