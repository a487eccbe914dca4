#include "core/hdmm.h"

#include <gtest/gtest.h>

#include "data/census.h"
#include "workload/building_blocks.h"
#include "workload/marginals.h"

namespace hdmm {
namespace {

HdmmOptions FastOptions() {
  HdmmOptions opts;
  opts.restarts = 1;
  opts.kron.lbfgs.max_iterations = 80;
  opts.union_opts.kron.lbfgs.max_iterations = 80;
  opts.marginals.lbfgs.max_iterations = 80;
  return opts;
}

TEST(Hdmm, NeverWorseThanIdentity) {
  Domain d({8, 8});
  UnionWorkload w = MakeProductWorkload(d, {PrefixBlock(8), PrefixBlock(8)});
  HdmmResult res = OptimizeStrategy(w, FastOptions());
  // Identity error: prod of tr(PrefixGram).
  double id_err = PrefixGram(8).Trace() * PrefixGram(8).Trace();
  EXPECT_LE(res.squared_error, id_err);
  EXPECT_NE(res.chosen_operator, "");
}

TEST(Hdmm, PicksMarginalsForMarginalWorkloads) {
  Domain d({4, 4, 4});
  UnionWorkload w = UpToKWayMarginals(d, 3);
  HdmmOptions opts = FastOptions();
  HdmmResult res = OptimizeStrategy(w, opts);
  // Expected-error consistency between the driver's bookkeeping and the
  // returned strategy object.
  EXPECT_NEAR(res.strategy->SquaredError(w), res.squared_error,
              1e-5 * std::max(1.0, res.squared_error));
}

TEST(Hdmm, UnionOperatorWinsOnDisjointUnion) {
  // W = (R x T) u (T x R): a single product strategy pairs queries badly
  // (Section 6.2); OPT_+ should do at least as well as OPT_x.
  const int64_t n = 8;
  Domain d({n, n});
  UnionWorkload w(d);
  ProductWorkload p1;
  p1.factors = {AllRangeBlock(n), TotalBlock(n)};
  w.AddProduct(p1);
  ProductWorkload p2;
  p2.factors = {TotalBlock(n), AllRangeBlock(n)};
  w.AddProduct(p2);

  HdmmOptions kron_only = FastOptions();
  kron_only.use_union = false;
  kron_only.use_marginals = false;
  HdmmOptions both = FastOptions();
  both.use_marginals = false;

  HdmmResult res_kron = OptimizeStrategy(w, kron_only);
  HdmmResult res_both = OptimizeStrategy(w, both);
  EXPECT_LE(res_both.squared_error, res_kron.squared_error + 1e-9);
}

TEST(Hdmm, StrategySelectionIsDeterministicGivenSeed) {
  Domain d({8});
  UnionWorkload w = MakeProductWorkload(d, {PrefixBlock(8)});
  HdmmOptions opts = FastOptions();
  opts.seed = 99;
  HdmmResult a = OptimizeStrategy(w, opts);
  HdmmResult b = OptimizeStrategy(w, opts);
  EXPECT_DOUBLE_EQ(a.squared_error, b.squared_error);
  EXPECT_EQ(a.chosen_operator, b.chosen_operator);
}

// Regression: the reported squared_error must describe the returned strategy
// exactly. An earlier version reported the optimizer's internal fast-path
// objective, which at extreme Theta disagreed with the built strategy by a
// factor of 5 on AllRange n=64 (it also dipped below the spectral lower
// bound, which is how the bug was caught).
TEST(Hdmm, ReportedErrorMatchesReturnedStrategy) {
  const int64_t n = 64;
  UnionWorkload w = MakeProductWorkload(Domain({n}), {AllRangeBlock(n)});
  HdmmOptions opts;
  opts.restarts = 2;
  opts.seed = 4;
  HdmmResult res = OptimizeStrategy(w, opts);
  EXPECT_NEAR(res.squared_error, res.strategy->SquaredError(w),
              1e-9 * res.squared_error);
}

TEST(Hdmm, MoreRestartsNeverHurt) {
  Domain d({8});
  UnionWorkload w = MakeProductWorkload(d, {AllRangeBlock(8)});
  HdmmOptions one = FastOptions();
  one.seed = 5;
  HdmmOptions three = FastOptions();
  three.restarts = 3;
  three.seed = 5;
  HdmmResult r1 = OptimizeStrategy(w, one);
  HdmmResult r3 = OptimizeStrategy(w, three);
  EXPECT_LE(r3.squared_error, r1.squared_error + 1e-9);
}

TEST(Hdmm, MarginalsRestartsImproveAdultTwoWay) {
  // Each OPT_M restart r >= 1 takes its own random start, and restart r's
  // stream does not depend on S, so the grid's best error can only fall as
  // S grows, and 25 starts find a better basin than the workload-aware one.
  UnionWorkload w = KWayMarginals(AdultDomain(), 2);
  HdmmOptions opts;
  opts.use_kron = false;
  opts.use_union = false;
  double previous = 0.0, first = 0.0;
  for (int s : {1, 2, 4, 8, 25}) {
    opts.restarts = s;
    HdmmResult res = OptimizeStrategy(w, opts);
    ASSERT_EQ(res.chosen_operator, "marginals") << s;
    if (s == 1) {
      first = res.squared_error;
    } else {
      EXPECT_LE(res.squared_error, previous) << s;
    }
    previous = res.squared_error;
  }
  EXPECT_LT(previous, first);
}

}  // namespace
}  // namespace hdmm
