// Thread-count invariance of the planner: for a fixed seed, Opt0 and
// OptimizeStrategy (Algorithm 2's restart grid) must select bit-identical
// strategies and errors whether restarts fan out over 1 thread, 4, or 16.
// The tests route the restart fan-out through private pools of different
// widths (SetRestartPoolForTest) and compare raw result bits, so any
// scheduling- or reduction-order dependence fails loudly. 16 exceeds both
// the restart counts used here (tasks outnumbered by threads — idle workers
// must not perturb anything) and any CI runner's core count
// (oversubscription).
#include <cstring>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/hdmm.h"
#include "core/opt0.h"
#include "core/opt_marginals.h"
#include "core/strategy_io.h"
#include "data/census.h"
#include "workload/building_blocks.h"
#include "workload/marginals.h"

namespace hdmm {
namespace {

// Runs `fn` with optimizer restart fan-out on a dedicated pool of
// `total_threads` (callers included), restoring the default pool afterwards.
template <typename Fn>
auto WithRestartThreads(int total_threads, Fn fn) {
  ThreadPool pool(total_threads - 1);
  SetRestartPoolForTest(&pool);
  auto result = fn();
  SetRestartPoolForTest(nullptr);
  return result;
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(),
                      sizeof(double) * static_cast<size_t>(a.size())) == 0);
}

bool BitIdentical(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

UnionWorkload SmallCensus() {
  Domain d({"sex", "age"}, {2, 24});
  UnionWorkload w(d);
  ProductWorkload p1;
  p1.factors = {IdentityBlock(2), PrefixBlock(24)};
  w.AddProduct(p1);
  ProductWorkload p2;
  p2.factors = {TotalBlock(2), IdentityBlock(24)};
  w.AddProduct(p2);
  return w;
}

TEST(RngFork, IndependentOfParentConsumption) {
  // The forked stream depends on (seed, fork order, stream id) only — not on
  // how far the parent sequence has advanced.
  Rng drained(7);
  for (int i = 0; i < 100; ++i) drained.Uniform();
  Rng fresh(7);
  Rng a = drained.Fork(3);
  Rng b = fresh.Fork(3);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.Uniform(), b.Uniform());
}

TEST(RngFork, SuccessiveForksDiffer) {
  // Equal stream ids on successive Fork calls still yield distinct streams
  // (the per-parent epoch separates them), and distinct stream ids differ.
  Rng parent(11);
  Rng a = parent.Fork(0);
  Rng b = parent.Fork(0);
  Rng c = parent.Fork(1);
  EXPECT_NE(a.Uniform(), b.Uniform());
  EXPECT_NE(a.Uniform(), c.Uniform());
}

TEST(PlannerDeterminism, Opt0ThreadCountInvariant) {
  Matrix g = AllRangeGram(24);
  Opt0Options opts;
  opts.p = 2;
  opts.restarts = 4;
  auto run = [&] {
    Rng rng(42);
    return Opt0(g, opts, &rng);
  };
  Opt0Result narrow = WithRestartThreads(1, run);
  for (int threads : {4, 16}) {
    Opt0Result wide = WithRestartThreads(threads, run);
    EXPECT_TRUE(BitIdentical(narrow.error, wide.error)) << threads;
    EXPECT_TRUE(BitIdentical(narrow.theta, wide.theta)) << threads;
  }
}

// Runs OptimizeStrategy at 1, 4 and 16 threads and checks that all three
// select the same strategy bit for bit; returns the 1-thread result.
HdmmResult ExpectOptimizeStrategyThreadCountInvariant(
    const UnionWorkload& w, const HdmmOptions& options) {
  auto run = [&] { return OptimizeStrategy(w, options); };
  HdmmResult narrow = WithRestartThreads(1, run);
  for (int threads : {4, 16}) {
    HdmmResult wide = WithRestartThreads(threads, run);
    EXPECT_EQ(narrow.chosen_operator, wide.chosen_operator) << threads;
    EXPECT_TRUE(BitIdentical(narrow.squared_error, wide.squared_error))
        << threads;
    // The strategies themselves must match bit-for-bit, not just their
    // errors: compare through the canonical serialization.
    EXPECT_EQ(SerializeStrategy(*narrow.strategy),
              SerializeStrategy(*wide.strategy))
        << threads;
  }
  return narrow;
}

TEST(PlannerDeterminism, OptimizeStrategyThreadCountInvariant) {
  HdmmOptions options;
  options.restarts = 2;
  options.seed = 99;
  ExpectOptimizeStrategyThreadCountInvariant(SmallCensus(), options);

  // Adult 2-way at S = 3 is won by an OPT_M restart r >= 1, so the random
  // OPT_M starts must be thread-count invariant too.
  UnionWorkload adult = KWayMarginals(AdultDomain(), 2);
  options.restarts = 3;
  HdmmResult res = ExpectOptimizeStrategyThreadCountInvariant(adult, options);
  EXPECT_EQ(res.chosen_operator, "marginals");
  Rng unused(0);
  EXPECT_LT(res.squared_error,
            OptMarginals(adult, options.marginals, &unused, 0).error);
}

TEST(PlannerDeterminism, RepeatedRunsIdenticalOnSamePool) {
  // Two back-to-back runs with the same seed (same pool) must agree — the
  // restart Rng forking may not leak state between calls through anything
  // but the caller's Rng instance.
  UnionWorkload w = SmallCensus();
  HdmmOptions options;
  options.restarts = 2;
  options.seed = 7;
  HdmmResult first = OptimizeStrategy(w, options);
  HdmmResult second = OptimizeStrategy(w, options);
  EXPECT_EQ(first.chosen_operator, second.chosen_operator);
  EXPECT_TRUE(BitIdentical(first.squared_error, second.squared_error));
  EXPECT_EQ(SerializeStrategy(*first.strategy),
            SerializeStrategy(*second.strategy));
}

}  // namespace
}  // namespace hdmm
