// Whole-pipeline integration tests: workload authoring (spec text or SQL)
// through OPT_HDMM, persistence, measurement, and reconstruction — the paths
// a deployment actually exercises, glued end to end.
#include <cmath>

#include <gtest/gtest.h>

#include "core/error.h"
#include "core/hdmm.h"
#include "core/strategy_io.h"
#include "core/svd_bound.h"
#include "data/csv.h"
#include "data/synthetic.h"
#include "workload/algebra.h"
#include "workload/building_blocks.h"
#include "workload/parser.h"
#include "workload/sql.h"

namespace hdmm {
namespace {

// The sf1_mini sample shipped in examples/workloads, inlined so the test is
// hermetic. Parity with the file is covered by the CLI smoke tests.
constexpr char kSf1Mini[] = R"(
domain hispanic=2 sex=2 race=8 age=24 state=6
product sex=identity age=prefix
product race=identity state=identitytotal
product weight=2 sex=identity hispanic=identity age=range(18,23) state=identitytotal
product age=range(0,4) state=identitytotal
product weight=4 state=identitytotal
)";

TEST(Integration, SpecToMechanismEndToEnd) {
  UnionWorkload w = ParseWorkload(kSf1Mini).value();
  EXPECT_EQ(w.domain().NumAttributes(), 5);
  EXPECT_EQ(w.DomainSize(), 2 * 2 * 8 * 24 * 6);

  HdmmOptions options;
  options.restarts = 1;
  options.seed = 3;
  HdmmResult sel = OptimizeStrategy(w, options);
  // Never worse than the identity fallback, by construction.
  std::vector<Matrix> id;
  for (int i = 0; i < w.domain().NumAttributes(); ++i) {
    id.push_back(IdentityBlock(w.domain().AttributeSize(i)));
  }
  EXPECT_LE(sel.squared_error,
            KronStrategy(std::move(id)).SquaredError(w) * (1.0 + 1e-9));

  // Mechanism run: empirical error within a loose factor of the closed form
  // (single run, so only sanity-scale agreement is expected).
  Rng rng(5);
  Vector x = ZipfDataVector(w.domain(), 30000, 1.1, &rng);
  const Vector truth = TrueAnswers(w, x);
  const double eps = 1.0;
  const int trials = 8;
  double total = 0.0;
  for (int t = 0; t < trials; ++t) {
    total += EmpiricalSquaredError(
        truth, RunMechanism(w, *sel.strategy, x, eps, &rng));
  }
  const double predicted = sel.strategy->TotalSquaredError(w, eps);
  EXPECT_GT(total / trials, 0.2 * predicted);
  EXPECT_LT(total / trials, 5.0 * predicted);
}

TEST(Integration, SpecSerializeReoptimizeFixedPoint) {
  // Spec -> workload -> serialize -> parse -> identical Gram, identical
  // optimized error under the same seed.
  UnionWorkload w1 = ParseWorkload(kSf1Mini).value();
  UnionWorkload w2 = ParseWorkload(SerializeWorkload(w1)).value();
  ASSERT_EQ(w1.NumProducts(), w2.NumProducts());
  ASSERT_EQ(w1.TotalQueries(), w2.TotalQueries());

  HdmmOptions options;
  options.restarts = 1;
  options.seed = 17;
  HdmmResult r1 = OptimizeStrategy(w1, options);
  HdmmResult r2 = OptimizeStrategy(w2, options);
  EXPECT_DOUBLE_EQ(r1.squared_error, r2.squared_error);
  EXPECT_EQ(r1.chosen_operator, r2.chosen_operator);
}

TEST(Integration, SqlAndSpecAgreeOnEquivalentWorkloads) {
  // The same logical workload authored through both front ends must produce
  // identical Gram matrices (and therefore identical optimization problems).
  Domain d({"sex", "age"}, {2, 12});
  UnionWorkload from_sql = ParseSqlWorkload(
      "SELECT sex, COUNT(*) FROM R GROUP BY sex;"
      "SELECT COUNT(*) FROM R WHERE age <= 4",
      d).value();
  UnionWorkload from_spec = ParseWorkload(
      "domain sex=2 age=12\n"
      "product sex=identity\n"
      "product age=range(0,4)\n").value();
  EXPECT_LT(from_sql.ExplicitGram().MaxAbsDiff(from_spec.ExplicitGram()),
            1e-12);
}

TEST(Integration, OptimizeSaveLoadMeasureParity) {
  // The deployment loop: optimize, persist, reload, measure — reloaded
  // strategy must give bit-equal measurements under the same noise seed.
  UnionWorkload w = ParseWorkload(
      "domain a=16 b=4\n"
      "product a=allrange\n"
      "product a=identity b=identity\n").value();
  HdmmOptions options;
  options.restarts = 1;
  options.seed = 7;
  HdmmResult sel = OptimizeStrategy(w, options);

  const std::string path = ::testing::TempDir() + "/integration.hdmm";
  const Status saved = SaveStrategyFile(path, *sel.strategy);
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  auto loaded = LoadStrategyFile(path).value();

  Rng rng_data(1);
  Vector x = UniformDataVector(w.domain(), 5000, &rng_data);
  Rng noise_a(42), noise_b(42);
  const Vector ya = sel.strategy->Measure(x, 1.0, &noise_a);
  const Vector yb = loaded->Measure(x, 1.0, &noise_b);
  ASSERT_EQ(ya.size(), yb.size());
  for (size_t i = 0; i < ya.size(); ++i) EXPECT_EQ(ya[i], yb[i]);
}

TEST(Integration, CsvToAnswersMatchesDirectCounts) {
  // CSV ingestion feeding the mechanism at huge epsilon reproduces exact
  // counts, closing the loop between the data layer and query semantics.
  Domain d({"sex", "age"}, {2, 6});
  Dataset dataset(d);
  const Status parsed =
      ParseCsvDataset("sex,age\n0,1\n0,1\n1,5\n1,0\n0,3\n", d, &dataset);
  ASSERT_TRUE(parsed.ok()) << parsed.ToString();

  UnionWorkload w = ParseSqlWorkload(
      "SELECT COUNT(*) FROM R WHERE sex = 0;"
      "SELECT age, COUNT(*) FROM R GROUP BY age",
      d).value();
  HdmmOptions options;
  options.restarts = 1;
  HdmmResult sel = OptimizeStrategy(w, options);

  Rng rng(2);
  const Vector answers =
      RunMechanism(w, *sel.strategy, dataset.ToDataVector(), 1e9, &rng);
  EXPECT_NEAR(answers[0], 3.0, 1e-4);  // sex = 0 count.
  EXPECT_NEAR(answers[1], 1.0, 1e-4);  // age 0.
  EXPECT_NEAR(answers[2], 2.0, 1e-4);  // age 1.
  EXPECT_NEAR(answers[6], 1.0, 1e-4);  // age 5.
}

TEST(Integration, AlgebraExtensionOptimizesAtLargerDomain) {
  // SF1 -> SF1+ style growth through the algebra: the extended workload
  // still optimizes, with the domain scaled by the new attribute.
  UnionWorkload national = ParseWorkload(
      "domain sex=2 age=8\n"
      "product sex=identity age=prefix\n").value();
  UnionWorkload with_state = AppendAttribute(
      national, VStack({TotalBlock(4), IdentityBlock(4)}), "state");
  EXPECT_EQ(with_state.DomainSize(), national.DomainSize() * 4);

  HdmmOptions options;
  options.restarts = 1;
  HdmmResult sel = OptimizeStrategy(with_state, options);
  EXPECT_GT(sel.squared_error, 0.0);
  EXPECT_GE(OptimalityRatio(*sel.strategy, with_state), 1.0 - 1e-9);
}

}  // namespace
}  // namespace hdmm
