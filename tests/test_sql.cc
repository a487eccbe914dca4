#include "workload/sql.h"

#include <random>

#include <gtest/gtest.h>

#include "workload/building_blocks.h"

namespace hdmm {
namespace {

Domain PersonDomain() {
  // A miniature of the paper's Person schema (Section 2).
  return Domain({"sex", "age", "hispanic"}, {2, 10, 2});
}

ProductWorkload MustParse(const std::string& sql, const Domain& d) {
  return ParseSqlQuery(sql, d).value();
}

// Example 2 of the paper: WHERE sex=M AND age < 5 as a product of singleton
// predicate sets (with Total on the unmentioned attribute).
TEST(Sql, PaperExample2) {
  ProductWorkload p = MustParse(
      "SELECT COUNT(*) FROM Person WHERE sex = 1 AND age < 5",
      PersonDomain());
  ASSERT_EQ(p.factors.size(), 3u);
  // sex = 1.
  EXPECT_EQ(p.factors[0].rows(), 1);
  EXPECT_EQ(p.factors[0](0, 0), 0.0);
  EXPECT_EQ(p.factors[0](0, 1), 1.0);
  // age < 5: ones on [0, 5).
  EXPECT_EQ(p.factors[1].rows(), 1);
  EXPECT_EQ(p.factors[1].Sum(), 5.0);
  EXPECT_EQ(p.factors[1](0, 4), 1.0);
  EXPECT_EQ(p.factors[1](0, 5), 0.0);
  // hispanic unmentioned -> Total.
  EXPECT_EQ(p.factors[2].MaxAbsDiff(TotalBlock(2)), 0.0);
  EXPECT_EQ(p.NumQueries(), 1);
}

// Example 3 of the paper: GROUP BY sex, age WHERE hispanic = 1 becomes
// I_sex x I_age x {hispanic=1} with 2 x 10 = 20 queries.
TEST(Sql, PaperExample3) {
  ProductWorkload p = MustParse(
      "SELECT sex, age, COUNT(*) FROM Person WHERE hispanic = 1 "
      "GROUP BY sex, age",
      PersonDomain());
  EXPECT_EQ(p.factors[0].MaxAbsDiff(IdentityBlock(2)), 0.0);
  EXPECT_EQ(p.factors[1].MaxAbsDiff(IdentityBlock(10)), 0.0);
  EXPECT_EQ(p.factors[2].rows(), 1);
  EXPECT_EQ(p.factors[2](0, 1), 1.0);
  EXPECT_EQ(p.NumQueries(), 20);
}

TEST(Sql, UnconstrainedCountIsTotalQuery) {
  ProductWorkload p =
      MustParse("SELECT COUNT(*) FROM Person", PersonDomain());
  for (const Matrix& f : p.factors) EXPECT_EQ(f.rows(), 1);
  EXPECT_EQ(p.NumQueries(), 1);
}

TEST(Sql, OperatorSemantics) {
  const Domain d({"a"}, {6});
  struct Case {
    const char* where;
    double expected_sum;  // Number of selected domain values.
  };
  for (const Case& c : std::vector<Case>{{"a = 3", 1},
                                         {"a != 3", 5},
                                         {"a < 3", 3},
                                         {"a <= 3", 4},
                                         {"a > 3", 2},
                                         {"a >= 3", 3}}) {
    ProductWorkload p = MustParse(
        std::string("SELECT COUNT(*) FROM R WHERE ") + c.where, d);
    EXPECT_EQ(p.factors[0].Sum(), c.expected_sum) << c.where;
  }
}

TEST(Sql, BetweenAndIn) {
  const Domain d({"a"}, {10});
  ProductWorkload between = MustParse(
      "SELECT COUNT(*) FROM R WHERE a BETWEEN 2 AND 5", d);
  EXPECT_EQ(between.factors[0].Sum(), 4.0);
  EXPECT_EQ(between.factors[0](0, 2), 1.0);
  EXPECT_EQ(between.factors[0](0, 5), 1.0);

  ProductWorkload in = MustParse(
      "SELECT COUNT(*) FROM R WHERE a IN (1, 4, 7)", d);
  EXPECT_EQ(in.factors[0].Sum(), 3.0);
  EXPECT_EQ(in.factors[0](0, 4), 1.0);
  EXPECT_EQ(in.factors[0](0, 5), 0.0);
}

TEST(Sql, ConjunctionOnSameAttributeIntersects) {
  const Domain d({"a"}, {10});
  ProductWorkload p = MustParse(
      "SELECT COUNT(*) FROM R WHERE a >= 3 AND a < 7 AND a != 5", d);
  // {3, 4, 6}.
  EXPECT_EQ(p.factors[0].Sum(), 3.0);
  EXPECT_EQ(p.factors[0](0, 5), 0.0);
  EXPECT_EQ(p.factors[0](0, 6), 1.0);
}

TEST(Sql, GroupByWithPredicateOnSameAttribute) {
  const Domain d({"a"}, {10});
  ProductWorkload p = MustParse(
      "SELECT a, COUNT(*) FROM R WHERE a < 4 GROUP BY a", d);
  // Four groups: rows of identity restricted to {0,1,2,3}.
  EXPECT_EQ(p.factors[0].rows(), 4);
  EXPECT_EQ(p.factors[0](3, 3), 1.0);
  EXPECT_EQ(p.factors[0](3, 4), 0.0);
  EXPECT_EQ(p.NumQueries(), 4);
}

TEST(Sql, InequalityConstantsMaySaturate) {
  const Domain d({"a"}, {5});
  // a < 100 selects everything; a > 100 selects nothing -> error later, but
  // the saturating "<" alone is fine.
  ProductWorkload p = MustParse("SELECT COUNT(*) FROM R WHERE a < 100", d);
  EXPECT_EQ(p.factors[0].Sum(), 5.0);
}

TEST(Sql, KeywordsAreCaseInsensitive) {
  const Domain d({"a"}, {4});
  ProductWorkload p = MustParse(
      "select count(*) from R where a between 1 and 2", d);
  EXPECT_EQ(p.factors[0].Sum(), 2.0);
}

TEST(Sql, ScriptBecomesUnionWorkload) {
  const Domain d = PersonDomain();
  UnionWorkload w = ParseSqlWorkload(
      "SELECT COUNT(*) FROM Person WHERE sex = 0;\n"
      "SELECT age, COUNT(*) FROM Person GROUP BY age;\n"
      "  ;\n"  // Empty statements are ignored.
      "SELECT COUNT(*) FROM Person WHERE age BETWEEN 0 AND 4 AND sex = 1\n",
      d).value();
  EXPECT_EQ(w.NumProducts(), 3);
  EXPECT_EQ(w.TotalQueries(), 1 + 10 + 1);
  EXPECT_EQ(w.DomainSize(), 40);
}

// --- Error cases -------------------------------------------------------------

struct BadSql {
  const char* sql;
  const char* message_fragment;
};

class SqlErrorTest : public ::testing::TestWithParam<BadSql> {};

TEST_P(SqlErrorTest, RejectsWithMessage) {
  const Status status = ParseSqlQuery(GetParam().sql, PersonDomain()).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(GetParam().message_fragment),
            std::string::npos)
      << "actual error: " << status.message();
}

INSTANTIATE_TEST_SUITE_P(
    BadStatements, SqlErrorTest,
    ::testing::Values(
        BadSql{"", "expected SELECT"},
        BadSql{"SELECT * FROM R", "expected an attribute name"},
        BadSql{"SELECT COUNT(*) WHERE sex = 1", "expected FROM"},
        BadSql{"SELECT COUNT(*) FROM R WHERE", "expected an attribute name"},
        BadSql{"SELECT COUNT(*) FROM R WHERE bogus = 1", "unknown attribute"},
        BadSql{"SELECT COUNT(*) FROM R WHERE sex = 5",
               "outside dom(sex)"},
        BadSql{"SELECT COUNT(*) FROM R WHERE sex = -1",
               "outside dom(sex)"},
        BadSql{"SELECT COUNT(*) FROM R WHERE age BETWEEN 5 AND 2",
               "out of order"},
        BadSql{"SELECT COUNT(*) FROM R WHERE age IN ()", "expected an integer"},
        BadSql{"SELECT COUNT(*) FROM R WHERE age = 1 AND age = 2",
               "contradictory predicates"},
        BadSql{"SELECT sex, COUNT(*) FROM R", "not in GROUP BY"},
        BadSql{"SELECT COUNT(*) FROM R GROUP BY bogus", "unknown attribute"},
        BadSql{"SELECT COUNT(*) FROM R WHERE sex ~ 1", "unexpected character"},
        BadSql{"SELECT COUNT(*) FROM R extra", "unexpected trailing"},
        BadSql{"SELECT COUNT(* FROM R", "expected ')'"},
        BadSql{"SELECT sex COUNT(*) FROM R", "expected ','"}));

TEST(SqlError, ScriptErrorNamesStatement) {
  const Status status =
      ParseSqlWorkload(
          "SELECT COUNT(*) FROM R; SELECT COUNT(*) FROM R WHERE bogus = 1",
          PersonDomain())
          .status();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("statement 2"), std::string::npos)
      << status.message();
}

TEST(SqlError, EmptyScript) {
  const Status status = ParseSqlWorkload(" ;; ", PersonDomain()).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("no statements"), std::string::npos);
}

// Robustness sweep: arbitrary near-SQL strings must never crash the parser.
TEST(Sql, SurvivesRandomGarbage) {
  std::mt19937_64 gen(7);
  const std::string alphabet =
      "SELECT COUNT FROM WHERE GROUP BY AND BETWEEN IN sex age hispanic "
      "(*),=<>!0123456789 ;\n";
  const Domain d = PersonDomain();
  for (int trial = 0; trial < 500; ++trial) {
    std::string text;
    const size_t len = gen() % 120;
    for (size_t i = 0; i < len; ++i) {
      text.push_back(alphabet[gen() % alphabet.size()]);
    }
    const StatusOr<ProductWorkload> p = ParseSqlQuery(text, d);
    if (!p.ok()) {
      EXPECT_FALSE(p.status().message().empty());
    }
  }
}

TEST(SqlDeath, ParseOrDieAborts) {
  EXPECT_DEATH(
      ParseSqlWorkload("SELECT COUNT(*) FROM R WHERE bogus = 1",
                       PersonDomain())
          .value(),
      "unknown attribute");
}

// The end-to-end property: a parsed SQL workload evaluates queries exactly.
TEST(Sql, ParsedWorkloadComputesCorrectCounts) {
  const Domain d = PersonDomain();
  UnionWorkload w = ParseSqlWorkload(
      "SELECT COUNT(*) FROM Person WHERE sex = 1 AND age < 5;"
      "SELECT sex, COUNT(*) FROM Person GROUP BY sex",
      d).value();
  // Data vector: one person per cell index for a few cells.
  Vector x(static_cast<size_t>(d.TotalSize()), 0.0);
  // (sex=1, age=3, hispanic=0) -> count 4.
  x[static_cast<size_t>(d.Flatten({1, 3, 0}))] = 4.0;
  // (sex=0, age=7, hispanic=1) -> count 2.
  x[static_cast<size_t>(d.Flatten({0, 7, 1}))] = 2.0;

  Vector answers = w.ToOperator()->Apply(x);
  ASSERT_EQ(answers.size(), 3u);
  EXPECT_DOUBLE_EQ(answers[0], 4.0);  // sex=1 & age<5.
  EXPECT_DOUBLE_EQ(answers[1], 2.0);  // sex=0 group.
  EXPECT_DOUBLE_EQ(answers[2], 4.0);  // sex=1 group.
}

}  // namespace
}  // namespace hdmm
