// From SQL to private answers: the paper's Section 2 use case end to end.
// A data custodian writes ordinary predicate counting queries; the library
// translates them into the logical union-of-products form (Examples 2-3),
// optimizes a strategy, and answers the whole workload under epsilon-DP.
//
//   build/examples/example_sql_workload
#include <cstdio>

#include "core/error.h"
#include "core/hdmm.h"
#include "core/nnls.h"
#include "data/synthetic.h"
#include "workload/parser.h"
#include "workload/sql.h"

int main() {
  using namespace hdmm;

  // A miniature of the paper's Person schema (Section 2).
  Domain domain({"sex", "age", "hispanic"}, {2, 20, 2});

  // The analyst's queries: counts and group-bys, conjunctive predicates.
  const char* script =
      "SELECT COUNT(*) FROM Person WHERE sex = 1 AND age < 5;"
      "SELECT sex, age, COUNT(*) FROM Person WHERE hispanic = 1 "
      "  GROUP BY sex, age;"
      "SELECT age, COUNT(*) FROM Person GROUP BY age;"
      "SELECT COUNT(*) FROM Person WHERE age BETWEEN 13 AND 19;";

  UnionWorkload workload = ParseSqlWorkload(script, domain).value();
  std::printf("parsed %d SQL statements into %lld predicate counting "
              "queries\n",
              workload.NumProducts(),
              static_cast<long long>(workload.TotalQueries()));

  // The logical form is portable: serialize it for review / versioning.
  std::printf("\nworkload spec (hand off to hdmm_cli or a colleague):\n%s\n",
              SerializeWorkload(workload).c_str());

  // Optimize and run.
  HdmmOptions options;
  options.restarts = 3;
  HdmmResult selection = OptimizeStrategy(workload, options);
  std::printf("selected operator: %s, error ratio vs Laplace mechanism on "
              "the raw queries: %.2f\n",
              selection.chosen_operator.c_str(),
              std::sqrt(workload.Sensitivity() * workload.Sensitivity() *
                        static_cast<double>(workload.TotalQueries()) /
                        selection.squared_error));

  Rng rng(5);
  Vector x = ClusteredDataVector(domain, 5000, 4, &rng);
  const double epsilon = 1.0;
  const Vector truth = TrueAnswers(workload, x);
  const Vector answers =
      RunMechanism(workload, *selection.strategy, x, epsilon, &rng);

  std::printf("\nfirst statements' answers (true vs private):\n");
  std::printf("  children, sex=1:      %6.0f vs %8.2f\n", truth[0],
              answers[0]);
  std::printf("  first group-by cell:  %6.0f vs %8.2f\n", truth[1],
              answers[1]);
  std::printf("realized total squared error: %.1f (expected %.1f)\n",
              EmpiricalSquaredError(truth, answers),
              selection.strategy->TotalSquaredError(workload, epsilon));
  return 0;
}
