// SQL front-end for predicate counting queries (Section 2 / Section 3.2 of
// the paper). Each statement of the form
//
//   SELECT COUNT(*) FROM R WHERE sex = 1 AND age <= 4
//   SELECT sex, age, COUNT(*) FROM R WHERE hispanic = 1 GROUP BY sex, age
//
// is translated into one ProductWorkload exactly as in the paper's
// Examples 2 and 3: per-attribute WHERE predicates become singleton
// predicate-set blocks, GROUP BY attributes become Identity blocks (one
// query per group), and unmentioned attributes default to Total. A script of
// semicolon-separated statements becomes a UnionWorkload — the logical form
// that ImpVec / OPT_HDMM consume.
//
// Supported predicate grammar (conjunctions only, per the paper's query
// class; disjunctions require the attribute-merging transformation of
// Example 1):
//
//   predicate := attr op integer
//              | attr BETWEEN integer AND integer
//              | attr IN ( integer [, integer]* )
//   op        := = | != | < | <= | > | >=
//
// Attribute values are domain positions in [0, |dom(A)|). Keywords are
// case-insensitive; attribute names are case-sensitive and must match the
// Domain.
#ifndef HDMM_WORKLOAD_SQL_H_
#define HDMM_WORKLOAD_SQL_H_

#include <string>

#include "common/status.h"
#include "workload/domain.h"
#include "workload/workload.h"

namespace hdmm {

/// Translates one SELECT COUNT(*) statement (without trailing semicolon)
/// into a product workload over `domain`. kInvalidArgument on syntax
/// errors, unknown attributes, or out-of-domain constants.
StatusOr<ProductWorkload> ParseSqlQuery(const std::string& sql,
                                        const Domain& domain);

/// Translates a script of semicolon-separated statements into a union of
/// products (one product per statement, in order). Empty statements are
/// ignored; the script must contain at least one query. Errors carry a
/// "statement N: " prefix.
StatusOr<UnionWorkload> ParseSqlWorkload(const std::string& script,
                                         const Domain& domain);

}  // namespace hdmm

#endif  // HDMM_WORKLOAD_SQL_H_
