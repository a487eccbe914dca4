// Text format for domains and union-of-products workloads, so workloads can
// be stored in version control, shipped to the CLI tool, and shared between
// deployments without writing C++. The format mirrors the paper's logical
// view (Section 3.3): a domain declaration followed by one product per line,
// each product a conjunction of per-attribute predicate-set blocks.
//
//   # Census-style example (comments run to end of line)
//   domain sex=2 age=115 race=64
//
//   product weight=2.0 sex=identity age=prefix
//   product age=range(0,4) sex=point(1)
//   product age=width(32)
//   marginals k=2                       # all 2-way marginals
//
// Unmentioned attributes default to the Total block (the paper's convention
// for products that do not constrain an attribute). Supported blocks:
//
//   identity          one point predicate per domain element
//   total             the single True predicate
//   identitytotal     identity plus the total row (the SF1+ state trick)
//   prefix            all prefix ranges [0, i]
//   allrange          all ranges [i, j]
//   width(w)          all ranges of width exactly w
//   point(v)          the single predicate t.A == v
//   range(lo,hi)      the single predicate lo <= t.A <= hi (inclusive)
//   matrix(RxC:v,v,...)    explicit rows, row-major, no internal whitespace
//                          (the serializer's fallback for unnamed blocks)
//
// Workload lines:
//
//   product [weight=X] attr=block ...   one product term
//   marginals k=K                       all K-way marginals
//   marginals upto=K                    all j-way marginals for j <= K
//   marginals all                       all 2^d marginals
#ifndef HDMM_WORKLOAD_PARSER_H_
#define HDMM_WORKLOAD_PARSER_H_

#include <string>

#include "common/status.h"
#include "workload/workload.h"

namespace hdmm {

/// Parses a workload spec; malformed input is kInvalidArgument with a
/// line-numbered message. The spec must contain exactly one `domain` line
/// (first non-comment line) and at least one workload line. For a spec that
/// is a compile-time constant, `ParseWorkload(spec).value()` dies with that
/// message.
StatusOr<UnionWorkload> ParseWorkload(const std::string& text);

/// ParseWorkload from a file path (kIoError when it cannot be opened).
StatusOr<UnionWorkload> LoadWorkloadFile(const std::string& path);

/// Renders a workload back into the spec format. Factors whose structure
/// matches a named block (identity, total, prefix, point, range, ...) are
/// emitted by name; anything else is emitted as an explicit matrix literal,
/// so Serialize/Parse round-trips every representable workload exactly.
std::string SerializeWorkload(const UnionWorkload& w);

}  // namespace hdmm

#endif  // HDMM_WORKLOAD_PARSER_H_
