// CSV ingestion for datasets over multi-dimensional domains: the bridge from
// raw microdata files to the data vector x of Section 3.4. The expected file
// shape is one header row naming attributes (any order; a subset of the
// domain's attributes is rejected) followed by one row of integer attribute
// positions per record.
#ifndef HDMM_DATA_CSV_H_
#define HDMM_DATA_CSV_H_

#include <string>

#include "common/status.h"
#include "data/dataset.h"
#include "workload/domain.h"

namespace hdmm {

/// Parses CSV text into a Dataset over `domain`. The header must name every
/// domain attribute exactly once (column order is free; the domain gives the
/// canonical order). Values must be integers in [0, |dom(A)|). Any
/// malformed content is kInvalidArgument with a line-numbered message, and
/// *out is left untouched. (Dataset has no default constructor, so this
/// fills an out-pointer instead of returning StatusOr.)
Status ParseCsvDataset(const std::string& text, const Domain& domain,
                       Dataset* out);

/// ParseCsvDataset from a file path (kIoError when it cannot be opened).
Status LoadCsvDataset(const std::string& path, const Domain& domain,
                      Dataset* out);

/// Renders a dataset as CSV in domain attribute order (inverse of
/// ParseCsvDataset; one row per record, header included).
std::string WriteCsvDataset(const Dataset& dataset);

}  // namespace hdmm

#endif  // HDMM_DATA_CSV_H_
