// Strategy persistence. Section 3.6 of the paper motivates this directly:
// "if the workload is fixed, the optimized strategy A can be computed once
// and used for multiple invocations of measure and reconstruct (i.e. on
// different input datasets and/or for different outputs generated with
// different epsilon values)" — the Census workload changes once a decade
// while releases recur. This module round-trips every strategy type the
// optimizers produce through a line-oriented text format:
//
//   hdmm-strategy v1
//   kind kron                      # explicit | kron | union-kron | marginals
//   name opt-kron
//   factor 5x4 0.25,0,0,0,...      # row-major entries
//   factor 3x2 ...
//
// union-kron adds `part <k>` headers and `covers i j ...` lines (the
// workload products each part answers); marginals stores the domain sizes
// and the 2^d theta weights.
#ifndef HDMM_CORE_STRATEGY_IO_H_
#define HDMM_CORE_STRATEGY_IO_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "core/strategy.h"

namespace hdmm {

/// Renders a strategy in the persistence format. Dies on strategy types
/// outside the four library representations.
std::string SerializeStrategy(const Strategy& strategy);

/// Parses the persistence format. Malformed input of any shape — truncated
/// header, wrong magic, short payloads, trailing garbage — is an
/// environmental condition, never an abort: it returns kCorruption with a
/// line-numbered message.
StatusOr<std::unique_ptr<Strategy>> ParseStrategy(const std::string& text);

/// SerializeStrategy to a file, fsync'd before returning so a following
/// rename installs durable bytes. kIoError on any open/write/sync failure.
///
/// Failpoint: `strategy_io.save.fsync_error` injects a failed fsync.
Status SaveStrategyFile(const std::string& path, const Strategy& strategy);

/// ParseStrategy from a file, distinguishing the conditions callers react
/// to differently:
///
///   kNotFound     the file does not exist (a plain cache miss)
///   kIoError      it exists but cannot be read (permissions, bad media)
///   kCorruption   it reads but does not parse (quarantine candidate)
///
/// Failpoint: `strategy_io.load.io_error` injects kIoError.
StatusOr<std::unique_ptr<Strategy>> LoadStrategyFile(const std::string& path);

}  // namespace hdmm

#endif  // HDMM_CORE_STRATEGY_IO_H_
