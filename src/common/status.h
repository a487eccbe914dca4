// Recoverable-error channel for the serving tier. The library does not use
// exceptions (Google C++ style); until now every failure aborted through
// HDMM_CHECK. That is right for programmer errors — a shape mismatch is a
// bug, and continuing would compute garbage — but wrong for *environmental*
// failures: a corrupt cache file, a contended ledger lock, a full disk, or
// an over-budget request are conditions a long-lived serving process must
// survive, especially once it holds measured sessions whose privacy budget
// has already been spent (the paper's one-shot measurement model makes a
// lost session unrecoverable).
//
// The split:
//
//   HDMM_CHECK        contract violations — still abort.
//   Status/StatusOr   environmental failures — returned to the caller, who
//                     degrades, retries, quarantines, or reports.
#ifndef HDMM_COMMON_STATUS_H_
#define HDMM_COMMON_STATUS_H_

#include <string>
#include <utility>

#include "common/check.h"

namespace hdmm {

/// Coarse classification of an environmental failure; the message carries
/// the specifics. Codes are what callers branch on (a kCorruption from the
/// cache means "quarantine and replan"; a kContention from the accountant
/// means "back off and retry").
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,     ///< Malformed external input (user command, file field).
  kNotFound,            ///< The named resource does not exist.
  kIoError,             ///< The environment failed us: read/write/sync/rename.
  kCorruption,          ///< Data present but unparseable or inconsistent.
  kContention,          ///< A lock or resource is held elsewhere; retryable.
  kOverBudget,          ///< The privacy budget cannot cover the charge.
  kFailedPrecondition,  ///< Valid request, wrong state/configuration for it.
  kUnavailable,         ///< A subsystem degraded itself out of service.
  kResourceExhausted,   ///< Admission refused: capacity budget is full; retryable.
  kDeadlineExceeded,    ///< The caller's deadline passed or it cancelled; retryable.
};

const char* StatusCodeName(StatusCode code);

/// True for codes a well-behaved client should retry (possibly after the
/// interval suggested by RetryAfterMillis): the condition is transient and
/// re-sending the identical request later can succeed. Everything else is
/// fatal for that request — retrying verbatim would fail the same way.
bool IsRetryable(StatusCode code);

class Status {
 public:
  /// Default is OK (so `Status s; ... return s;` reads naturally).
  Status() = default;

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  static Status IoError(std::string message) {
    return Status(StatusCode::kIoError, std::move(message));
  }
  static Status Corruption(std::string message) {
    return Status(StatusCode::kCorruption, std::move(message));
  }
  static Status Contention(std::string message) {
    return Status(StatusCode::kContention, std::move(message));
  }
  static Status OverBudget(std::string message) {
    return Status(StatusCode::kOverBudget, std::move(message));
  }
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  static Status Unavailable(std::string message) {
    return Status(StatusCode::kUnavailable, std::move(message));
  }
  static Status ResourceExhausted(std::string message) {
    return Status(StatusCode::kResourceExhausted, std::move(message));
  }
  static Status DeadlineExceeded(std::string message) {
    return Status(StatusCode::kDeadlineExceeded, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "CODE: message" ("OK" when ok) — the form error replies and logs use.
  std::string ToString() const;

  /// Same code, message prefixed with "context: " — layers call-site
  /// context onto a propagated status. OK statuses pass through untouched.
  Status Annotated(const std::string& context) const {
    if (ok()) return *this;
    return Status(code_, context + ": " + message_);
  }

 private:
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Status carries no structured payload, so retryable refusals embed their
/// suggested backoff in the message as a trailing "retry_after_ms=N" clause.
/// WithRetryAfter writes it; RetryAfterMillis recovers it (-1 when absent).
/// The serve reply protocol forwards the clause verbatim so clients never
/// need to parse free-form prose.
Status WithRetryAfter(Status status, int retry_after_ms);
int RetryAfterMillis(const Status& status);

/// Either a value or the non-OK Status explaining its absence.
template <typename T>
class StatusOr {
 public:
  /// Implicit from a non-OK Status (returning `Status::IoError(...)` from a
  /// StatusOr function just works). An OK status with no value is a
  /// contract violation.
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    HDMM_CHECK_MSG(!status_.ok(), "StatusOr constructed from an OK status");
  }

  /// Implicit from a value.
  StatusOr(T value)  // NOLINT
      : has_value_(true), value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// The held value; dies with the held status message when !ok(), so
  /// `Parse(constant).value()` is the assert-it-parses idiom.
  const T& value() const& {
    CheckHasValue();
    return value_;
  }
  T& value() & {
    CheckHasValue();
    return value_;
  }
  T&& value() && {
    CheckHasValue();
    return std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckHasValue() const {
    HDMM_CHECK_MSG(has_value_, ("StatusOr::value() on an error status: " +
                                status_.ToString())
                                   .c_str());
  }

  Status status_;  // OK iff has_value_.
  bool has_value_ = false;
  T value_{};
};

/// Early-returns the evaluated Status when it is not OK.
#define HDMM_RETURN_IF_ERROR(expr)                  \
  do {                                              \
    ::hdmm::Status hdmm_status_tmp_ = (expr);       \
    if (!hdmm_status_tmp_.ok()) return hdmm_status_tmp_; \
  } while (0)

}  // namespace hdmm

#endif  // HDMM_COMMON_STATUS_H_
