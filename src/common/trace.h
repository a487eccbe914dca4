// Scoped tracing with Chrome trace-event export. Spans are RAII objects
// recorded into per-thread ring buffers and exported as Chrome trace-event
// JSON (the `chrome://tracing` / Perfetto format), so one `HDMM_TRACE=<file>`
// environment variable turns any binary — `hdmm_cli serve`, a bench, a test —
// into a timeline of Plan/Measure/AnswerBatch phases across the thread pool,
// with zero recompilation.
//
//   HDMM_TRACE=/tmp/serve.trace hdmm_cli serve --workload w --data d.csv
//   # ... session ...
//   # open /tmp/serve.trace in https://ui.perfetto.dev
//
// Cost model mirrors failpoints and metrics: spans are compiled in always,
// and the disabled path is one relaxed atomic load per span (the
// constructor's gate; the destructor then sees a null name and does
// nothing). Enabled spans cost two steady-clock reads and one ring-buffer
// store — no locks, no allocation after a thread's first span.
//
// Usage:
//
//   StatusOr<PlanResult> Engine::PlanOr(...) {
//     HDMM_TRACE_SPAN("Engine::Plan");
//     ...
//   }  // Span closes when the scope exits.
//
// Buffers are rings: when a thread records more than kRingCapacity spans
// between flushes the oldest are overwritten (the drop count is exported in
// the trace metadata). Flushing is cooperative — Trace::Stop() or process
// exit (atexit) writes the file; there is no background thread.
#ifndef HDMM_COMMON_TRACE_H_
#define HDMM_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace hdmm {

class Trace {
 public:
  /// Fast-path gate, inlined into every span constructor.
  static bool Enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Starts collecting spans; Stop() (or process exit) writes them to
  /// `path` as Chrome trace-event JSON. kFailedPrecondition when already
  /// collecting.
  static Status Start(const std::string& path);

  /// Stops collecting and writes the trace file. kIoError when the file
  /// cannot be written. No-op when not collecting.
  static Status Stop();

  /// Writes the collected spans without stopping. Each flush rewrites the
  /// whole file, so the latest call wins. kFailedPrecondition when never
  /// started.
  static Status Flush();

  /// Names the calling thread in the exported trace ("main",
  /// "hdmm-worker-3"). Threads that never call this show up by numeric id.
  static void SetThreadName(const std::string& name);

  /// Spans recorded since Start() across all threads (approximate under
  /// concurrency; for tests).
  static uint64_t RecordedSpans();

  /// Monotonic nanoseconds since process start (the trace timebase).
  static int64_t NowNs();

 private:
  friend class TraceSpan;
  static void Emit(const char* name, int64_t start_ns, int64_t end_ns);
  static std::atomic<bool> enabled_;
};

/// RAII span. The name must be a string literal (or otherwise outlive the
/// trace session): only the pointer is stored on the hot path.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (__builtin_expect(Trace::Enabled(), 0)) {
      name_ = name;
      start_ns_ = Trace::NowNs();
    }
  }
  ~TraceSpan() {
    if (__builtin_expect(name_ != nullptr, 0)) {
      Trace::Emit(name_, start_ns_, Trace::NowNs());
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  int64_t start_ns_ = 0;
};

#define HDMM_TRACE_CONCAT2(a, b) a##b
#define HDMM_TRACE_CONCAT(a, b) HDMM_TRACE_CONCAT2(a, b)
#define HDMM_TRACE_SPAN(name) \
  ::hdmm::TraceSpan HDMM_TRACE_CONCAT(hdmm_trace_span_, __COUNTER__)(name)

}  // namespace hdmm

#endif  // HDMM_COMMON_TRACE_H_
