#include "common/trace.h"

#include <unistd.h>

#include "common/log.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

namespace hdmm {

namespace {

constexpr size_t kRingCapacity = 1u << 14;  // Spans kept per thread.

struct SpanEvent {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
};

// One per thread, heap-allocated on the thread's first span (or first
// SetThreadName) and registered in the global list below. Never freed:
// a worker can exit before the flush that wants its spans.
struct ThreadRing {
  int tid = 0;
  std::string name;
  uint64_t recorded = 0;  // Total spans ever recorded (ring may have fewer).
  SpanEvent events[kRingCapacity];
};

struct TraceState {
  std::mutex mu;
  std::string path;
  std::vector<ThreadRing*> rings;
  int next_tid = 1;
};

TraceState& GlobalState() {
  static TraceState* state = new TraceState();
  return *state;
}

ThreadRing& ThisThreadRing() {
  thread_local ThreadRing* ring = [] {
    ThreadRing* r = new ThreadRing();
    TraceState& state = GlobalState();
    std::lock_guard<std::mutex> lock(state.mu);
    r->tid = state.next_tid++;
    state.rings.push_back(r);
    return r;
  }();
  return *ring;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// Writes the Chrome trace-event JSON. Caller holds the state lock, so the
// ring set is stable; in-flight Emit calls on other threads may tear a
// single event slot, which at worst misreports one span's bounds — the
// document itself stays well-formed because `recorded` is read once.
Status WriteTraceFileLocked(TraceState& state) {
  std::FILE* f = std::fopen(state.path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open trace file " + state.path);
  }
  const long pid = static_cast<long>(::getpid());
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  for (const ThreadRing* ring : state.rings) {
    const std::string name =
        ring->name.empty() ? "thread-" + std::to_string(ring->tid)
                           : ring->name;
    std::fprintf(f,
                 "%s{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": %ld, "
                 "\"tid\": %d, \"args\": {\"name\": \"%s\"}}",
                 first ? "" : ",\n", pid, ring->tid,
                 JsonEscape(name).c_str());
    first = false;
    const uint64_t dropped =
        ring->recorded > kRingCapacity ? ring->recorded - kRingCapacity : 0;
    if (dropped > 0) {
      std::fprintf(f,
                   ",\n{\"ph\": \"M\", \"name\": \"hdmm_dropped_spans\", "
                   "\"pid\": %ld, \"tid\": %d, \"args\": {\"count\": %llu}}",
                   pid, ring->tid, static_cast<unsigned long long>(dropped));
    }
    const uint64_t kept =
        ring->recorded < kRingCapacity ? ring->recorded : kRingCapacity;
    // Ring order: oldest first so Perfetto sees monotone timestamps per
    // thread when nothing was dropped.
    const uint64_t head = ring->recorded % kRingCapacity;
    for (uint64_t i = 0; i < kept; ++i) {
      const uint64_t idx =
          dropped > 0 ? (head + i) % kRingCapacity : i;
      const SpanEvent& e = ring->events[idx];
      if (e.name == nullptr) continue;
      std::fprintf(f,
                   ",\n{\"ph\": \"X\", \"name\": \"%s\", \"cat\": \"hdmm\", "
                   "\"pid\": %ld, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}",
                   JsonEscape(e.name).c_str(), pid, ring->tid,
                   static_cast<double>(e.start_ns) / 1e3,
                   static_cast<double>(e.end_ns - e.start_ns) / 1e3);
    }
  }
  std::fprintf(f, "\n]}\n");
  const bool ok = std::fflush(f) == 0;
  std::fclose(f);
  if (!ok) return Status::IoError("short write to " + state.path);
  return Status::Ok();
}

// HDMM_TRACE=<file>: arm at static init, flush at exit. This is the
// no-recompile operator path; tests and the CLI use Start/Stop directly.
const bool g_env_activated = [] {
  const char* env = std::getenv("HDMM_TRACE");
  if (env != nullptr && *env != '\0') {
    const Status started = Trace::Start(env);
    if (started.ok()) {
      std::atexit([] { Trace::Stop(); });
    } else {
      HDMM_LOG(Error, "HDMM_TRACE: %s", started.message().c_str());
    }
  }
  return true;
}();

}  // namespace

std::atomic<bool> Trace::enabled_{false};

int64_t Trace::NowNs() {
  static const std::chrono::steady_clock::time_point base =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - base)
      .count();
}

Status Trace::Start(const std::string& path) {
  TraceState& state = GlobalState();
  std::lock_guard<std::mutex> lock(state.mu);
  if (enabled_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("trace already collecting to " +
                                      state.path);
  }
  state.path = path;
  // Reset per-thread rings from prior sessions so a restarted trace does not
  // replay stale spans.
  for (ThreadRing* ring : state.rings) ring->recorded = 0;
  NowNs();  // Pin the timebase before the first span.
  enabled_.store(true, std::memory_order_release);
  return Status::Ok();
}

Status Trace::Stop() {
  TraceState& state = GlobalState();
  std::lock_guard<std::mutex> lock(state.mu);
  if (!enabled_.load(std::memory_order_relaxed)) return Status::Ok();
  enabled_.store(false, std::memory_order_release);
  return WriteTraceFileLocked(state);
}

Status Trace::Flush() {
  TraceState& state = GlobalState();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.path.empty()) {
    return Status::FailedPrecondition("trace was never started");
  }
  return WriteTraceFileLocked(state);
}

void Trace::SetThreadName(const std::string& name) {
  ThreadRing& ring = ThisThreadRing();
  TraceState& state = GlobalState();
  std::lock_guard<std::mutex> lock(state.mu);
  ring.name = name;
}

uint64_t Trace::RecordedSpans() {
  TraceState& state = GlobalState();
  std::lock_guard<std::mutex> lock(state.mu);
  uint64_t total = 0;
  for (const ThreadRing* ring : state.rings) total += ring->recorded;
  return total;
}

void Trace::Emit(const char* name, int64_t start_ns, int64_t end_ns) {
  ThreadRing& ring = ThisThreadRing();
  SpanEvent& slot = ring.events[ring.recorded % kRingCapacity];
  slot.name = name;
  slot.start_ns = start_ns;
  slot.end_ns = end_ns;
  ++ring.recorded;
}

}  // namespace hdmm
