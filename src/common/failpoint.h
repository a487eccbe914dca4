// Named failpoints for fault injection, in the spirit of RocksDB's
// fault-injection/SyncPoint testing. A failpoint is a named site in
// production code where a test (or an operator, via the HDMM_FAILPOINTS
// environment variable) can inject an environmental failure — an I/O error,
// simulated lock contention, or a hard crash — so recovery paths are
// exercised systematically instead of waiting for a real disk to fail.
//
// Sites are compiled in ALWAYS. The fast path when nothing is active is one
// relaxed atomic load and a predicted-not-taken branch (measured in
// bench_engine's failpoint arm at well under a nanosecond), so there is no
// special build flavor whose recovery behavior differs from production's.
//
// Usage at a site:
//
//   if (HDMM_FAILPOINT("strategy_cache.put.io_error")) {
//     return Status::IoError("injected: strategy_cache.put.io_error");
//   }
//
// Crash sites additionally register themselves so harnesses can enumerate
// every crash point without hard-coding names:
//
//   HDMM_REGISTER_CRASH_SITE("accountant.append.torn");
//   ...
//   if (HDMM_FAILPOINT("accountant.append.torn")) {
//     /* write a partial record to simulate a torn append */
//     Failpoints::CrashNow();
//   }
//
// Activation specs (comma-separated in HDMM_FAILPOINTS, or one per
// Failpoints::Activate call):
//
//   name=always     fire on every hit
//   name=nth:N      fire on the Nth hit only (1-based)
//   name=times:N    fire on hits 1..N
//   name=after:N    fire on every hit after the first N
//   name=prob:P     fire with probability P (deterministic per-point stream)
//   name=crash      SIGKILL the process at the 1st hit
//   name=crash:N    SIGKILL the process at the Nth hit
//   name=off        registered but never fires (hit counting only)
//
// `crash` specs kill inside Hit(); every other spec makes Hit() return true
// and leaves the failure behavior to the site.
#ifndef HDMM_COMMON_FAILPOINT_H_
#define HDMM_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace hdmm {

class Failpoints {
 public:
  /// Fast-path gate: true when any failpoint is active anywhere in the
  /// process. Inline relaxed load — the entire cost of a disabled site.
  static bool Enabled() {
    return active_count_.load(std::memory_order_relaxed) > 0;
  }

  /// Slow path, reached only while some failpoint is active: returns true
  /// when the named point fires on this hit. Crash-spec points do not
  /// return — they SIGKILL the process. Unknown/inactive names return
  /// false.
  static bool Hit(const char* name);

  /// Activates `name` with a `mode` from the spec grammar above.
  /// kInvalidArgument on a malformed mode or an empty name.
  static Status Activate(const std::string& name, const std::string& mode);

  /// Activates a comma-separated "name=mode,name=mode" spec (the
  /// HDMM_FAILPOINTS format).
  static Status ActivateSpec(const std::string& spec);

  static void Deactivate(const std::string& name);
  static void DeactivateAll();

  /// Hits observed by an active point since activation (0 for unknown
  /// names). Fired or not — this counts arrivals at the site.
  static uint64_t HitCount(const std::string& name);

  /// Simulates a hard crash: SIGKILL to self, so no destructors, no atexit,
  /// no stream flushing — userspace buffers die exactly as in a power loss.
  [[noreturn]] static void CrashNow();

  /// Every crash site registered via HDMM_REGISTER_CRASH_SITE, in
  /// registration order. Crash-consistency harnesses iterate this so a new
  /// crash point is automatically covered.
  static std::vector<std::string> CrashSites();

 private:
  friend struct CrashSiteRegistrar;
  static std::atomic<int> active_count_;
};

#define HDMM_FAILPOINT(name)                                   \
  (__builtin_expect(::hdmm::Failpoints::Enabled(), 0) &&       \
   ::hdmm::Failpoints::Hit(name))

/// Registers a crash site name at static-initialization time.
struct CrashSiteRegistrar {
  explicit CrashSiteRegistrar(const char* name);
};

#define HDMM_CRASH_SITE_CONCAT2(a, b) a##b
#define HDMM_CRASH_SITE_CONCAT(a, b) HDMM_CRASH_SITE_CONCAT2(a, b)
#define HDMM_REGISTER_CRASH_SITE(name)            \
  static const ::hdmm::CrashSiteRegistrar         \
      HDMM_CRASH_SITE_CONCAT(hdmm_crash_site_, __COUNTER__)(name)

}  // namespace hdmm

#endif  // HDMM_COMMON_FAILPOINT_H_
