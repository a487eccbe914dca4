#include "common/failpoint.h"

#include <signal.h>
#include <unistd.h>

#include "common/log.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <unordered_map>

namespace hdmm {

namespace {

enum class Mode { kOff, kAlways, kNth, kTimes, kAfter, kProb, kCrash };

struct Point {
  Mode mode = Mode::kOff;
  uint64_t n = 0;        // Threshold for nth/times/after/crash.
  double p = 0.0;        // Probability for prob.
  uint64_t hits = 0;     // Arrivals at the site since activation.
  uint64_t rng = 0x9e3779b97f4a7c15ull;  // Per-point deterministic stream.
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, Point> points;
};

Registry& GlobalRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

std::vector<std::string>& CrashSiteList() {
  static std::vector<std::string>* sites = new std::vector<std::string>();
  return *sites;
}

std::mutex& CrashSiteMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

// SplitMix64 step: deterministic per-point uniform stream for prob mode, so
// probabilistic injection reproduces across runs without global RNG state.
double NextUniform(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z = z ^ (z >> 31);
  return static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size()) return false;
  *out = v;
  return true;
}

Status ParseMode(const std::string& mode, Point* out) {
  const size_t colon = mode.find(':');
  const std::string head =
      colon == std::string::npos ? mode : mode.substr(0, colon);
  const std::string arg =
      colon == std::string::npos ? "" : mode.substr(colon + 1);
  auto fail = [&](const char* why) {
    return Status::InvalidArgument("bad failpoint mode '" + mode + "': " + why);
  };
  if (head == "off") {
    out->mode = Mode::kOff;
    return arg.empty() ? Status::Ok() : fail("takes no argument");
  }
  if (head == "always") {
    out->mode = Mode::kAlways;
    return arg.empty() ? Status::Ok() : fail("takes no argument");
  }
  if (head == "nth" || head == "times" || head == "after") {
    out->mode = head == "nth" ? Mode::kNth
                              : (head == "times" ? Mode::kTimes : Mode::kAfter);
    if (!ParseUint(arg, &out->n)) return fail("wants :N");
    if (out->mode != Mode::kAfter && out->n == 0) return fail("N must be >= 1");
    return Status::Ok();
  }
  if (head == "prob") {
    out->mode = Mode::kProb;
    char* end = nullptr;
    out->p = std::strtod(arg.c_str(), &end);
    if (arg.empty() || end != arg.c_str() + arg.size() || out->p < 0.0 ||
        out->p > 1.0) {
      return fail("wants :P in [0, 1]");
    }
    return Status::Ok();
  }
  if (head == "crash") {
    out->mode = Mode::kCrash;
    out->n = 1;
    if (!arg.empty() && (!ParseUint(arg, &out->n) || out->n == 0)) {
      return fail("wants :N >= 1");
    }
    return Status::Ok();
  }
  return fail("unknown mode (want off|always|nth:N|times:N|after:N|prob:P|"
              "crash[:N])");
}

// Environment activation at process start: HDMM_FAILPOINTS is how the crash
// harness arms a forked/exec'd child, and how an operator reproduces a
// failure path in a deployed binary without a rebuild.
const bool g_env_activated = [] {
  const char* env = std::getenv("HDMM_FAILPOINTS");
  if (env != nullptr && *env != '\0') {
    const Status activated = Failpoints::ActivateSpec(env);
    if (!activated.ok()) {
      HDMM_LOG(Error, "HDMM_FAILPOINTS: %s", activated.message().c_str());
      std::abort();  // A misspelled injection spec must not silently no-op.
    }
  }
  return true;
}();

}  // namespace

std::atomic<int> Failpoints::active_count_{0};

bool Failpoints::Hit(const char* name) {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.points.find(name);
  if (it == registry.points.end()) return false;
  Point& point = it->second;
  const uint64_t hit = ++point.hits;
  switch (point.mode) {
    case Mode::kOff:
      return false;
    case Mode::kAlways:
      return true;
    case Mode::kNth:
      return hit == point.n;
    case Mode::kTimes:
      return hit <= point.n;
    case Mode::kAfter:
      return hit > point.n;
    case Mode::kProb:
      return NextUniform(&point.rng) < point.p;
    case Mode::kCrash:
      if (hit >= point.n) CrashNow();
      return false;
  }
  return false;
}

Status Failpoints::Activate(const std::string& name, const std::string& mode) {
  Point point;
  HDMM_RETURN_IF_ERROR(ParseMode(mode, &point));
  if (name.empty()) return Status::InvalidArgument("empty failpoint name");
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto [it, inserted] = registry.points.emplace(name, point);
  if (!inserted) {
    it->second = point;  // Re-activation resets the hit count.
  } else {
    active_count_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::Ok();
}

Status Failpoints::ActivateSpec(const std::string& spec) {
  size_t start = 0;
  while (start <= spec.size()) {
    size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(start, end - start);
    start = end + 1;
    if (item.empty()) continue;
    const size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("bad failpoint spec item '" + item +
                                     "' (want name=mode)");
    }
    HDMM_RETURN_IF_ERROR(Activate(item.substr(0, eq), item.substr(eq + 1)));
  }
  return Status::Ok();
}

void Failpoints::Deactivate(const std::string& name) {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  if (registry.points.erase(name) > 0) {
    active_count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Failpoints::DeactivateAll() {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  active_count_.fetch_sub(static_cast<int>(registry.points.size()),
                          std::memory_order_relaxed);
  registry.points.clear();
}

uint64_t Failpoints::HitCount(const std::string& name) {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.points.find(name);
  return it == registry.points.end() ? 0 : it->second.hits;
}

void Failpoints::CrashNow() {
  // SIGKILL cannot be caught or ignored: no destructors, no atexit, no
  // stdio flushing — exactly the state a power loss leaves behind.
  ::kill(::getpid(), SIGKILL);
  std::abort();  // Unreachable; keeps [[noreturn]] honest for the compiler.
}

std::vector<std::string> Failpoints::CrashSites() {
  std::lock_guard<std::mutex> lock(CrashSiteMutex());
  return CrashSiteList();
}

CrashSiteRegistrar::CrashSiteRegistrar(const char* name) {
  std::lock_guard<std::mutex> lock(CrashSiteMutex());
  CrashSiteList().emplace_back(name);
}

}  // namespace hdmm
