#include "common/log.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace hdmm {

namespace {

int ThresholdFromEnv() {
  const char* env = std::getenv("HDMM_LOG");
  if (env == nullptr || *env == '\0') return static_cast<int>(LogLevel::kInfo);
  if (std::strcmp(env, "error") == 0) return static_cast<int>(LogLevel::kError);
  if (std::strcmp(env, "warn") == 0) return static_cast<int>(LogLevel::kWarn);
  if (std::strcmp(env, "info") == 0) return static_cast<int>(LogLevel::kInfo);
  if (std::strcmp(env, "debug") == 0) return static_cast<int>(LogLevel::kDebug);
  std::fprintf(stderr,
               "[hdmm warn] HDMM_LOG=%s not one of error|warn|info|debug; "
               "using info\n",
               env);
  return static_cast<int>(LogLevel::kInfo);
}

const char* Tag(LogLevel level) {
  switch (level) {
    case LogLevel::kError: return "error";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kInfo: return "info";
    case LogLevel::kDebug: return "debug";
  }
  return "?";
}

}  // namespace

const int Log::threshold_ = ThresholdFromEnv();

void Log::Write(LogLevel level, const char* format, ...) {
  // Compose the whole line first so one fprintf hits stderr atomically and
  // concurrent threads (pool workers, the serve loop) never interleave.
  char buffer[1024];
  int n = std::snprintf(buffer, sizeof(buffer), "[hdmm %s] ", Tag(level));
  if (n < 0) return;
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer + n, sizeof(buffer) - static_cast<size_t>(n), format,
                 args);
  va_end(args);
  std::fprintf(stderr, "%s\n", buffer);
}

}  // namespace hdmm
