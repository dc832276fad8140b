#include "util/log.hpp"

#include <atomic>
#include <cstdio>

namespace chs::util {
namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }

void log(LogLevel level, const char* fmt, ...) {
  if (level < g_level.load(std::memory_order_relaxed)) return;
  std::fprintf(stderr, "[%s] ", level_name(level));
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace chs::util
