// Minimal leveled logging with printf-style formatting.
//
// The simulator is silent by default; tests flip on LogLevel::kDebug for a
// single failing scenario rather than drowning CI output. Logging goes to
// stderr so bench tables on stdout stay machine-parseable.
#pragma once

#include <cstdarg>

namespace chs::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global threshold; messages below it are dropped.
void set_log_level(LogLevel level);

void log(LogLevel level, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

}  // namespace chs::util

#define CHS_LOG_DEBUG(...) ::chs::util::log(::chs::util::LogLevel::kDebug, __VA_ARGS__)
#define CHS_LOG_INFO(...) ::chs::util::log(::chs::util::LogLevel::kInfo, __VA_ARGS__)
#define CHS_LOG_WARN(...) ::chs::util::log(::chs::util::LogLevel::kWarn, __VA_ARGS__)
#define CHS_LOG_ERROR(...) ::chs::util::log(::chs::util::LogLevel::kError, __VA_ARGS__)
