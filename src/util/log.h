// Leveled structured JSON logging for the repair service.
//
// Every emitted line is one compact JSON object (built through
// util/json, so it is well-formed by construction):
//
//   {"ts":"2026-08-05T12:34:56.123456Z","level":"warn","component":"wal",
//    "session":"s-3","msg":"append failed","error":"Unavailable: ..."}
//
// Design points:
//  * one line = one ::write() under a mutex, so concurrent threads never
//    interleave partial lines (the log stays parseable line-by-line);
//  * the level gate is a single relaxed atomic load; a filtered-out
//    event builds no fields and allocates nothing beyond the builder;
//  * warn/error events are token-bucket rate-limited per
//    (component, msg) key — repeated failures (a dying disk fsync-ing
//    its way through every append) cannot flood the sink. When a key
//    re-earns a token, the next emitted line carries
//    "suppressed_prior": N for the lines dropped in between;
//  * a thread-local session id (ScopedSessionId, set by the scheduler
//    around each session command) is attached automatically, so every
//    WAL / deadline / engine-rebuild event correlates without plumbing
//    the id through each call site.
//
// Sinks: stderr by default, or an append-mode file (--log-file).

#ifndef KBREPAIR_UTIL_LOG_H_
#define KBREPAIR_UTIL_LOG_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "util/json.h"
#include "util/status.h"

namespace kbrepair {
namespace logging {

enum class Level : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

// "debug" / "info" / "warn" / "error".
const char* LevelName(Level level);
// Accepts the names above; InvalidArgument otherwise.
StatusOr<Level> ParseLevel(const std::string& name);

// Token bucket for repeated warn/error messages, per (component, msg).
// burst <= 0 disables rate limiting entirely.
struct RateLimitConfig {
  double tokens_per_second = 1.0;
  double burst = 10.0;
};

class Logger {
 public:
  static Logger& Instance();

  void SetLevel(Level level) {
    level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  Level level() const {
    return static_cast<Level>(level_.load(std::memory_order_relaxed));
  }
  bool Enabled(Level level) const {
    return static_cast<int>(level) >=
           level_.load(std::memory_order_relaxed);
  }

  // Switches the sink to `path` (append mode, created if missing).
  // On failure the current sink is kept and the error returned.
  Status OpenFile(const std::string& path);
  // Switches the sink back to stderr (the default).
  void UseStderr();

  void SetRateLimit(RateLimitConfig config);

  // Total warn/error lines dropped by the rate limiter since start.
  uint64_t suppressed() const {
    return suppressed_.load(std::memory_order_relaxed);
  }

  // Restores defaults (stderr sink, info level, default rate limit,
  // cleared buckets). Test teardown.
  void ResetForTest();

  // Emits one line. `fields` must be an object; ts/level/component (and
  // the thread-local session id) are prepended here. Called by LogEvent.
  void Emit(Level level, const char* component, JsonValue fields);

 private:
  Logger() = default;

  std::atomic<int> level_{static_cast<int>(Level::kInfo)};
  std::atomic<uint64_t> suppressed_{0};
};

// Attaches `id` as the calling thread's correlation id for the duration
// of the scope; LogEvent picks it up as the "session" field. Nests
// (restores the previous id on destruction).
class ScopedSessionId {
 public:
  explicit ScopedSessionId(const std::string& id);
  ~ScopedSessionId();

  ScopedSessionId(const ScopedSessionId&) = delete;
  ScopedSessionId& operator=(const ScopedSessionId&) = delete;

 private:
  std::string previous_;
};

// The calling thread's current correlation id ("" when none).
const std::string& CurrentSessionId();

// Builder for one log line; emits on destruction (end of the full
// expression). When the level is filtered out, every call is a no-op.
class LogEvent {
 public:
  LogEvent(Level level, const char* component, std::string msg);
  ~LogEvent();

  LogEvent(LogEvent&& other)
      : enabled_(other.enabled_),
        emitted_(other.emitted_),
        level_(other.level_),
        component_(other.component_),
        fields_(std::move(other.fields_)) {
    other.emitted_ = true;  // the moved-from shell must not emit
  }
  LogEvent(const LogEvent&) = delete;
  LogEvent& operator=(const LogEvent&) = delete;

  LogEvent& With(const char* key, const std::string& value);
  LogEvent& With(const char* key, const char* value);
  LogEvent& With(const char* key, int64_t value);
  LogEvent& With(const char* key, uint64_t value);
  LogEvent& With(const char* key, int value);
  LogEvent& With(const char* key, double value);
  LogEvent& With(const char* key, bool value);

 private:
  bool enabled_;
  bool emitted_ = false;
  Level level_;
  const char* component_;
  JsonValue fields_;
};

inline LogEvent Debug(const char* component, std::string msg) {
  return LogEvent(Level::kDebug, component, std::move(msg));
}
inline LogEvent Info(const char* component, std::string msg) {
  return LogEvent(Level::kInfo, component, std::move(msg));
}
inline LogEvent Warn(const char* component, std::string msg) {
  return LogEvent(Level::kWarn, component, std::move(msg));
}
inline LogEvent Error(const char* component, std::string msg) {
  return LogEvent(Level::kError, component, std::move(msg));
}

}  // namespace logging
}  // namespace kbrepair

#endif  // KBREPAIR_UTIL_LOG_H_
