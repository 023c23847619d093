// Leveled logging for the synthesis engine.
//
// The move engine logs candidate evaluations at Debug level and accepted
// passes at Info level; benches run at Warn so table output stays clean.
#pragma once

#include <string>
#include <string_view>

namespace hsyn {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Set the global log threshold; messages below it are dropped.
void set_log_level(LogLevel lv);

/// Current global log threshold.
LogLevel log_level();

/// Emit a message at the given level to stderr (if enabled).
void log_msg(LogLevel lv, const std::string& msg);

/// RAII: while alive, the messages this thread logs (those that pass
/// the threshold) are appended to `*sink`, formatted as on stderr,
/// instead of being written. Lets concurrent tasks keep their output
/// apart and write it later in a fixed order (log_write).
class LogCapture {
 public:
  explicit LogCapture(std::string* sink);
  ~LogCapture();
  LogCapture(const LogCapture&) = delete;
  LogCapture& operator=(const LogCapture&) = delete;

 private:
  std::string* prev_;
};

/// Write captured log text to stderr as is (or into the thread's own
/// active capture).
void log_write(std::string_view text);

inline void log_debug(const std::string& m) { log_msg(LogLevel::Debug, m); }
inline void log_info(const std::string& m) { log_msg(LogLevel::Info, m); }
inline void log_warn(const std::string& m) { log_msg(LogLevel::Warn, m); }
inline void log_error(const std::string& m) { log_msg(LogLevel::Error, m); }

/// [[noreturn]] failure path of HSYN_CHECK: logs the failing condition
/// with its source location at Error level, then throws std::logic_error
/// (same contract as util/fmt.h check(), so callers' error handling and
/// tests keep working). Out of line to keep the macro expansion small.
[[noreturn]] void check_failed(const char* cond, const char* file, int line,
                               const std::string& msg);

}  // namespace hsyn

/// Invariant assertion with context: on failure, logs the condition text,
/// source location and message before throwing std::logic_error. Active
/// in every build type -- use for conditions whose cost is trivial next
/// to the surrounding work.
#define HSYN_CHECK(cond, msg)                                        \
  do {                                                               \
    if (!(cond)) ::hsyn::check_failed(#cond, __FILE__, __LINE__, (msg)); \
  } while (0)

/// Debug-only variant for checks on hot paths; compiled out under NDEBUG.
#ifdef NDEBUG
#define HSYN_DCHECK(cond, msg) \
  do {                         \
  } while (0)
#else
#define HSYN_DCHECK(cond, msg) HSYN_CHECK(cond, msg)
#endif
