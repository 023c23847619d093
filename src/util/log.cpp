#include "util/log.h"

#include <cstdio>
#include <stdexcept>

namespace hsyn {
namespace {

LogLevel g_level = LogLevel::Warn;
thread_local std::string* tl_capture = nullptr;

const char* level_name(LogLevel lv) {
  switch (lv) {
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO";
    case LogLevel::Warn: return "WARN";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF";
  }
  return "?";
}

}  // namespace

void set_log_level(LogLevel lv) { g_level = lv; }

LogLevel log_level() { return g_level; }

void log_msg(LogLevel lv, const std::string& msg) {
  if (static_cast<int>(lv) < static_cast<int>(g_level)) return;
  if (tl_capture != nullptr) {
    *tl_capture += "[hsyn ";
    *tl_capture += level_name(lv);
    *tl_capture += "] ";
    *tl_capture += msg;
    *tl_capture += '\n';
    return;
  }
  std::fprintf(stderr, "[hsyn %s] %s\n", level_name(lv), msg.c_str());
}

LogCapture::LogCapture(std::string* sink) : prev_(tl_capture) {
  tl_capture = sink;
}

LogCapture::~LogCapture() { tl_capture = prev_; }

void log_write(std::string_view text) {
  if (text.empty()) return;
  if (tl_capture != nullptr) {
    tl_capture->append(text);
    return;
  }
  std::fwrite(text.data(), 1, text.size(), stderr);
}

void check_failed(const char* cond, const char* file, int line,
                  const std::string& msg) {
  // The exception message reaches the user; the log line additionally
  // pins down the failing condition and source location for bug reports.
  log_error("check failed: (" + std::string(cond) + ") at " + file + ":" +
            std::to_string(line) + ": " + msg);
  throw std::logic_error("hsyn check failed: " + msg);
}

}  // namespace hsyn
