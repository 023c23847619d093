// Minimal printf-style string formatting.
//
// libstdc++ shipped with GCC 12 does not provide <format>, so we wrap
// std::snprintf in a safe std::string-returning helper.
#pragma once

#include <cstdarg>
#include <string>

namespace hsyn {

/// printf-style formatting into a std::string.
[[gnu::format(printf, 1, 2)]] std::string strf(const char* fmt, ...);

/// Render a double with `prec` digits after the decimal point.
std::string fixed(double v, int prec);

/// Throw std::logic_error("hsyn check failed: " + msg). The out-of-line
/// failure path of check(); call it directly (`if (!cond)
/// check_failed(...)`) when the message has to be built, so that the
/// string is only assembled on failure.
[[noreturn]] void check_failed(const std::string& msg);

/// Throw std::logic_error with the given message if `cond` is false.
/// Used for internal invariant checks (a function, per Core Guidelines,
/// rather than an assert macro, so it is active in all build types).
/// The literal overload is inline and allocation-free on success.
inline void check(bool cond, const char* msg) {
  if (!cond) [[unlikely]] check_failed(msg);
}
inline void check(bool cond, const std::string& msg) {
  if (!cond) [[unlikely]] check_failed(msg);
}

}  // namespace hsyn
