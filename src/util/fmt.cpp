#include "util/fmt.h"

#include <cstdio>
#include <stdexcept>
#include <vector>

namespace hsyn {

std::string strf(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (n < 0) {
    va_end(args2);
    return {};
  }
  std::string out(static_cast<std::size_t>(n), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  va_end(args2);
  return out;
}

std::string fixed(double v, int prec) { return strf("%.*f", prec, v); }

void check_failed(const std::string& msg) {
  throw std::logic_error("hsyn check failed: " + msg);
}

}  // namespace hsyn
