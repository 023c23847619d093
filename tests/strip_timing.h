// The one run-dependent line of a synthesis report, stripped so that
// reports of identical runs compare byte for byte.
#pragma once

#include <string>

namespace hsyn::testing_support {

/// The report minus its wall-clock "synthesis time" line.
inline std::string strip_timing(const std::string& report) {
  std::string out;
  std::size_t pos = 0;
  while (pos < report.size()) {
    std::size_t eol = report.find('\n', pos);
    if (eol == std::string::npos) eol = report.size();
    const std::string line = report.substr(pos, eol - pos);
    if (line.find("synthesis time") == std::string::npos) out += line + "\n";
    pos = eol + 1;
  }
  return out;
}

}  // namespace hsyn::testing_support
