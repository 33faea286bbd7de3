// JSON text for the drivers' raw output files (read by run.py).
#pragma once

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

/// Numbers at round-trip precision, so run.py sees every digit measured.
inline std::string json_array(const std::vector<double>& v) {
  std::ostringstream s;
  s.precision(17);
  s << '[';
  for (std::size_t i = 0; i < v.size(); ++i) s << (i ? "," : "") << v[i];
  s << ']';
  return s.str();
}

inline std::string json_strings(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? "," : "") + json_string(v[i]);
  }
  return out + "]";
}

}  // namespace perfbench
