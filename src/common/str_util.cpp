#include "common/str_util.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace ftdl {

std::string strformat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(static_cast<std::size_t>(n), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  va_end(args2);
  return out;
}

std::string format_hz(double hz) {
  if (hz >= 1e9) return strformat("%.2f GHz", hz / 1e9);
  if (hz >= 1e6) return strformat("%.1f MHz", hz / 1e6);
  if (hz >= 1e3) return strformat("%.1f kHz", hz / 1e3);
  return strformat("%.0f Hz", hz);
}

std::string format_bytes(double bytes) {
  if (bytes >= 1024.0 * 1024.0 * 1024.0)
    return strformat("%.2f GB", bytes / (1024.0 * 1024.0 * 1024.0));
  if (bytes >= 1024.0 * 1024.0) return strformat("%.1f MB", bytes / (1024.0 * 1024.0));
  if (bytes >= 1024.0) return strformat("%.1f KB", bytes / 1024.0);
  return strformat("%.0f B", bytes);
}

std::string format_count(double n) {
  if (n >= 1e9) return strformat("%.2f G", n / 1e9);
  if (n >= 1e6) return strformat("%.2f M", n / 1e6);
  if (n >= 1e3) return strformat("%.2f K", n / 1e3);
  return strformat("%.0f", n);
}

std::string format_percent(double ratio, int decimals) {
  return strformat("%.*f%%", decimals, ratio * 100.0);
}

bool parse_int_strict(const char* s, std::int64_t min_v, std::int64_t max_v,
                      std::int64_t* out) {
  // strtoll skips leading whitespace; the whole string must be the number.
  if (s == nullptr || *s == '\0' ||
      std::isspace(static_cast<unsigned char>(*s)))
    return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  if (v < min_v || v > max_v) return false;
  *out = v;
  return true;
}

bool parse_double_strict(const char* s, double* out) {
  if (s == nullptr || *s == '\0' ||
      std::isspace(static_cast<unsigned char>(*s)))
    return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string join_x(const std::vector<std::int64_t>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += " x ";
    out += std::to_string(v[i]);
  }
  return out;
}

}  // namespace ftdl
