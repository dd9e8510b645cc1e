#include "common/string_util.h"

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace roadpart {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r' || s[b] == '\n'))
    ++b;
  while (e > b &&
         (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r' ||
          s[e - 1] == '\n'))
    --e;
  return s.substr(b, e - b);
}

Result<double> ParseDouble(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::InvalidArgument("empty number");
  std::string buf(s);
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("not a number: '" + buf + "'");
  }
  return v;
}

Result<int64_t> ParseInt(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::InvalidArgument("empty integer");
  std::string buf(s);
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("not an integer: '" + buf + "'");
  }
  if (errno == ERANGE) {
    return Status::InvalidArgument("integer out of range: '" + buf + "'");
  }
  return static_cast<int64_t>(v);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string StrPrintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed) + 1);
    std::vsnprintf(out.data(), out.size(), fmt, args);
    out.resize(static_cast<size_t>(needed));
  }
  va_end(args);
  return out;
}

}  // namespace roadpart
