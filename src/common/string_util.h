#ifndef ROADPART_COMMON_STRING_UTIL_H_
#define ROADPART_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace roadpart {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// Parses a double; rejects trailing garbage.
Result<double> ParseDouble(std::string_view s);

/// Parses a signed 64-bit integer; rejects trailing garbage and overflow.
Result<int64_t> ParseInt(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string StrPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace roadpart

#endif  // ROADPART_COMMON_STRING_UTIL_H_
