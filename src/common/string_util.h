// Small string helpers shared across CasCN: splitting, joining, trimming,
// numeric parsing with error reporting, and printf-style formatting.

#ifndef CASCN_COMMON_STRING_UTIL_H_
#define CASCN_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace cascn {

/// Splits `s` on `delim`; keeps empty fields (",a,," -> {"", "a", "", ""}).
std::vector<std::string> Split(std::string_view s, char delim);

/// Splits `s` on runs of whitespace; drops empty fields.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep` between elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing whitespace.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Parses a signed integer; rejects trailing garbage.
Result<int64_t> ParseInt64(std::string_view s);

/// Parses a double; rejects trailing garbage.
Result<double> ParseDouble(std::string_view s);

/// Escapes `s` for the inside of a JSON string: quote and backslash get a
/// backslash, \n \r \t their short forms, any other byte below 0x20 (NUL
/// included) \u00XX. Bytes >= 0x80 pass through unchanged.
std::string JsonEscape(std::string_view s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace cascn

#endif  // CASCN_COMMON_STRING_UTIL_H_
