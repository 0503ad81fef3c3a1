// String helpers for the query parser, EXPLAIN output, and logging.

#ifndef GEOSTREAMS_COMMON_STRING_UTIL_H_
#define GEOSTREAMS_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace geostreams {

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// Splits on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `parts` with `sep` between elements.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// True when `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Shortest "%g"-style spelling of `v` (6 to 17 significant digits)
/// that parses back to exactly `v`: values printed this way round-trip
/// through the query parser, so equal text means equal numbers.
std::string FormatDouble(double v);

}  // namespace geostreams

#endif  // GEOSTREAMS_COMMON_STRING_UTIL_H_
