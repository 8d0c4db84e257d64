#ifndef MIDAS_UTIL_STRING_UTIL_H_
#define MIDAS_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace midas {

/// Splits `input` on `delim`. Empty fields are preserved, so
/// Split("a,,b", ',') yields {"a", "", "b"}. Splitting an empty string yields
/// a single empty field.
std::vector<std::string_view> Split(std::string_view input, char delim);

/// Splits `input` on `delim`, dropping empty fields.
std::vector<std::string_view> SplitSkipEmpty(std::string_view input,
                                             char delim);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view input);

/// ASCII lower-casing (locale independent).
std::string ToLower(std::string_view input);

/// True iff `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Parses a non-negative integer; returns false on any non-digit or
/// overflow.
bool ParseUint64(std::string_view s, uint64_t* out);

/// Parses a signed integer (optional leading '-'); returns false on any
/// non-digit or int64 overflow.
bool ParseInt64(std::string_view s, int64_t* out);

/// Parses a double via strtod semantics; returns false unless the whole
/// string is consumed.
bool ParseDouble(std::string_view s, double* out);

/// Formats `value` with `precision` digits after the decimal point.
std::string FormatDouble(double value, int precision);

/// Formats a count with thousands separators: 1234567 -> "1,234,567".
std::string FormatCount(uint64_t value);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace midas

#endif  // MIDAS_UTIL_STRING_UTIL_H_
