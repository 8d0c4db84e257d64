#include "midas/util/string_util.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cctype>

namespace midas {

std::vector<std::string_view> Split(std::string_view input, char delim) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delim, start);
    if (pos == std::string_view::npos) {
      out.push_back(input.substr(start));
      break;
    }
    out.push_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string_view> SplitSkipEmpty(std::string_view input,
                                             char delim) {
  std::vector<std::string_view> out;
  for (std::string_view piece : Split(input, delim)) {
    if (!piece.empty()) out.push_back(piece);
  }
  return out;
}

std::string_view Trim(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

std::string ToLower(std::string_view input) {
  std::string out(input);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ParseUint64(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;  // overflow
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool ParseInt64(std::string_view s, int64_t* out) {
  if (s.empty()) return false;
  const bool negative = s.front() == '-';
  if (negative) s.remove_prefix(1);
  uint64_t magnitude = 0;
  if (!ParseUint64(s, &magnitude)) return false;
  const uint64_t limit = negative
                             ? static_cast<uint64_t>(INT64_MAX) + 1
                             : static_cast<uint64_t>(INT64_MAX);
  if (magnitude > limit) return false;
  *out = negative ? -static_cast<int64_t>(magnitude - 1) - 1
                  : static_cast<int64_t>(magnitude);
  return true;
}

bool ParseDouble(std::string_view s, double* out) {
  if (s.empty()) return false;
  std::string buf(s);
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  *out = value;
  return true;
}

std::string FormatDouble(double value, int precision) {
  return StringPrintf("%.*f", precision, value);
}

std::string FormatCount(uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  size_t leading = digits.size() % 3;
  if (leading == 0) leading = 3;
  for (size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - leading) % 3 == 0 && i >= leading) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::string StringPrintf(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, format, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace midas
