// Strict integer parsing for the command-line flags and environment
// variables of kbrepaird, kbrepair-client and kbrepair-debug: a typo is
// refused instead of silently becoming 0 or a prefix of itself.

#ifndef KBREPAIR_UTIL_FLAGS_H_
#define KBREPAIR_UTIL_FLAGS_H_

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

namespace kbrepair {

// The whole of `text` as a decimal integer in [min, max] (min >= 0): no
// sign, whitespace, suffix or overflow. With a `flag` name, a failure is
// reported as "FLAG: expected an integer in [MIN, MAX], got 'TEXT'".
inline bool ParseInteger(const std::string& text, int64_t min, int64_t max,
                         int64_t* out, const std::string& flag = "") {
  char* end = nullptr;
  errno = 0;
  const long long value =
      text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))
          ? -1
          : std::strtoll(text.c_str(), &end, 10);
  if (value >= min && value <= max && errno == 0 && *end == '\0') {
    *out = value;
    return true;
  }
  if (!flag.empty()) {
    std::cerr << flag << ": expected an integer in [" << min << ", " << max
              << "], got '" << text << "'\n";
  }
  return false;
}

}  // namespace kbrepair

#endif  // KBREPAIR_UTIL_FLAGS_H_
