// Small string helpers shared across modules.
#ifndef PINUM_COMMON_STR_UTIL_H_
#define PINUM_COMMON_STR_UTIL_H_

#include <string>
#include <vector>

namespace pinum {

/// Joins the elements of `parts` with `sep` between them.
inline std::string StrJoin(const std::vector<std::string>& parts,
                           const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

/// Uppercases ASCII letters in place and returns the string.
inline std::string AsciiUpper(std::string s) {
  for (char& c : s) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  return s;
}

}  // namespace pinum

#endif  // PINUM_COMMON_STR_UTIL_H_
