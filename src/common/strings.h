// Small string helpers used across the library (join, split, printf-free
// concatenation). Kept deliberately minimal; no locale dependence.
#ifndef HAS_COMMON_STRINGS_H_
#define HAS_COMMON_STRINGS_H_

#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace has {

namespace strings_internal {

/// The integer types std::to_string writes with operator<<'s digits
/// (not bool, and none of the character types, which print as
/// characters).
template <typename T>
inline constexpr bool kPlainInteger =
    std::is_same_v<T, short> || std::is_same_v<T, unsigned short> ||
    std::is_same_v<T, int> || std::is_same_v<T, unsigned> ||
    std::is_same_v<T, long> || std::is_same_v<T, unsigned long> ||
    std::is_same_v<T, long long> || std::is_same_v<T, unsigned long long>;

/// Appends the stream representation of `piece` to *out.
template <typename T>
void AppendPiece(std::string* out, const T& piece) {
  if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    out->append(std::string_view(piece));
  } else if constexpr (std::is_same_v<T, char>) {
    out->push_back(piece);
  } else if constexpr (kPlainInteger<T>) {
    out->append(std::to_string(piece));
  } else {
    std::ostringstream oss;  // bool, floating point, Rational, enums, ...
    oss << piece;
    out->append(oss.str());
  }
}

}  // namespace strings_internal

/// Concatenates the stream representations of all arguments. Strings,
/// characters and plain integers are appended directly; anything else
/// goes through a one-off std::ostringstream.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::string out;
  (strings_internal::AppendPiece(&out, args), ...);
  return out;
}

/// Joins `parts` with `sep` between consecutive elements.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

/// Splits `text` on the single character `sep`; keeps empty pieces.
std::vector<std::string> StrSplit(std::string_view text, char sep);

/// True iff `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

}  // namespace has

#endif  // HAS_COMMON_STRINGS_H_
