// Small string helpers shared across the parser, planner and CSV codecs.
#ifndef GOLA_COMMON_STRING_UTIL_H_
#define GOLA_COMMON_STRING_UTIL_H_

#include <cstdarg>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace gola {

/// ASCII lower-casing (SQL identifiers/keywords are case-insensitive).
std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

/// Joins the parts with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Concatenates the pieces into one string. Prefer it over a
/// `"literal" + std::string` chain, on which GCC 12 reports a spurious
/// -Wrestrict (an error under GOLA_WERROR).
std::string StrCat(std::initializer_list<std::string_view> pieces);

/// Splits on a single character; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// printf-style formatting into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// True if `s` equals `keyword` ignoring ASCII case.
bool EqualsIgnoreCase(std::string_view s, std::string_view keyword);

/// Escapes `s` for use inside a JSON string literal (quotes not added):
/// `"` and `\` are backslash-escaped, \n \r \t get their short forms and
/// every other control character becomes \u00XX.
std::string JsonEscape(std::string_view s);

}  // namespace gola

#endif  // GOLA_COMMON_STRING_UTIL_H_
