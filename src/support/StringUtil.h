//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String formatting and manipulation helpers.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_SUPPORT_STRINGUTIL_H
#define JUMPSTART_SUPPORT_STRINGUTIL_H

#include <charconv>
#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace jumpstart {

/// printf-style formatting into a std::string.
std::string strFormat(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// va_list flavour of strFormat, for wrappers that forward their own
/// variadic arguments.  \p Ap is left in an unspecified state.
std::string strFormatV(const char *Fmt, va_list Ap)
    __attribute__((format(printf, 1, 0)));

/// Splits \p S on \p Sep; empty fields are kept.
std::vector<std::string> splitString(std::string_view S, char Sep);

/// \returns true if \p S starts with \p Prefix.
inline bool startsWith(std::string_view S, std::string_view Prefix) {
  return S.size() >= Prefix.size() && S.substr(0, Prefix.size()) == Prefix;
}

/// Renders a byte count with a binary-unit suffix ("512 B", "1.5 MB").
std::string formatBytes(uint64_t Bytes);

/// Parses all of \p Text as a decimal \p IntT: no whitespace, no '+', a
/// '-' only for signed types, and the value must fit ("-1" or 4294967296
/// into a uint32_t fail rather than wrap or truncate).  \returns false and
/// leaves \p Out alone on any of these.
template <typename IntT> bool parseInteger(std::string_view Text, IntT &Out) {
  const char *Last = Text.data() + Text.size();
  IntT V = 0;
  auto [End, Err] = std::from_chars(Text.data(), Last, V);
  if (Err != std::errc() || End != Last)
    return false;
  Out = V;
  return true;
}

} // namespace jumpstart

#endif // JUMPSTART_SUPPORT_STRINGUTIL_H
