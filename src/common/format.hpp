#pragma once
/// \file format.hpp
/// \brief The one text spelling of a double in every file sptd writes.
///
/// Model files, `.tns` output and checkpoint scalars all print a value as
/// `std::to_chars(..., chars_format::general, max_digits10)`. That is the
/// same byte sequence as printf's `%.17g` and as an ostream at precision
/// 17 (`nan`, `-nan`, `inf`, `-0` and subnormals included), and it
/// round-trips every double exactly, without the locale and stream-state
/// cost of either.

#include <charconv>
#include <cstddef>
#include <limits>
#include <string>

namespace sptd {

/// Most bytes format_double writes: sign, 17 significant digits, the
/// decimal point and a four-byte exponent ("-2.2250738585072014e-308").
inline constexpr std::size_t kMaxDoubleChars = 24;

/// Writes \p v at \p p (which must have kMaxDoubleChars bytes of room) and
/// returns one past the last byte written.
inline char* format_double(char* p, double v) {
  return std::to_chars(p, p + kMaxDoubleChars, v, std::chars_format::general,
                       std::numeric_limits<double>::max_digits10)
      .ptr;
}

/// Appends \p v's spelling to \p out.
inline void append_double(std::string& out, double v) {
  char buf[kMaxDoubleChars];
  out.append(buf, format_double(buf, v));
}

}  // namespace sptd
