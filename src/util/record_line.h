#ifndef WEBEVO_UTIL_RECORD_LINE_H_
#define WEBEVO_UTIL_RECORD_LINE_H_

#include <charconv>
#include <cstddef>
#include <string>
#include <string_view>
#include <type_traits>

namespace webevo {

/// What a record field may be: bool, an integer wider than one byte
/// (an ostream writes 1-byte integers as characters, so they are
/// rejected at compile time), a double, or text.
template <typename T>
concept RecordField = std::is_same_v<T, bool> || std::is_same_v<T, double> ||
                      (std::is_integral_v<T> && sizeof(T) > 1) ||
                      std::is_convertible_v<const T&, std::string_view>;

/// The one formatter of record text: every snapshot, checkpoint
/// section, delta segment, web snapshot, view and paged-store record
/// is written through it. A RecordLine is a reusable line buffer.
/// Start() clears it and writes the first token (a tag, or the first
/// field of an untagged record); Add() appends each further field
/// after one space. Integers are written in decimal, bools as 0 or 1,
/// text verbatim, and doubles as printf "%.17g" via std::to_chars,
/// which is exactly what an ostream with precision(17) writes, so the
/// readers' operator>> parses every value back bit for bit. The buffer
/// keeps its capacity across lines, so a writer formats a whole
/// section without allocating per record.
class RecordLine {
 public:
  template <RecordField First, RecordField... Rest>
  RecordLine& Start(const First& first, const Rest&... rest) {
    buf_.clear();
    Put(first);
    return Add(rest...);
  }

  template <RecordField... Fields>
  RecordLine& Add(const Fields&... fields) {
    ((buf_ += ' ', Put(fields)), ...);
    return *this;
  }

  std::string_view view() const { return buf_; }

 private:
  template <typename T>
  void Put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      buf_ += v ? '1' : '0';
    } else if constexpr (std::is_integral_v<T>) {
      char digits[24];
      const std::to_chars_result r = std::to_chars(
          digits, digits + sizeof(digits), v);
      // By length, not (first, last): GCC 12 flags the iterator-pair
      // append with a -Wrestrict false positive.
      buf_.append(digits, static_cast<std::size_t>(r.ptr - digits));
    } else if constexpr (std::is_same_v<T, double>) {
      // Longest %.17g text: sign, 17 digits, point, "e-308" = 24.
      char digits[32];
      const std::to_chars_result r = std::to_chars(
          digits, digits + sizeof(digits), v, std::chars_format::general, 17);
      buf_.append(digits, static_cast<std::size_t>(r.ptr - digits));
    } else {
      buf_.append(std::string_view(v));
    }
  }

  std::string buf_;
};

}  // namespace webevo

#endif  // WEBEVO_UTIL_RECORD_LINE_H_
