#ifndef WEBEVO_UTIL_TEXT_SNAPSHOT_H_
#define WEBEVO_UTIL_TEXT_SNAPSHOT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/record_line.h"
#include "util/status.h"

namespace webevo {

/// Line-oriented snapshot framing shared by every durable stream in the
/// library (crawler snapshots, the crawler checkpoint container, the
/// simulated-web state): payload lines are accumulated into an FNV-1a
/// hash and terminated by a `webevo-checksum <hash>` trailer, so
/// truncated or corrupted streams are rejected rather than silently
/// loaded.
///
/// Every record line is formatted by the one RecordLine formatter
/// (util/record_line.h), which writes doubles as printf "%.17g", and
/// read back by the one RecordReader below, which extracts each field
/// with operator>>. What a reader accepts therefore depends only on
/// the field types it asks for, never on how the bytes were written.

/// The trailer line's leading token.
inline constexpr const char* kSnapshotTrailerMagic = "webevo-checksum";

/// Accumulates payload lines and emits them with an integrity trailer.
class TrailerWriter {
 public:
  explicit TrailerWriter(std::ostream& out) : out_(out) {}

  void Line(std::string_view line);
  void Line(const RecordLine& line) { Line(line.view()); }

  void Finish();

  /// FNV-1a of the lines written so far: after Finish, the trailer's.
  uint64_t hash() const { return hash_; }

 private:
  std::ostream& out_;
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Reads payload lines, verifying the trailer at the end.
class TrailerReader {
 public:
  explicit TrailerReader(std::istream& in) : in_(in) {}

  /// Next payload line; NotFound past the payload (after the trailer
  /// was consumed and verified), InvalidArgument on corruption.
  StatusOr<std::string> Next();

  bool done() const { return done_; }

  /// FNV-1a of the payload lines read so far: once done, the verified
  /// trailer's.
  uint64_t hash() const { return hash_; }

 private:
  std::istream& in_;
  uint64_t hash_ = 0xcbf29ce484222325ULL;
  bool done_ = false;
};

/// Reserves room for a count parsed before the trailer has verified
/// it: at most 2^20 elements, so a forged count can bound a loop but
/// never size an allocation on its own.
template <typename Container>
void ReserveClaimed(Container& c, std::size_t claimed) {
  c.reserve(std::min<std::size_t>(claimed, std::size_t{1} << 20));
}

/// The read-side twin of RecordLine: reads one trailer-framed stream
/// record by record. Every snapshot, checkpoint section, delta section
/// and web snapshot is read through it. A stream is a `<magic>
/// <version> fields...` header, then `<tag> fields...` records, then
/// the trailer. A record with a variable tail (a link list, an
/// estimator state) is read as Begin, any number of Fields calls, and
/// End. Fields are extracted with operator>> from one reused
/// istringstream, so a field accepts exactly what operator>> accepts
/// for its type, and a line must be used up: a token left over is an
/// error.
///
/// Errors are sticky. The first one is kept: a malformed, mistagged,
/// short or long line, a record missing before the trailer, a bad
/// trailer, or a caller's Fail. Every later call then does nothing and
/// returns false, and Trailer and Finish return that first error. Every
/// format error is InvalidArgument.
class RecordReader {
 public:
  /// `what` names the stream in error messages.
  RecordReader(std::istream& in, const char* what)
      : in_(in), lines_(in), what_(what) {}

  /// Reads the header line; its magic and version must match.
  template <typename... Ts>
  bool Header(std::string_view magic, int version, Ts&&... fields) {
    int got_version = 0;
    if (!NextLine("header")) return false;
    ((line_ >> tag_ >> got_version) >> ... >> fields);
    if (line_.fail() || tag_ != magic || got_version != version) {
      return Fail("malformed header");
    }
    return End();
  }

  /// Reads one whole `<tag> fields...` record.
  template <typename... Ts>
  bool Record(std::string_view tag, Ts&&... fields) {
    return Begin(tag, fields...) && End();
  }

  /// Reads a record's tag and leading fields, leaving the line open
  /// for Fields and End.
  template <typename... Ts>
  bool Begin(std::string_view tag, Ts&&... fields) {
    if (!NextLine(tag)) return false;
    ((line_ >> tag_) >> ... >> fields);
    if (line_.fail() || tag_ != tag) return Malformed();
    return true;
  }

  /// Reads further fields of the open record.
  template <typename... Ts>
  bool Fields(Ts&&... fields) {
    if (!ok()) return false;
    (line_ >> ... >> fields);
    return line_.fail() ? Malformed() : true;
  }

  /// Closes the open record: anything but blanks left on it is an
  /// error (the record carries garbage, or reader and writer disagree).
  bool End();

  /// Records an error the caller found in parsed fields (a range or
  /// consistency check), as InvalidArgument.
  bool Fail(std::string_view why);

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Consumes and verifies the trailer; a payload line left unread is
  /// an error. Bytes after the trailer are left in the stream (the
  /// checkpoint container's section bytes follow its header's).
  Status Trailer();

  /// Trailer, then nothing but whitespace to the end of the stream.
  /// Every reader ends with this, so the end-of-payload rules cannot
  /// drift apart.
  Status Finish();

  /// The trailer's value, once Trailer has verified it.
  uint64_t hash() const { return lines_.hash(); }

 private:
  bool NextLine(std::string_view record);
  bool Malformed();

  std::istream& in_;
  TrailerReader lines_;
  std::istringstream line_;
  std::string tag_;
  const char* what_;
  Status status_;
};

/// Rejects trailing data after a snapshot's trailer: a well-formed
/// standalone snapshot ends at its trailer, so any non-whitespace
/// bytes that follow mean the file was appended to or mis-framed.
Status ExpectStreamEnd(std::istream& in, const char* what);

/// Writes `parts`, in order, to `path` crash-consistently: the content
/// goes to a temporary file in the same directory, is fsync'd, and is
/// renamed over `path` atomically (the directory entry is fsync'd too).
/// A crash at any point leaves either the old file or the new one —
/// never a torn mix.
Status AtomicWriteFile(const std::string& path,
                       const std::vector<std::string_view>& parts);

}  // namespace webevo

#endif  // WEBEVO_UTIL_TEXT_SNAPSHOT_H_
