#ifndef WEBEVO_UTIL_TEXT_SNAPSHOT_H_
#define WEBEVO_UTIL_TEXT_SNAPSHOT_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>

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
/// Writers and readers are deliberately asymmetric. Every record line
/// is formatted by the one RecordLine formatter (util/record_line.h),
/// which writes doubles as printf "%.17g"; the readers are unchanged
/// istream parsers, so what they accept does not depend on how the
/// bytes were written.

/// The trailer line's leading token.
inline constexpr const char* kSnapshotTrailerMagic = "webevo-checksum";

/// Accumulates payload lines and emits them with an integrity trailer.
class TrailerWriter {
 public:
  explicit TrailerWriter(std::ostream& out) : out_(out) {}

  void Line(std::string_view line);
  void Line(const RecordLine& line) { Line(line.view()); }

  void Finish();

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

 private:
  std::istream& in_;
  uint64_t hash_ = 0xcbf29ce484222325ULL;
  bool done_ = false;
};

/// Rejects trailing tokens on a parsed record line: after the caller
/// has extracted every expected field, anything but whitespace left in
/// `is` means the record carries garbage (or the parser and writer
/// disagree) and the snapshot must not be trusted.
Status ExpectLineEnd(std::istream& is, const char* what);

/// The shared reader epilogue: consumes and verifies the trailer
/// (rejecting payload lines beyond the declared record counts), then
/// requires end-of-stream. Every framed-stream reader finishes with
/// this, so the end-of-payload rules can never drift apart.
Status FinishFramedStream(TrailerReader& reader, std::istream& in,
                          const char* what);

/// Rejects trailing data after a snapshot's trailer: a well-formed
/// standalone snapshot ends at its trailer, so any non-whitespace
/// bytes that follow mean the file was appended to or mis-framed.
Status ExpectStreamEnd(std::istream& in, const char* what);

/// Writes `bytes` to `path` crash-consistently: the content goes to a
/// temporary file in the same directory, is fsync'd, and is renamed
/// over `path` atomically (the directory entry is fsync'd too). A
/// crash at any point leaves either the old file or the new one —
/// never a torn mix.
Status AtomicWriteFile(const std::string& path, const std::string& bytes);

}  // namespace webevo

#endif  // WEBEVO_UTIL_TEXT_SNAPSHOT_H_
