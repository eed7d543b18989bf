#ifndef WEBEVO_STORAGE_DELTA_LOG_H_
#define WEBEVO_STORAGE_DELTA_LOG_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace webevo::storage {

/// The write-ahead delta log behind incremental checkpoints: an
/// append-only file of *sealed segments*, one per checkpointed batch.
///
/// Segment wire format (all framing is line-oriented, like the
/// checkpoint container):
///
///     webevo-delta 2 <kind> <base> <batch> <nsections> <payload_bytes>
///     S <name> <len> <fnv64>          (x nsections)
///     H <fnv64-of-all-preceding-lines>
///     <payload bytes: the sections' bytes, concatenated>
///     Z <fnv64-of-payload>
///
/// The trailing `Z` line is the *seal*: the writer builds the whole
/// segment in memory, appends it, and fsyncs before returning, so a
/// segment is either fully present and sealed or it is the file's torn
/// tail. The reader (ForEachDeltaSegment, below) accepts the longest
/// sealed prefix; bytes after it that do not form a sealed segment are
/// reported as a torn tail (the crash-recovery case) and ignored.
/// Corrupt *sealed-looking* data — a checksum mismatch with the full
/// segment present — is an error, not a torn tail.
///
/// `<base>` names the base image the segment extends (the checkpoint
/// container's id, crawler/snapshot.h): a resume replays only the
/// segments that name the image it loaded.
inline constexpr const char* kDeltaMagic = "webevo-delta";
inline constexpr int kDeltaFormatVersion = 2;
inline constexpr std::size_t kMaxDeltaSections = 32;

/// One named section, of a delta segment or of a checkpoint container.
struct Section {
  std::string name;
  std::string bytes;
};

/// The bytes of the section named `name`, or null when absent.
const std::string* FindSection(const std::vector<Section>& sections,
                               std::string_view name);

struct DeltaSegment {
  std::string kind;  ///< "incremental" | "periodic" (container kind)
  /// The id of the base image this segment extends.
  uint64_t base = 0;
  uint64_t batch = 0;
  std::vector<Section> sections;
};

struct DeltaLogContents {
  std::vector<DeltaSegment> segments;  ///< the sealed prefix, in order
  uint64_t torn_tail_bytes = 0;        ///< unsealed bytes past it
};

/// Serialises a segment to its wire format (exposed for the inspector
/// tool and tests).
std::string EncodeDeltaSegment(const DeltaSegment& segment);

/// Appends `segment`, sealed, to the log at `path` (creating it if
/// absent) and fsyncs — the durability point of the checkpoint
/// barrier.
///
/// Crash-injection hook: when the environment variable
/// `WEBEVO_CRASH_AT_DELTA_SEGMENT=<k>` is set, the k-th append in this
/// process (1-based) writes the header and half the payload, omits the
/// seal, flushes, and calls _exit(17) — simulating a crash between the
/// WAL append and the segment seal.
Status AppendDeltaSegment(const std::string& path,
                          const DeltaSegment& segment);

/// Reads the log at `path` one sealed segment at a time and hands each
/// to `fn`, which may move from it; the segment is freed before the
/// next is read, so a replay holds one segment, never the whole log.
/// Each section is read from the file straight into its own string, and
/// one pass over its bytes advances both its own FNV-1a and the seal's,
/// as EncodeDeltaSegment does on write. A segment reaches `fn` only
/// once its header checksum, its seal and every section checksum have
/// verified. A non-OK status from `fn` ends the read and is returned.
///
/// Bytes past the sealed prefix that do not form a sealed segment are
/// the torn tail, counted in `*torn_tail_bytes` (0 when none). A
/// framing line that is cut off by the end of the file, or a payload
/// longer than the bytes the file has left, is torn. A framing line
/// that does not parse is torn only when no later segment header (a
/// `\nwebevo-delta ` anywhere after the segment's start) follows;
/// otherwise it is corruption, returned as InvalidArgument like every
/// checksum mismatch on a fully present segment. A claimed length is
/// checked against the bytes the file (or the payload) has left before
/// anything is read for it.
///
/// A missing file reads as an empty log. A file that exists but cannot
/// be read, or is not a regular file (a directory, say), is an Internal
/// error naming the path.
Status ForEachDeltaSegment(const std::string& path,
                           const std::function<Status(DeltaSegment&)>& fn,
                           uint64_t* torn_tail_bytes);

/// Reads the whole sealed prefix of the log at once: ForEachDeltaSegment
/// collecting every segment, for tests. A missing file yields empty
/// contents (no segments, no torn tail).
StatusOr<DeltaLogContents> ReadDeltaLog(const std::string& path);

/// Empties the log (the rebase step after a new base image is
/// written).
Status TruncateDeltaLog(const std::string& path);

}  // namespace webevo::storage

#endif  // WEBEVO_STORAGE_DELTA_LOG_H_
