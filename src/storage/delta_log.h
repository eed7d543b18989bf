#ifndef WEBEVO_STORAGE_DELTA_LOG_H_
#define WEBEVO_STORAGE_DELTA_LOG_H_

#include <cstdint>
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
/// tail. The reader accepts the longest sealed prefix; bytes after it
/// that do not form a sealed segment are reported as a torn tail (the
/// crash-recovery case) and ignored. Corrupt *sealed-looking* data —
/// a checksum mismatch with the full segment present — is an error,
/// not a torn tail.
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

/// Reads the sealed prefix of the log. A missing file yields empty
/// contents (no segments, no torn tail).
StatusOr<DeltaLogContents> ReadDeltaLog(const std::string& path);

/// Empties the log (the rebase step after a new base image is
/// written).
Status TruncateDeltaLog(const std::string& path);

}  // namespace webevo::storage

#endif  // WEBEVO_STORAGE_DELTA_LOG_H_
