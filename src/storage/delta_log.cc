#include "storage/delta_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/hash.h"
#include "util/record_line.h"

namespace webevo::storage {

namespace {

// Appends `bytes` to `path` followed by fsync; `bytes` may be a
// truncated segment when the crash hook fires.
Status AppendAndSync(const std::string& path, const std::string& bytes) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::Internal("delta log: cannot open " + path);
  }
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    ssize_t n = ::write(fd, p, left);
    if (n <= 0) {
      ::close(fd);
      return Status::Internal("delta log: short write to " + path);
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::Internal("delta log: fsync failed on " + path);
  }
  ::close(fd);
  return Status::Ok();
}

// 1-based index of the next AppendDeltaSegment call in this process,
// for the crash-injection hook.
std::atomic<uint64_t> g_append_count{0};

}  // namespace

const std::string* FindSection(const std::vector<Section>& sections,
                               std::string_view name) {
  for (const Section& s : sections) {
    if (s.name == name) return &s.bytes;
  }
  return nullptr;
}

std::string EncodeDeltaSegment(const DeltaSegment& segment) {
  std::size_t payload_bytes = 0;
  for (const Section& s : segment.sections) {
    payload_bytes += s.bytes.size();
  }
  std::string head;
  RecordLine line;
  auto head_line = [&head](const RecordLine& record) {
    head.append(record.view());
    head += '\n';
  };
  head_line(line.Start(kDeltaMagic, kDeltaFormatVersion, segment.kind,
                       segment.base, segment.batch, segment.sections.size(),
                       payload_bytes));
  // One pass over the payload advances both FNV-1a streams, the
  // section's own (restarted per section) and the whole payload's, so
  // their multiply chains overlap instead of running one after the
  // other.
  uint64_t payload_hash = kFnv64OffsetBasis;
  for (const Section& s : segment.sections) {
    uint64_t section_hash = kFnv64OffsetBasis;
    uint64_t running = payload_hash;
    for (unsigned char c : s.bytes) {
      section_hash = (section_hash ^ c) * kFnv64Prime;
      running = (running ^ c) * kFnv64Prime;
    }
    payload_hash = running;
    head_line(line.Start("S", s.name, s.bytes.size(), section_hash));
  }
  head_line(line.Start("H", Fnv1a64(head)));
  line.Start("Z", payload_hash);

  std::string bytes;
  bytes.reserve(head.size() + payload_bytes + line.view().size() + 1);
  bytes.append(head);
  for (const Section& s : segment.sections) bytes.append(s.bytes);
  bytes.append(line.view());
  bytes += '\n';
  return bytes;
}

Status AppendDeltaSegment(const std::string& path,
                          const DeltaSegment& segment) {
  if (segment.sections.size() > kMaxDeltaSections) {
    return Status::InvalidArgument("delta segment: too many sections");
  }
  std::string bytes = EncodeDeltaSegment(segment);

  const uint64_t nth =
      g_append_count.fetch_add(1, std::memory_order_relaxed) + 1;
  const char* crash_at = std::getenv("WEBEVO_CRASH_AT_DELTA_SEGMENT");
  if (crash_at != nullptr &&
      nth == static_cast<uint64_t>(std::atoll(crash_at))) {
    // Simulate a crash between the WAL append and the seal: the header
    // and part of the payload reach the disk, the `Z` seal never does.
    const std::string::size_type seal =
        bytes.rfind("\nZ ") != std::string::npos
            ? bytes.rfind("\nZ ") + 1
            : bytes.size();
    const std::string::size_type cut = seal - (bytes.size() - seal) / 2 - 1;
    Status torn = AppendAndSync(path, bytes.substr(0, cut));
    (void)torn;
    ::_exit(17);
  }

  return AppendAndSync(path, bytes);
}

StatusOr<DeltaLogContents> ReadDeltaLog(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DeltaLogContents contents;
  if (!in) return contents;  // no log = empty
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t segment_start = pos;
    // A structural parse failure is a torn tail (not an error) when no
    // further segment header follows — a crash can tear the log at any
    // byte, including a line boundary. Failures *before* a later
    // segment, and checksum mismatches on fully-present data, are
    // corruption.
    const bool last_candidate =
        data.find(std::string("\n") + kDeltaMagic + " ",
                  segment_start) == std::string::npos;
    // --- header line
    std::size_t eol = data.find('\n', pos);
    if (eol == std::string::npos) break;  // torn tail
    std::istringstream head(data.substr(pos, eol - pos));
    std::string magic, kind;
    int version = 0;
    uint64_t base = 0, batch = 0;
    std::size_t nsections = 0, payload_bytes = 0;
    if (!(head >> magic >> version >> kind >> base >> batch >> nsections >>
          payload_bytes) ||
        magic != kDeltaMagic) {
      if (last_candidate) break;
      return Status::InvalidArgument(
          "delta log: bad segment header in " + path);
    }
    if (version != kDeltaFormatVersion) {
      return Status::InvalidArgument("delta log: unsupported version " +
                                     std::to_string(version));
    }
    if (nsections > kMaxDeltaSections) {
      return Status::InvalidArgument(
          "delta log: segment section count out of range");
    }
    std::string header_lines = data.substr(pos, eol - pos + 1);
    pos = eol + 1;
    // --- section table
    struct TableEntry {
      std::string name;
      std::size_t len;
      uint64_t hash;
    };
    std::vector<TableEntry> table;
    bool torn = false;
    for (std::size_t i = 0; i < nsections; ++i) {
      eol = data.find('\n', pos);
      if (eol == std::string::npos) {
        torn = true;
        break;
      }
      std::istringstream line(data.substr(pos, eol - pos));
      std::string tag;
      TableEntry entry;
      if (!(line >> tag >> entry.name >> entry.len >> entry.hash) ||
          tag != "S") {
        if (last_candidate) {
          torn = true;
          break;
        }
        return Status::InvalidArgument(
            "delta log: bad section table line in " + path);
      }
      header_lines += data.substr(pos, eol - pos + 1);
      table.push_back(std::move(entry));
      pos = eol + 1;
    }
    if (torn) {
      pos = segment_start;
      break;
    }
    // --- header checksum line
    eol = data.find('\n', pos);
    if (eol == std::string::npos) {
      pos = segment_start;
      break;  // torn tail
    }
    {
      std::istringstream line(data.substr(pos, eol - pos));
      std::string tag;
      uint64_t hash = 0;
      if (!(line >> tag >> hash) || tag != "H") {
        if (last_candidate) {
          pos = segment_start;
          break;
        }
        return Status::InvalidArgument(
            "delta log: missing header checksum in " + path);
      }
      if (hash != Fnv1a64(header_lines)) {
        return Status::InvalidArgument(
            "delta log: header checksum mismatch in " + path);
      }
    }
    pos = eol + 1;
    // --- payload
    if (data.size() - pos < payload_bytes) {
      pos = segment_start;
      break;  // torn tail
    }
    const std::string payload = data.substr(pos, payload_bytes);
    pos += payload_bytes;
    // --- seal
    eol = data.find('\n', pos);
    if (eol == std::string::npos) {
      pos = segment_start;
      break;  // torn tail (seal missing)
    }
    {
      std::istringstream line(data.substr(pos, eol - pos));
      std::string tag;
      uint64_t hash = 0;
      if (!(line >> tag >> hash) || tag != "Z") {
        if (last_candidate) {
          pos = segment_start;
          break;
        }
        return Status::InvalidArgument(
            "delta log: missing seal in " + path);
      }
      if (hash != Fnv1a64(payload)) {
        return Status::InvalidArgument(
            "delta log: payload checksum mismatch in " + path);
      }
    }
    pos = eol + 1;
    // --- slice sections out of the payload
    DeltaSegment segment;
    segment.kind = kind;
    segment.base = base;
    segment.batch = batch;
    std::size_t off = 0;
    for (const TableEntry& entry : table) {
      // Bounded by the payload bytes still unread, never by a sum of
      // the claimed lengths, which can wrap around.
      if (entry.len > payload_bytes - off) {
        return Status::InvalidArgument("delta log: section '" + entry.name +
                                       "' overruns the payload in " + path);
      }
      Section section;
      section.name = entry.name;
      section.bytes = payload.substr(off, entry.len);
      if (Fnv1a64(section.bytes) != entry.hash) {
        return Status::InvalidArgument("delta log: section '" +
                                       entry.name +
                                       "' checksum mismatch");
      }
      off += entry.len;
      segment.sections.push_back(std::move(section));
    }
    if (off != payload_bytes) {
      return Status::InvalidArgument(
          "delta log: section table disagrees with payload size in " + path);
    }
    contents.segments.push_back(std::move(segment));
  }
  contents.torn_tail_bytes = data.size() - pos;
  return contents;
}

Status TruncateDeltaLog(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("delta log: cannot truncate " + path);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::Internal("delta log: fsync failed on " + path);
  }
  ::close(fd);
  return Status::Ok();
}

}  // namespace webevo::storage
