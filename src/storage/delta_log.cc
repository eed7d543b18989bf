#include "storage/delta_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

// One pass over payload bytes advances both FNV-1a streams, the
// section's own (restarted per section) and the whole payload's behind
// the seal, so their multiply chains overlap instead of running one
// after the other.
void HashPayload(std::string_view bytes, uint64_t* own_hash,
                 uint64_t* payload_hash) {
  uint64_t own = *own_hash;
  uint64_t payload = *payload_hash;
  for (unsigned char c : bytes) {
    own = (own ^ c) * kFnv64Prime;
    payload = (payload ^ c) * kFnv64Prime;
  }
  *own_hash = own;
  *payload_hash = payload;
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
  uint64_t payload_hash = kFnv64OffsetBasis;
  for (const Section& s : segment.sections) {
    uint64_t section_hash = kFnv64OffsetBasis;
    HashPayload(s.bytes, &section_hash, &payload_hash);
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

namespace {

// The open log and the read position in it, for one pass of
// ForEachDeltaSegment.
struct LogFile {
  explicit LogFile(const std::string& log_path) : path(log_path) {}
  ~LogFile() {
    if (file != nullptr) std::fclose(file);
    std::free(line);
  }
  LogFile(const LogFile&) = delete;
  LogFile& operator=(const LogFile&) = delete;

  const std::string& path;
  std::FILE* file = nullptr;
  uint64_t size = 0;     // the file's size when opened
  uint64_t offset = 0;   // of the next unread byte
  char* line = nullptr;  // getline(3)'s buffer
  std::size_t capacity = 0;
};

Status ReadError(const LogFile& log, const char* why) {
  return Status::Internal("delta log: cannot read " + log.path + ": " + why);
}

// Reads one framing line into `line`, without its '\n': false for a
// line the end of the file cuts off.
StatusOr<bool> ReadLine(LogFile& log, std::string* line) {
  const ssize_t n = ::getline(&log.line, &log.capacity, log.file);
  if (std::ferror(log.file)) return ReadError(log, std::strerror(errno));
  if (n <= 0 || log.line[n - 1] != '\n') return false;
  log.offset += static_cast<uint64_t>(n);
  line->assign(log.line, static_cast<std::size_t>(n) - 1);
  return true;
}

// Reads `n` payload bytes into `out`, advancing their own FNV-1a and
// the seal's chunk by chunk, while each chunk is still in cache.
Status ReadPayload(LogFile& log, char* out, uint64_t n, uint64_t* own_hash,
                   uint64_t* payload_hash) {
  constexpr uint64_t kChunk = uint64_t{1} << 16;
  while (n > 0) {
    const std::size_t want = std::min(n, kChunk);
    if (std::fread(out, 1, want, log.file) != want) {
      return ReadError(log, std::feof(log.file) ? "unexpected end of file"
                                                : std::strerror(errno));
    }
    HashPayload(std::string_view(out, want), own_hash, payload_hash);
    log.offset += want;
    out += want;
    n -= want;
  }
  return Status::Ok();
}

// Whether a segment header starts anywhere after the first byte of the
// segment at `start`. Only a segment that fails to parse asks, so the
// scan never runs on a sound log.
StatusOr<bool> HeaderFollows(LogFile& log, uint64_t start) {
  const std::string needle = std::string("\n") + kDeltaMagic + " ";
  if (::fseeko(log.file, static_cast<off_t>(start), SEEK_SET) != 0) {
    return ReadError(log, std::strerror(errno));
  }
  std::string window;
  std::string chunk(1 << 16, '\0');
  for (;;) {
    const std::size_t got =
        std::fread(chunk.data(), 1, chunk.size(), log.file);
    if (got == 0) {
      if (std::ferror(log.file)) return ReadError(log, std::strerror(errno));
      return false;
    }
    window.append(chunk, 0, got);
    if (window.find(needle) != std::string::npos) return true;
    const std::size_t keep = std::min(window.size(), needle.size() - 1);
    window.erase(0, window.size() - keep);
  }
}

// Reads the segment at the read position into `*segment`: true once it
// has verified, false when it is the log's torn tail.
StatusOr<bool> ReadSegment(LogFile& log, DeltaSegment* segment) {
  const uint64_t start = log.offset;
  // A framing line that does not parse. A crash can tear the log at any
  // byte, a line boundary included, so this is the torn tail when no
  // later segment header follows; before one, it is corruption.
  auto malformed = [&](const std::string& message) -> StatusOr<bool> {
    auto follows = HeaderFollows(log, start);
    if (!follows.ok() || !*follows) return follows;
    return Status::InvalidArgument(message);
  };
  std::string line;
  // --- header line
  auto read = ReadLine(log, &line);
  if (!read.ok() || !*read) return read;
  std::istringstream head(line);
  std::string magic;
  int version = 0;
  std::size_t nsections = 0, payload_bytes = 0;
  if (!(head >> magic >> version >> segment->kind >> segment->base >>
        segment->batch >> nsections >> payload_bytes) ||
      magic != kDeltaMagic) {
    return malformed("delta log: bad segment header in " + log.path);
  }
  if (version != kDeltaFormatVersion) {
    return Status::InvalidArgument("delta log: unsupported version " +
                                   std::to_string(version));
  }
  if (nsections > kMaxDeltaSections) {
    return Status::InvalidArgument(
        "delta log: segment section count out of range");
  }
  std::string header_lines = line + '\n';
  // --- section table
  struct TableEntry {
    std::string name;
    std::size_t len;
    uint64_t hash;
  };
  std::vector<TableEntry> table;
  for (std::size_t i = 0; i < nsections; ++i) {
    read = ReadLine(log, &line);
    if (!read.ok() || !*read) return read;
    std::istringstream in(line);
    std::string tag;
    TableEntry entry;
    if (!(in >> tag >> entry.name >> entry.len >> entry.hash) ||
        tag != "S") {
      return malformed("delta log: bad section table line in " + log.path);
    }
    header_lines += line + '\n';
    table.push_back(std::move(entry));
  }
  // --- header checksum line
  read = ReadLine(log, &line);
  if (!read.ok() || !*read) return read;
  {
    std::istringstream in(line);
    std::string tag;
    uint64_t hash = 0;
    if (!(in >> tag >> hash) || tag != "H") {
      return malformed("delta log: missing header checksum in " + log.path);
    }
    if (hash != Fnv1a64(header_lines)) {
      return Status::InvalidArgument(
          "delta log: header checksum mismatch in " + log.path);
    }
  }
  // --- payload, read straight into the sections
  if (log.offset > log.size || log.size - log.offset < payload_bytes) {
    return false;
  }
  uint64_t payload_hash = kFnv64OffsetBasis;
  std::size_t left = payload_bytes;
  // A section table the payload contradicts is corruption of a fully
  // present segment, reported once the seal has verified.
  Status table_error;
  for (const TableEntry& entry : table) {
    // Bounded by the payload bytes still unread, never by a sum of
    // the claimed lengths, which can wrap around.
    if (entry.len > left) {
      table_error = Status::InvalidArgument(
          "delta log: section '" + entry.name + "' overruns the payload in " +
          log.path);
      break;
    }
    Section& section = segment->sections.emplace_back();
    section.name = entry.name;
    section.bytes.resize(entry.len);
    uint64_t hash = kFnv64OffsetBasis;
    Status st = ReadPayload(log, section.bytes.data(), entry.len, &hash,
                            &payload_hash);
    if (!st.ok()) return st;
    left -= entry.len;
    if (hash != entry.hash) {
      table_error = Status::InvalidArgument(
          "delta log: section '" + entry.name + "' checksum mismatch");
      break;
    }
  }
  if (table_error.ok() && left != 0) {
    table_error = Status::InvalidArgument(
        "delta log: section table disagrees with payload size in " +
        log.path);
  }
  // Payload bytes no section claims (only in a corrupt segment) still
  // count toward the seal.
  std::string unclaimed(left, '\0');
  uint64_t unclaimed_hash = kFnv64OffsetBasis;
  Status st = ReadPayload(log, unclaimed.data(), left, &unclaimed_hash,
                          &payload_hash);
  if (!st.ok()) return st;
  // --- seal
  read = ReadLine(log, &line);
  if (!read.ok() || !*read) return read;
  {
    std::istringstream in(line);
    std::string tag;
    uint64_t hash = 0;
    if (!(in >> tag >> hash) || tag != "Z") {
      return malformed("delta log: missing seal in " + log.path);
    }
    if (hash != payload_hash) {
      return Status::InvalidArgument(
          "delta log: payload checksum mismatch in " + log.path);
    }
  }
  if (!table_error.ok()) return table_error;
  return true;
}

}  // namespace

Status ForEachDeltaSegment(const std::string& path,
                           const std::function<Status(DeltaSegment&)>& fn,
                           uint64_t* torn_tail_bytes) {
  *torn_tail_bytes = 0;
  LogFile log(path);
  log.file = std::fopen(path.c_str(), "rb");
  if (log.file == nullptr) {
    if (errno == ENOENT) return Status::Ok();  // a missing log is empty
    return ReadError(log, std::strerror(errno));
  }
  struct stat st;
  if (::fstat(::fileno(log.file), &st) != 0) {
    return ReadError(log, std::strerror(errno));
  }
  // Only a regular file is read: what a directory reports as its size,
  // and whether reading it fails, varies by filesystem.
  if (!S_ISREG(st.st_mode)) return ReadError(log, "not a regular file");
  log.size = static_cast<uint64_t>(st.st_size);
  while (log.offset < log.size) {
    const uint64_t start = log.offset;
    // Scoped to one pass, so the segment `fn` had is freed before the
    // next is read.
    DeltaSegment segment;
    auto sealed = ReadSegment(log, &segment);
    if (!sealed.ok()) return sealed.status();
    if (!*sealed) {
      *torn_tail_bytes = log.size - start;
      break;
    }
    Status handled = fn(segment);
    if (!handled.ok()) return handled;
  }
  return Status::Ok();
}

StatusOr<DeltaLogContents> ReadDeltaLog(const std::string& path) {
  DeltaLogContents contents;
  Status st = ForEachDeltaSegment(
      path,
      [&](DeltaSegment& segment) {
        contents.segments.push_back(std::move(segment));
        return Status::Ok();
      },
      &contents.torn_tail_bytes);
  if (!st.ok()) return st;
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
