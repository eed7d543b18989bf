#include "util/text_snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "util/hash.h"

namespace webevo {

void TrailerWriter::Line(std::string_view line) {
  hash_ = Fnv1a64Seeded(line, hash_);
  hash_ = Fnv1a64Seeded("\n", hash_);
  out_ << line << '\n';
}

void TrailerWriter::Finish() {
  out_ << kSnapshotTrailerMagic << ' ' << hash_ << '\n';
}

StatusOr<std::string> TrailerReader::Next() {
  std::string line;
  if (!std::getline(in_, line)) {
    return Status::InvalidArgument("snapshot truncated (no trailer)");
  }
  if (line.rfind(kSnapshotTrailerMagic, 0) == 0) {
    std::istringstream trailer(line);
    std::string magic;
    uint64_t stored = 0;
    trailer >> magic >> stored;
    if (trailer.fail() || stored != hash_) {
      return Status::InvalidArgument("snapshot integrity check failed");
    }
    done_ = true;
    return Status::NotFound("end of payload");
  }
  hash_ = Fnv1a64Seeded(line, hash_);
  hash_ = Fnv1a64Seeded("\n", hash_);
  return line;
}

bool RecordReader::NextLine(std::string_view record) {
  if (!ok()) return false;
  StatusOr<std::string> line = lines_.Next();
  if (!line.ok()) {
    // Past the trailer, a record the header promised is missing.
    status_ = lines_.done()
                  ? Status::InvalidArgument(std::string(what_) + ": missing " +
                                            std::string(record) + " record")
                  : line.status();
    return false;
  }
  line_.clear();
  line_.str(std::move(line).value());
  return true;
}

bool RecordReader::Malformed() {
  return Fail("malformed " + tag_ + " record");
}

bool RecordReader::End() {
  if (!ok()) return false;
  char c = 0;
  while (line_.get(c)) {
    if (c != ' ' && c != '\t' && c != '\r') {
      return Fail("trailing data in " + tag_ + " record");
    }
  }
  return true;
}

bool RecordReader::Fail(std::string_view why) {
  if (ok()) {
    status_ = Status::InvalidArgument(std::string(what_) + ": " +
                                      std::string(why));
  }
  return false;
}

Status RecordReader::Trailer() {
  if (!ok()) return status_;
  StatusOr<std::string> end = lines_.Next();
  if (end.ok()) {
    Fail("trailing data");
  } else if (!lines_.done()) {
    status_ = end.status();
  }
  return status_;
}

Status RecordReader::Finish() {
  Status st = Trailer();
  if (!st.ok()) return st;
  return ExpectStreamEnd(in_, what_);
}

Status ExpectStreamEnd(std::istream& in, const char* what) {
  char c = 0;
  while (in.get(c)) {
    if (c != ' ' && c != '\t' && c != '\r' && c != '\n') {
      return Status::InvalidArgument(
          std::string("trailing data after ") + what + " trailer");
    }
  }
  return Status::Ok();
}

Status AtomicWriteFile(const std::string& path,
                       const std::vector<std::string_view>& parts) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::NotFound("cannot open " + tmp + " for writing: " +
                            std::strerror(errno));
  }
  for (std::string_view bytes : parts) {
    std::size_t written = 0;
    while (written < bytes.size()) {
      ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        return Status::Internal("write failed: " + tmp + ": " +
                                std::strerror(errno));
      }
      written += static_cast<std::size_t>(n);
    }
  }
  // Data must be durable before the rename publishes it; otherwise a
  // crash could leave a fully renamed but empty checkpoint.
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::Internal("fsync failed: " + tmp);
  }
  if (::close(fd) != 0) {
    return Status::Internal("close failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("rename failed: " + path + ": " +
                            std::strerror(errno));
  }
  // Make the rename itself durable.
  std::string dir = path;
  std::size_t slash = dir.find_last_of('/');
  dir = slash == std::string::npos ? "." : dir.substr(0, slash);
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);  // best effort; some filesystems refuse dir fsync
    ::close(dfd);
  }
  return Status::Ok();
}

}  // namespace webevo
