// webevo_checkpoint — offline inspection of SaveCrawler checkpoint
// containers and their incremental delta logs (docs/STORAGE.md).
//
// `inspect` never reconstructs a crawler: it parses and verifies the
// container framing only (header trailer, per-section length + FNV-64),
// so it works on any checkpoint regardless of the shape flags the run
// was produced with, and is the first tool to reach for when a resume
// refuses a file.
//
// Examples:
//   webevo_checkpoint inspect run.ckpt
//   webevo_checkpoint inspect run.ckpt --sections
//   webevo_checkpoint inspect run.ckpt --deltas=elsewhere.deltas

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "crawler/snapshot.h"
#include "storage/delta_log.h"
#include "util/flags.h"
#include "util/hash.h"
#include "util/status.h"

namespace {

using namespace webevo;

// Printed verbatim by --help; CI diffs it against
// docs/webevo_checkpoint_help.txt, so any edit here must regenerate
// that file (cmake --build build --target webevo_checkpoint &&
// ./build/webevo_checkpoint --help > docs/webevo_checkpoint_help.txt).
constexpr const char* kUsage =
    R"(usage: webevo_checkpoint inspect <checkpoint> [flags]

Verifies and prints a SaveCrawler checkpoint container without
reconstructing the crawler: the header trailer, then every section
against its table length and FNV-64 checksum. Each table row shows the
section's name, byte length, checksum, and the magic + format version
from the section's own header line.

When an incremental delta log exists next to the checkpoint (the
<checkpoint>.deltas write-ahead log of CheckpointIncremental), the
base/delta chain is printed too: one row per sealed segment with its
kind, batch counter, section count and payload bytes. A segment that
names another base image (a log left by an earlier run, or by a crash
mid-rebase) is marked stale: resume skips it. A torn (unsealed) tail —
the crash-between-append-and-seal case that resume ignores — is
reported, not an error.

flags:
  --deltas=<path>     delta log to chain-inspect
                      (default: <checkpoint>.deltas, when it exists)
  --sections          also print each delta segment's section table
  --help              this text

exit status: 0 on a fully verified container (a torn delta tail is
still 0), 1 on corruption or I/O failure, 2 on usage errors.
)";

struct SectionRow {
  std::string name;
  std::size_t bytes = 0;
  uint64_t fnv = 0;
  std::string magic;
  std::string version;
};

// One row per section. The magic and version are the first two
// tokens of the section's first line — every webevo snapshot stream
// opens with `<magic> <version> ...`.
std::vector<SectionRow> Rows(const std::vector<storage::Section>& sections) {
  std::vector<SectionRow> rows;
  for (const storage::Section& s : sections) {
    SectionRow row;
    row.name = s.name;
    row.bytes = s.bytes.size();
    row.fnv = Fnv1a64(s.bytes);
    std::istringstream ls(s.bytes.substr(0, s.bytes.find('\n')));
    if (!(ls >> row.magic >> row.version)) {
      row.magic = "?";
      row.version = "?";
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void PrintSectionTable(const std::vector<SectionRow>& rows,
                       const char* indent) {
  std::size_t name_w = 7;
  std::size_t magic_w = 5;
  for (const SectionRow& r : rows) {
    if (r.name.size() > name_w) name_w = r.name.size();
    if (r.magic.size() > magic_w) magic_w = r.magic.size();
  }
  std::printf("%s%-*s %10s %20s  %-*s %s\n", indent,
              static_cast<int>(name_w), "section", "bytes", "fnv64",
              static_cast<int>(magic_w), "magic", "ver");
  for (const SectionRow& r : rows) {
    std::printf("%s%-*s %10zu %20llu  %-*s %s\n", indent,
                static_cast<int>(name_w), r.name.c_str(), r.bytes,
                static_cast<unsigned long long>(r.fnv),
                static_cast<int>(magic_w), r.magic.c_str(),
                r.version.c_str());
  }
}

// Verifies the container with the library's own reader, which keeps
// the sections as opaque bytes instead of restoring a crawler from
// them, prints its section table and returns its id.
StatusOr<uint64_t> InspectContainer(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  auto container = crawler::ReadCheckpointContainer(in);
  if (!container.ok()) return container.status();
  std::printf("%s: kind=%s format=v%d sections=%zu  [verified]\n",
              path.c_str(), container->kind.c_str(),
              crawler::kCrawlerFormatVersion, container->sections.size());
  PrintSectionTable(Rows(container->sections), "  ");
  return container->id;
}

// One sealed segment's row of the chain table.
struct SegmentRow {
  std::string kind;
  uint64_t batch = 0;
  std::size_t sections = 0;
  std::size_t payload = 0;
  bool stale = false;
  std::vector<SectionRow> section_rows;  // with --sections
};

Status InspectDeltaChain(const std::string& base_path, uint64_t base_id,
                         const std::string& deltas_path,
                         bool show_sections) {
  // The log streams one segment at a time. The chain line counts the
  // segments before their rows, so the rows, which are small, wait
  // until the whole log has verified.
  std::vector<SegmentRow> rows;
  uint64_t torn_tail_bytes = 0;
  Status st = storage::ForEachDeltaSegment(
      deltas_path,
      [&](storage::DeltaSegment& segment) {
        SegmentRow& row = rows.emplace_back();
        row.kind = segment.kind;
        row.batch = segment.batch;
        row.sections = segment.sections.size();
        for (const storage::Section& s : segment.sections) {
          row.payload += s.bytes.size();
        }
        row.stale = segment.base != base_id;
        if (show_sections) row.section_rows = Rows(segment.sections);
        return Status::Ok();
      },
      &torn_tail_bytes);
  if (!st.ok()) return st;
  if (rows.empty() && torn_tail_bytes == 0) {
    std::printf("\n%s: empty delta log\n", deltas_path.c_str());
    return Status::Ok();
  }
  std::printf("\nchain: base %s + %zu sealed segment%s (%s)\n",
              base_path.c_str(), rows.size(), rows.size() == 1 ? "" : "s",
              deltas_path.c_str());
  std::size_t index = 0;
  for (const SegmentRow& row : rows) {
    std::printf(
        "  segment %zu: kind=%s batch=%llu sections=%zu payload=%zuB%s\n",
        index++, row.kind.c_str(),
        static_cast<unsigned long long>(row.batch), row.sections,
        row.payload, row.stale ? "  [stale: extends another base]" : "");
    if (show_sections) PrintSectionTable(row.section_rows, "    ");
  }
  if (torn_tail_bytes > 0) {
    std::printf(
        "  torn tail: %llu unsealed byte%s after the last seal "
        "(ignored on resume)\n",
        static_cast<unsigned long long>(torn_tail_bytes),
        torn_tail_bytes == 1 ? "" : "s");
  }
  return Status::Ok();
}

bool FileExists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return static_cast<bool>(in);
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.GetBool("help", false)) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  Status valid = flags.Validate({"help", "deltas", "sections"});
  if (!valid.ok()) {
    std::fprintf(stderr, "error: %s\n%s", valid.ToString().c_str(),
                 kUsage);
    return 2;
  }
  const std::vector<std::string>& args = flags.positional();
  if (args.size() != 2 || args[0] != "inspect") {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const std::string& path = args[1];

  auto id = InspectContainer(path);
  if (!id.ok()) {
    std::fprintf(stderr, "error: %s\n", id.status().ToString().c_str());
    return 1;
  }

  const std::string deltas =
      flags.GetString("deltas", path + ".deltas");
  if (flags.Has("deltas") || FileExists(deltas)) {
    Status st = InspectDeltaChain(path, *id, deltas,
                                  flags.GetBool("sections", false));
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
