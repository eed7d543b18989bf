// A seeded mutation suite over every checkpoint section reader.
//
// Three inputs are taken from real crawls: a full image of the
// incremental crawler (faults, a spider-trap web, the defense layer
// and the traffic section), a full image of the shadowing periodic
// crawler, and an incremental base with a two-segment delta log. Each
// mutant changes one section of one input in one small way, then
// re-frames it: the section's trailer is recomputed, and so is the
// container's section table, or the delta segment is re-encoded with
// EncodeDeltaSegment. The reader therefore sees the change itself, not
// a checksum mismatch.
//
// The pass rule: every mutant either fails with InvalidArgument, or
// loads a crawler whose re-saved checkpoint loads back to the same
// bytes. An exception fails the suite here; a hang trips the ctest
// timeout, and a memory error the sanitizer build. The seed and the
// mutant budget are fixed, so every run draws the same mutants, and
// the hash over all their verdicts is pinned: a change to what a
// reader accepts moves it.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <ios>
#include <functional>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "crawler/incremental_crawler.h"
#include "crawler/periodic_crawler.h"
#include "crawler/snapshot.h"
#include "simweb/simulated_web.h"
#include "simweb/web_config.h"
#include "storage/delta_log.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/record_line.h"
#include "util/text_snapshot.h"

namespace webevo::crawler {
namespace {

constexpr uint64_t kSeed = 20261017;
constexpr int kMutantsPerInput = 100;
// FNV-1a over every mutant's description and verdict (status code,
// and the re-saved checkpoint's hash when the load succeeded): first
// over the two full-image inputs, then on over the delta log too. The
// image pin keeps a change of the delta format from hiding a change in
// what the image readers accept.
constexpr uint64_t kImageVerdictHash = 0xa32ec805fdd6da89ULL;
constexpr uint64_t kVerdictHash = 0x3c498f2bf7ee5a7dULL;
// The same over the delta log's own framing mutants: the reader's
// verdict (status, message, segments read, torn tail) and the load's.
constexpr int kFramingMutants = 60;
constexpr uint64_t kFramingVerdictHash = 0x9b24367b13969262ULL;

simweb::WebConfig HostileWeb() {
  simweb::WebConfig config = simweb::WebConfig().Scaled(0.02);
  config.seed = 20261017;
  config.min_site_size = 8;
  config.max_site_size = 24;
  EXPECT_TRUE(simweb::ApplyFaultScenario("transient10", &config).ok());
  EXPECT_TRUE(simweb::ApplyAdversarialScenario("spider-trap", &config).ok());
  return config;
}

IncrementalCrawlerConfig IncConfig() {
  IncrementalCrawlerConfig config;
  config.collection_capacity = 80;
  config.crawl_rate_pages_per_day = 60.0;
  config.crawl_parallelism = 2;
  config.crawl.per_site_delay_days = 1e-3;
  config.crawl.enforce_politeness = true;
  config.defense_enabled = true;
  config.checkpoint_incremental = true;
  return config;
}

PeriodicCrawlerConfig PerConfig() {
  PeriodicCrawlerConfig config;
  config.collection_capacity = 60;
  config.cycle_days = 4.0;
  config.crawl_window_days = 2.0;
  config.crawl_parallelism = 2;
  config.shadowing = true;
  return config;
}

CrawlerCheckpointOptions Options() {
  CrawlerCheckpointOptions options;
  options.module_traffic = true;
  return options;
}

template <typename Crawler>
std::string Save(const Crawler& crawler) {
  std::ostringstream out;
  Status st = SaveCrawler(crawler, out, Options());
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out.str();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/reader_mutation_" + name;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ------------------------------------------------------------ framing

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(sep, start);
    if (end == std::string::npos) end = text.size();
    parts.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

std::string Join(const std::vector<std::string>& parts, char sep) {
  std::string text;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) text += sep;
    text += parts[i];
  }
  return text;
}

// A section's payload lines: everything before its trailer line.
std::vector<std::string> PayloadLines(const std::string& section) {
  std::vector<std::string> lines = Split(section, '\n');
  while (!lines.empty() &&
         lines.back().rfind(kSnapshotTrailerMagic, 0) != 0) {
    lines.pop_back();
  }
  if (!lines.empty()) lines.pop_back();  // the trailer itself
  return lines;
}

// Frames payload lines the way every writer does, with a fresh trailer.
std::string Frame(const std::vector<std::string>& lines) {
  std::ostringstream out;
  TrailerWriter writer(out);
  for (const std::string& line : lines) writer.Line(line);
  writer.Finish();
  return out.str();
}

struct NamedSection {
  std::string name;
  std::string bytes;
};

struct Container {
  std::string kind;
  std::vector<NamedSection> sections;
};

// Splits a SaveCrawler container into its sections. The test keeps its
// own framing code so the same suite also builds against libraries
// that predate the library's container reader.
Container SplitContainer(const std::string& bytes) {
  Container c;
  std::istringstream in(bytes);
  std::string line, magic;
  int version = 0;
  std::size_t count = 0;
  std::getline(in, line);
  std::istringstream(line) >> magic >> version >> c.kind >> count;
  std::vector<std::pair<std::string, std::size_t>> table;
  for (std::size_t i = 0; i < count; ++i) {
    std::getline(in, line);
    std::string tag, name;
    std::size_t length = 0;
    std::istringstream(line) >> tag >> name >> length;
    table.emplace_back(name, length);
  }
  std::getline(in, line);  // the header's trailer
  for (const auto& [name, length] : table) {
    std::string section(length, '\0');
    in.read(section.data(), static_cast<std::streamsize>(length));
    c.sections.push_back(NamedSection{name, section});
  }
  return c;
}

std::string JoinContainer(const Container& c) {
  std::ostringstream out;
  TrailerWriter writer(out);
  RecordLine line;
  writer.Line(line.Start("webevo-crawler", 1, c.kind, c.sections.size()));
  for (const NamedSection& s : c.sections) {
    writer.Line(line.Start("S", s.name, s.bytes.size(), Fnv1a64(s.bytes)));
  }
  writer.Finish();
  for (const NamedSection& s : c.sections) out << s.bytes;
  return out.str();
}

// ------------------------------------------------------------ mutants

// Replacement values for one field: below zero, the largest 64-bit
// value, a count no allocation survives, the largest double, the two
// values text never round-trips, and an explicit plus sign.
const char* const kFieldValues[] = {
    "-1",  "18446744073709551615", "4611686018427387904", "1e308",
    "inf", "nan",                  "+1"};

bool IsInteger(const std::string& token) {
  if (token.empty()) return false;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

// Mutates one payload line list in place and returns what it did.
std::string Mutate(std::vector<std::string>* lines, Rng& rng) {
  std::vector<std::string>& l = *lines;
  const std::size_t n = l.size();
  const std::size_t i = rng.NextBounded(n);
  const std::size_t k = rng.NextBounded(n);
  const std::string at = " line " + std::to_string(i);
  switch (rng.NextBounded(9)) {
    case 0: {
      if (l[i].empty()) break;
      const std::size_t pos = rng.NextBounded(l[i].size());
      const int bit = static_cast<int>(rng.NextBounded(8));
      l[i][pos] = static_cast<char>(l[i][pos] ^ (1 << bit));
      return "bit flip" + at + " byte " + std::to_string(pos) + " bit " +
             std::to_string(bit);
    }
    case 1:
      l.erase(l.begin() + static_cast<std::ptrdiff_t>(i));
      return "drop" + at;
    case 2:
      l.insert(l.begin() + static_cast<std::ptrdiff_t>(i), l[i]);
      return "duplicate" + at;
    case 3:
      if (i == k) break;
      std::swap(l[i], l[k]);
      return "swap" + at + " and line " + std::to_string(k);
    case 4: {
      if (l[i].empty()) break;
      const std::size_t keep = rng.NextBounded(l[i].size());
      l[i].resize(keep);
      return "truncate" + at + " to " + std::to_string(keep) + " bytes";
    }
    case 5: {
      std::vector<std::string> to = Split(l[i], ' ');
      const std::vector<std::string> from = Split(l[k], ' ');
      const std::size_t t = rng.NextBounded(to.size());
      to[t] = from[rng.NextBounded(from.size())];
      l[i] = Join(to, ' ');
      return "token " + std::to_string(t) + at + " from line " +
             std::to_string(k);
    }
    case 6: {
      const std::vector<std::string> from = Split(l[k], ' ');
      l[i] += " " + from[rng.NextBounded(from.size())];
      return "extra token" + at;
    }
    case 7: {
      // A header count one off: a random integer field after the version.
      std::vector<std::string> header = Split(l[0], ' ');
      std::vector<std::size_t> counts;
      for (std::size_t t = 2; t < header.size(); ++t) {
        if (IsInteger(header[t])) counts.push_back(t);
      }
      if (counts.empty()) break;
      const std::size_t t = counts[rng.NextBounded(counts.size())];
      const uint64_t v = std::stoull(header[t]);
      const bool down = v > 0 && rng.NextBounded(2) == 0;
      header[t] = std::to_string(down ? v - 1 : v + 1);
      l[0] = Join(header, ' ');
      return std::string("header field ") + std::to_string(t) +
             (down ? " -1" : " +1");
    }
    default: {
      std::vector<std::string> tokens = Split(l[i], ' ');
      if (tokens.size() < 2) break;
      const std::size_t t = 1 + rng.NextBounded(tokens.size() - 1);
      const char* value =
          kFieldValues[rng.NextBounded(std::size(kFieldValues))];
      tokens[t] = value;
      l[i] = Join(tokens, ' ');
      return "field " + std::to_string(t) + at + " = " + value;
    }
  }
  // The drawn mutation did not apply to this line; duplicate instead.
  l.insert(l.begin() + static_cast<std::ptrdiff_t>(i), l[i]);
  return "duplicate" + at;
}

// ------------------------------------------------------------ verdicts

// What loading one mutant did: the status code, and for a load that
// succeeded the hash of the re-saved checkpoint.
struct Verdict {
  StatusCode code = StatusCode::kOk;
  uint64_t resaved = 0;
  bool round_trips = true;
};

template <typename Crawler, typename Config, typename LoadFn>
Verdict Judge(const simweb::WebConfig& wc, const Config& config,
              LoadFn load) {
  Verdict v;
  simweb::SimulatedWeb web(wc);
  Crawler crawler(&web, config);
  Status st = load(&crawler);
  v.code = st.code();
  if (!st.ok()) return v;
  const std::string first = Save(crawler);
  v.resaved = Fnv1a64(first);
  simweb::SimulatedWeb web2(wc);
  Crawler again(&web2, config);
  std::istringstream in(first);
  Status reloaded = LoadCrawler(in, &again);
  v.round_trips = reloaded.ok() && Save(again) == first;
  return v;
}

// Runs the budget of mutants over one input and checks the pass rule;
// `judge(section, bytes)` loads the input with section `section`
// replaced by `bytes`. Every verdict is folded into `*hash`.
void RunMutants(
    const std::string& input, const std::vector<NamedSection>& sections,
    const std::function<Verdict(std::size_t, const std::string&)>& judge,
    Rng& rng, uint64_t* hash) {
  for (int m = 0; m < kMutantsPerInput; ++m) {
    const std::size_t s = rng.NextBounded(sections.size());
    std::vector<std::string> lines = PayloadLines(sections[s].bytes);
    const std::string what = input + " mutant " + std::to_string(m) +
                             ": section " + sections[s].name + ", " +
                             Mutate(&lines, rng);
    Verdict v;
    try {
      v = judge(s, Frame(lines));
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": exception " << e.what();
      continue;
    }
    if (v.code != StatusCode::kOk) {
      EXPECT_EQ(v.code, StatusCode::kInvalidArgument) << what;
    } else {
      EXPECT_TRUE(v.round_trips) << what << ": re-save does not round-trip";
    }
    const std::string line = what + " -> " +
                             std::to_string(static_cast<int>(v.code)) + " " +
                             std::to_string(v.resaved) + "\n";
    *hash = Fnv1a64Seeded(line, *hash);
  }
}

// Runs the mutants over a full image of `Crawler` crawled to `days`.
template <typename Crawler, typename Config>
void MutateImage(const std::string& input, const simweb::WebConfig& wc,
                 const Config& config, double days, Rng& rng,
                 uint64_t* hash) {
  std::string image;
  {
    simweb::SimulatedWeb web(wc);
    Crawler crawler(&web, config);
    ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
    ASSERT_TRUE(crawler.RunUntil(days).ok());
    image = Save(crawler);
  }
  const Container base = SplitContainer(image);
  ASSERT_EQ(JoinContainer(base), image);
  RunMutants(
      input, base.sections,
      [&](std::size_t s, const std::string& bytes) {
        Container c = base;
        c.sections[s].bytes = bytes;
        const std::string mutant = JoinContainer(c);
        return Judge<Crawler>(wc, config, [&](Crawler* crawler) {
          std::istringstream in(mutant);
          return LoadCrawler(in, crawler);
        });
      },
      rng, hash);
}

TEST(ReaderMutationTest, EverySectionReaderRejectsOrRoundTrips) {
  Rng rng(kSeed);
  uint64_t hash = Fnv1a64("");

  const simweb::WebConfig wc = HostileWeb();
  MutateImage<IncrementalCrawler>("incremental", wc, IncConfig(), 6.0, rng,
                                  &hash);
  // The periodic image carries a shadow collection.
  MutateImage<PeriodicCrawler>("periodic", wc, PerConfig(), 5.0, rng, &hash);
  EXPECT_EQ(hash, kImageVerdictHash)
      << "image verdict hash 0x" << std::hex << hash
      << ": what some image reader accepts has changed";

  // A base with a two-segment delta log; the mutants change one
  // section of one segment.
  {
    const std::string path = TempPath("base.ckpt");
    {
      simweb::SimulatedWeb web(wc);
      IncrementalCrawler crawler(&web, IncConfig());
      ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
      for (double day : {3.0, 4.0, 5.0}) {
        ASSERT_TRUE(crawler.RunUntil(day).ok());
        ASSERT_TRUE(CheckpointIncremental(&crawler, path, Options()).ok());
      }
    }
    auto log = storage::ReadDeltaLog(path + ".deltas");
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ASSERT_EQ(log->segments.size(), std::size_t{2});
    std::vector<NamedSection> sections;
    std::vector<std::pair<std::size_t, std::size_t>> where;
    for (std::size_t g = 0; g < log->segments.size(); ++g) {
      for (std::size_t s = 0; s < log->segments[g].sections.size(); ++s) {
        const storage::Section& d = log->segments[g].sections[s];
        sections.push_back(
            NamedSection{d.name + "@" + std::to_string(g), d.bytes});
        where.emplace_back(g, s);
      }
    }
    RunMutants(
        "deltas", sections,
        [&](std::size_t s, const std::string& bytes) {
          std::vector<storage::DeltaSegment> segments = log->segments;
          segments[where[s].first].sections[where[s].second].bytes = bytes;
          std::string encoded;
          for (const storage::DeltaSegment& g : segments) {
            encoded += storage::EncodeDeltaSegment(g);
          }
          WriteFile(path + ".deltas", encoded);
          return Judge<IncrementalCrawler>(
              wc, IncConfig(), [&](IncrementalCrawler* crawler) {
                return LoadCrawlerWithDeltasFromFile(path, crawler);
              });
        },
        rng, &hash);
    std::remove(path.c_str());
    std::remove((path + ".deltas").c_str());
  }
  EXPECT_EQ(hash, kVerdictHash)
      << "verdict hash 0x" << std::hex << hash
      << ": what some reader accepts has changed";
}

// ------------------------------------------------------ delta framing

// One delta segment's framing lines in file order (the header, the `S`
// lines, `H` and `Z`), without their '\n', and its payload, which the
// writer puts just before the `Z` seal.
struct Framing {
  std::vector<std::string> lines;
  std::size_t payload_at = 0;  // the payload precedes lines[payload_at]
  std::string payload;
};

Framing Unframe(const std::string& encoded) {
  Framing f;
  std::size_t pos = 0;
  auto next_line = [&] {
    const std::size_t eol = encoded.find('\n', pos);
    f.lines.push_back(encoded.substr(pos, eol - pos));
    pos = eol + 1;
  };
  next_line();
  const std::vector<std::string> header = Split(f.lines[0], ' ');
  const std::size_t nsections = std::stoull(header[5]);
  for (std::size_t i = 0; i <= nsections; ++i) next_line();  // S..., H
  f.payload = encoded.substr(pos, std::stoull(header[6]));
  pos += f.payload.size();
  f.payload_at = f.lines.size();
  next_line();  // Z
  return f;
}

std::string Reframe(const Framing& f) {
  std::string out;
  for (std::size_t i = 0; i < f.lines.size(); ++i) {
    if (i == f.payload_at) out += f.payload;
    out += f.lines[i] + '\n';
  }
  if (f.payload_at >= f.lines.size()) out += f.payload;
  return out;
}

// Recomputes the checksums a writer would: each `H` line over the
// framing lines before it, each `Z` line over the payload.
void Reseal(Framing* f) {
  std::string covered;
  for (std::string& line : f->lines) {
    if (line.rfind("H ", 0) == 0) {
      line = "H " + std::to_string(Fnv1a64(covered));
    } else if (line.rfind("Z ", 0) == 0) {
      line = "Z " + std::to_string(Fnv1a64(f->payload));
    }
    covered += line + '\n';
  }
}

// Moves a numeric token by one (down only from above zero), or flips
// one bit of a text token, and returns what it did.
std::string Bump(std::string* token, Rng& rng) {
  if (IsInteger(*token)) {
    const uint64_t v = std::stoull(*token);
    const bool down = v > 0 && rng.NextBounded(2) == 0;
    *token = std::to_string(down ? v - 1 : v + 1);
    return down ? " -1" : " +1";
  }
  const std::size_t pos = rng.NextBounded(token->size());
  const int bit = static_cast<int>(rng.NextBounded(8));
  (*token)[pos] = static_cast<char>((*token)[pos] ^ (1 << bit));
  return " byte " + std::to_string(pos) + " bit " + std::to_string(bit);
}

// Mutates one framing line of a segment and returns what it did.
// `*reseal` is cleared for the `H` and `Z` checksum mutants, which a
// re-seal would undo.
std::string MutateFraming(Framing* f, Rng& rng, bool* reseal) {
  std::vector<std::string>& l = f->lines;
  const std::size_t h = f->payload_at - 1;  // the H line
  auto bump_field = [&](std::size_t i, std::size_t t) {
    std::vector<std::string> tokens = Split(l[i], ' ');
    const std::string what = Bump(&tokens[t], rng);
    l[i] = Join(tokens, ' ');
    return " line " + std::to_string(i) + " field " + std::to_string(t) +
           what;
  };
  switch (rng.NextBounded(6)) {
    case 0:  // magic, version, kind, base, batch, nsections, payload_bytes
      return "header" + bump_field(0, rng.NextBounded(7));
    case 1:  // an S line's name, length or hash
      return "section" + bump_field(1 + rng.NextBounded(h - 1),
                                    1 + rng.NextBounded(3));
    case 2:
      *reseal = false;
      return "H" + bump_field(h, 1);
    case 3:
      *reseal = false;
      return "Z" + bump_field(f->payload_at, 1);
    case 4: {
      const std::size_t k = rng.NextBounded(l.size());
      l.erase(l.begin() + static_cast<std::ptrdiff_t>(k));
      if (k < f->payload_at) --f->payload_at;
      return "drop line " + std::to_string(k);
    }
    default: {
      const std::size_t k = rng.NextBounded(l.size());
      l.insert(l.begin() + static_cast<std::ptrdiff_t>(k), l[k]);
      if (k < f->payload_at) ++f->payload_at;
      return "duplicate line " + std::to_string(k);
    }
  }
}

// What the delta log reader makes of the log at `path`: its status
// code and message, and for a log it reads, the segment count, the torn
// tail and a hash over every segment's kind, base, batch and sections.
std::string ReadVerdict(const std::string& path, StatusCode* code) {
  auto log = storage::ReadDeltaLog(path);
  *code = log.status().code();
  std::string message = log.status().message();
  for (std::size_t at; (at = message.find(path)) != std::string::npos;) {
    message.replace(at, path.size(), "<log>");
  }
  std::string verdict =
      std::to_string(static_cast<int>(*code)) + " " + message;
  if (!log.ok()) return verdict;
  uint64_t hash = Fnv1a64("");
  for (const storage::DeltaSegment& g : log->segments) {
    hash = Fnv1a64Seeded(g.kind + " " + std::to_string(g.base) + " " +
                             std::to_string(g.batch) + "\n",
                         hash);
    for (const storage::Section& s : g.sections) {
      hash = Fnv1a64Seeded(s.name + "\n", hash);
      hash = Fnv1a64Seeded(s.bytes, hash);
    }
  }
  return verdict + " " + std::to_string(log->segments.size()) + " " +
         std::to_string(log->torn_tail_bytes) + " " + std::to_string(hash);
}

// The delta log's own framing under mutation: a base with a
// three-segment log whose header, `S`, `H` and `Z` lines are mutated,
// raw and re-sealed, then cut at every framing-line boundary and in the
// middle of every section, and rearranged whole. Every log must read
// and load to InvalidArgument or to a crawler that round-trips, and the
// hash over every verdict is pinned: it was captured against the
// whole-file reader the streaming reader replaced, so it holds each
// sealed-segment, torn-tail and corruption outcome and message fixed.
TEST(ReaderMutationTest, DeltaLogFramingRejectsOrRoundTrips) {
  const simweb::WebConfig wc = HostileWeb();
  const std::string path = TempPath("framing.ckpt");
  const std::string log_path = path + ".deltas";
  {
    simweb::SimulatedWeb web(wc);
    IncrementalCrawler crawler(&web, IncConfig());
    ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
    for (double day : {3.0, 4.0, 5.0, 6.0}) {
      ASSERT_TRUE(crawler.RunUntil(day).ok());
      ASSERT_TRUE(CheckpointIncremental(&crawler, path, Options()).ok());
    }
  }
  auto log = storage::ReadDeltaLog(log_path);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_EQ(log->segments.size(), std::size_t{3});
  std::vector<std::string> encoded;
  std::vector<Framing> framings;
  for (const storage::DeltaSegment& g : log->segments) {
    encoded.push_back(storage::EncodeDeltaSegment(g));
    framings.push_back(Unframe(encoded.back()));
    ASSERT_EQ(Reframe(framings.back()), encoded.back());
  }
  auto cat = [](const std::vector<std::string>& segments) {
    std::string bytes;
    for (const std::string& segment : segments) bytes += segment;
    return bytes;
  };
  // The log with segment g replaced by `segment`.
  auto log_with = [&](std::size_t g, const std::string& segment) {
    std::vector<std::string> segments = encoded;
    segments[g] = segment;
    return cat(segments);
  };

  uint64_t hash = Fnv1a64("");
  auto judge = [&](const std::string& what, const std::string& bytes) {
    WriteFile(log_path, bytes);
    StatusCode read_code = StatusCode::kOk;
    std::string read;
    Verdict v;
    try {
      read = ReadVerdict(log_path, &read_code);
      v = Judge<IncrementalCrawler>(
          wc, IncConfig(), [&](IncrementalCrawler* crawler) {
            return LoadCrawlerWithDeltasFromFile(path, crawler);
          });
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": exception " << e.what();
      return;
    }
    if (read_code != StatusCode::kOk) {
      EXPECT_EQ(read_code, StatusCode::kInvalidArgument) << what;
    }
    if (v.code != StatusCode::kOk) {
      EXPECT_EQ(v.code, StatusCode::kInvalidArgument) << what;
    } else {
      EXPECT_TRUE(v.round_trips) << what << ": re-save does not round-trip";
    }
    hash = Fnv1a64Seeded(what + " -> " + read + " | " +
                             std::to_string(static_cast<int>(v.code)) +
                             " " + std::to_string(v.resaved) + "\n",
                         hash);
  };

  Rng rng(kSeed);
  for (int m = 0; m < kFramingMutants; ++m) {
    const std::size_t g = rng.NextBounded(framings.size());
    Framing f = framings[g];
    bool reseal = true;
    const std::string what = "framing mutant " + std::to_string(m) +
                             ": segment " + std::to_string(g) + ", " +
                             MutateFraming(&f, rng, &reseal);
    judge(what + " raw", log_with(g, Reframe(f)));
    if (reseal) {
      Reseal(&f);
      judge(what + " re-sealed", log_with(g, Reframe(f)));
    }
  }

  const std::string whole = cat(encoded);
  std::set<std::size_t> cuts;
  std::size_t at = 0;
  for (std::size_t g = 0; g < framings.size(); ++g) {
    const Framing& f = framings[g];
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
      if (i == f.payload_at) {
        for (const storage::Section& s : log->segments[g].sections) {
          cuts.insert(at + s.bytes.size() / 2);
          at += s.bytes.size();
        }
      }
      cuts.insert(at);
      at += f.lines[i].size() + 1;
      cuts.insert(at);
    }
  }
  ASSERT_EQ(at, whole.size());
  cuts.erase(whole.size());
  for (std::size_t cut : cuts) {
    judge("cut at " + std::to_string(cut), whole.substr(0, cut));
  }

  for (std::size_t g = 0; g < encoded.size(); ++g) {
    judge("segment " + std::to_string(g) + " duplicated",
          log_with(g, encoded[g] + encoded[g]));
  }
  for (std::size_t g = 0; g + 1 < encoded.size(); ++g) {
    std::vector<std::string> swapped = encoded;
    std::swap(swapped[g], swapped[g + 1]);
    judge("segments " + std::to_string(g) + " and " +
              std::to_string(g + 1) + " swapped",
          cat(swapped));
  }
  // The checks the draws rarely reach, on each segment: the last
  // section claiming one byte past the payload, a payload byte no
  // section claims, and a section count past the cap.
  auto set_field = [](std::string* line, std::size_t t, uint64_t value) {
    std::vector<std::string> tokens = Split(*line, ' ');
    tokens[t] = std::to_string(value);
    *line = Join(tokens, ' ');
  };
  for (std::size_t g = 0; g < framings.size(); ++g) {
    const std::string at_g = " in segment " + std::to_string(g);
    Framing f = framings[g];
    std::string& last = f.lines[f.payload_at - 2];
    set_field(&last, 2, std::stoull(Split(last, ' ')[2]) + 1);
    Reseal(&f);
    judge("last section overruns" + at_g, log_with(g, Reframe(f)));
    f = framings[g];
    f.payload += '\n';
    set_field(&f.lines[0], 6, f.payload.size());
    Reseal(&f);
    judge("unclaimed payload byte" + at_g, log_with(g, Reframe(f)));
    f = framings[g];
    set_field(&f.lines[0], 5, storage::kMaxDeltaSections + 1);
    judge("section count past the cap" + at_g, log_with(g, Reframe(f)));
  }
  storage::DeltaSegment other = log->segments[0];
  ++other.base;
  judge("a segment of another base prepended",
        storage::EncodeDeltaSegment(other) + whole);

  std::remove(path.c_str());
  std::remove(log_path.c_str());
  EXPECT_EQ(hash, kFramingVerdictHash)
      << "framing verdict hash 0x" << std::hex << hash
      << ": what the delta log reader accepts has changed";
}

// Replaces section `name` of `image` with `lines`, re-framed.
std::string WithSection(const std::string& image, const std::string& name,
                        const std::vector<std::string>& lines) {
  Container c = SplitContainer(image);
  for (NamedSection& s : c.sections) {
    if (s.name == name) s.bytes = Frame(lines);
  }
  return JoinContainer(c);
}

std::vector<std::string> SectionLines(const std::string& image,
                                      const std::string& name) {
  for (const NamedSection& s : SplitContainer(image).sections) {
    if (s.name == name) return PayloadLines(s.bytes);
  }
  ADD_FAILURE() << "no section " << name;
  return {};
}

// A meta section missing any one record is a format error —
// InvalidArgument, as snapshot.h promises — on both crawlers, never the
// end-of-payload NotFound of the trailer reader underneath.
TEST(ReaderMutationTest, ShortMetaSectionIsInvalidArgument) {
  const simweb::WebConfig wc = HostileWeb();
  simweb::SimulatedWeb inc_web(wc);
  IncrementalCrawler inc(&inc_web, IncConfig());
  ASSERT_TRUE(inc.Bootstrap(0.0).ok());
  ASSERT_TRUE(inc.RunUntil(2.0).ok());
  simweb::SimulatedWeb per_web(wc);
  PeriodicCrawler per(&per_web, PerConfig());
  ASSERT_TRUE(per.Bootstrap(0.0).ok());
  ASSERT_TRUE(per.RunUntil(2.0).ok());
  const std::string images[2] = {Save(inc), Save(per)};
  for (int kind = 0; kind < 2; ++kind) {
    const std::vector<std::string> meta = SectionLines(images[kind], "meta");
    ASSERT_GE(meta.size(), std::size_t{4});
    for (std::size_t drop = 1; drop < meta.size(); ++drop) {
      std::vector<std::string> lines = meta;
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(drop));
      std::istringstream in(WithSection(images[kind], "meta", lines));
      simweb::SimulatedWeb web(wc);
      Status st;
      if (kind == 0) {
        IncrementalCrawler crawler(&web, IncConfig());
        st = LoadCrawler(in, &crawler);
      } else {
        PeriodicCrawler crawler(&web, PerConfig());
        st = LoadCrawler(in, &crawler);
      }
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
          << (kind == 0 ? "incremental" : "periodic") << " meta without "
          << meta[drop] << ": " << st.ToString();
    }
  }
}

// An AllUrls record's in-link count restores verbatim: a count of 2^62
// loads at once and re-saves to the same checkpoint.
TEST(ReaderMutationTest, HugeInLinkCountLoadsAndRoundTrips) {
  const simweb::WebConfig wc = HostileWeb();
  simweb::SimulatedWeb web(wc);
  IncrementalCrawler crawler(&web, IncConfig());
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(2.0).ok());
  const std::string image = Save(crawler);
  std::vector<std::string> lines = SectionLines(image, "allurls");
  ASSERT_GE(lines.size(), std::size_t{2});
  std::vector<std::string> record = Split(lines[1], ' ');
  ASSERT_EQ(record.size(), std::size_t{7});
  record[5] = "4611686018427387904";  // U site slot inc first_seen in_links
  lines[1] = Join(record, ' ');
  const std::string mutant = WithSection(image, "allurls", lines);

  simweb::SimulatedWeb restored_web(wc);
  IncrementalCrawler restored(&restored_web, IncConfig());
  std::istringstream in(mutant);
  Status st = LoadCrawler(in, &restored);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(Save(restored), mutant);
}

// The readers range-check only politeness sites, so a frontier record
// may name a site this web lacks (operator>> wraps -1 to 2^32 - 1).
// Such a checkpoint loads, and the resumed crawl fetches the URL like
// any other: the web answers NotFound and the crawler tombstones it,
// without sizing a per-site politeness table by its site.
TEST(ReaderMutationTest, FrontierSiteOutsideTheWebIsTombstoned) {
  const simweb::WebConfig wc = HostileWeb();
  simweb::SimulatedWeb web(wc);
  IncrementalCrawler crawler(&web, IncConfig());
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(3.0).ok());
  const std::string image = Save(crawler);
  for (const std::string site : {"-1", "4294967294"}) {
    SCOPED_TRACE(site);
    // The frontier's first entry becomes (site, 0, 0) at the front of
    // the queue, keeping its seq.
    std::vector<std::string> frontier = SectionLines(image, "frontier");
    ASSERT_GE(frontier.size(), std::size_t{2});
    std::vector<std::string> entry = Split(frontier[1], ' ');
    ASSERT_EQ(entry.size(), std::size_t{6});  // F site slot inc when seq
    entry[1] = site;
    entry[2] = "0";
    entry[3] = "0";
    entry[4] = "-1e+18";
    frontier[1] = Join(entry, ' ');
    // AllUrls learns the URL too, so its tombstone shows.
    std::vector<std::string> all_urls = SectionLines(image, "allurls");
    std::vector<std::string> header = Split(all_urls[0], ' ');
    header.back() = std::to_string(std::stoull(header.back()) + 1);
    all_urls[0] = Join(header, ' ');
    all_urls.push_back("U " + site + " 0 0 0 0 0");
    const std::string mutant = WithSection(
        WithSection(image, "frontier", frontier), "allurls", all_urls);

    simweb::SimulatedWeb resumed_web(wc);
    IncrementalCrawler resumed(&resumed_web, IncConfig());
    std::istringstream in(mutant);
    Status st = LoadCrawler(in, &resumed);
    ASSERT_TRUE(st.ok()) << st.ToString();
    st = resumed.RunUntil(4.0);
    ASSERT_TRUE(st.ok()) << st.ToString();
    const simweb::Url url{static_cast<uint32_t>(std::stoll(site)), 0, 0};
    const AllUrls::UrlInfo* info = resumed.all_urls().Find(url);
    ASSERT_NE(info, nullptr);
    EXPECT_TRUE(info->dead);
  }
}

}  // namespace
}  // namespace webevo::crawler
