// Storage-layer tests: the PageFile slotted-page scratch store, the
// sealed write-ahead delta log, and the map-vs-paged RecordStore
// property suite — identical operation streams through both backends
// must produce bit-identical canonical walks and checkpoint bytes at
// every shard count.

#include <cfloat>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crawler/all_urls.h"
#include "crawler/incremental_crawler.h"
#include "crawler/sharded_collection.h"
#include "crawler/snapshot.h"
#include "crawler/store_codecs.h"
#include "simweb/simulated_web.h"
#include "storage/delta_log.h"
#include "storage/page_file.h"
#include "util/random.h"

namespace webevo::storage {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(PageFileTest, InsertReadEraseRoundtrip) {
  PageFile file(TempPath("pf_roundtrip"), 256, 4);
  Rng rng(1);
  std::vector<std::pair<PageFile::Loc, std::string>> live;
  for (int i = 0; i < 200; ++i) {
    std::string bytes(1 + rng.NextBounded(100), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.NextBounded(256));
    live.emplace_back(file.Insert(bytes), bytes);
  }
  for (const auto& [loc, bytes] : live) {
    EXPECT_EQ(file.Read(loc), bytes);
  }
  EXPECT_EQ(file.stats().live_records, live.size());

  // Erase every other record; the survivors must be untouched, and
  // later inserts must reuse the freed space.
  for (std::size_t i = 0; i < live.size(); i += 2) {
    file.Erase(live[i].first);
  }
  const std::size_t pages_before = file.stats().pages;
  for (int i = 0; i < 100; ++i) {
    std::string bytes(1 + rng.NextBounded(100), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.NextBounded(256));
    live.emplace_back(file.Insert(bytes), bytes);
  }
  for (std::size_t i = 1; i < live.size(); i += 2) {
    EXPECT_EQ(file.Read(live[i].first), live[i].second);
  }
  // First-fit into tombstoned space keeps the file from growing much.
  EXPECT_LE(file.stats().pages, pages_before + 2);
}

TEST(PageFileTest, SmallCacheFaultsPagesBackCorrectly) {
  PageFile file(TempPath("pf_cache"), 256, 1);
  std::vector<std::pair<PageFile::Loc, std::string>> records;
  for (int i = 0; i < 64; ++i) {
    std::string bytes(100, static_cast<char>('a' + i % 26));
    records.emplace_back(file.Insert(bytes), bytes);
  }
  EXPECT_GT(file.stats().pages, std::size_t{1});
  EXPECT_LE(file.stats().cached_pages, std::size_t{1});
  for (const auto& [loc, bytes] : records) {
    EXPECT_EQ(file.Read(loc), bytes);
  }
  // Sweeping more pages than the cache holds must have faulted from
  // disk (write-back correctness is what the content checks verify).
  EXPECT_GT(file.stats().page_reads, std::size_t{0});
  EXPECT_GT(file.stats().page_evictions, std::size_t{0});
}

TEST(PageFileTest, ClearDropsEverything) {
  PageFile file(TempPath("pf_clear"), 256, 4);
  for (int i = 0; i < 32; ++i) file.Insert(std::string(64, 'x'));
  EXPECT_GT(file.stats().pages, std::size_t{0});
  file.Clear();
  EXPECT_EQ(file.stats().pages, std::size_t{0});
  EXPECT_EQ(file.stats().live_records, std::size_t{0});
  // The file is usable again after Clear.
  PageFile::Loc loc = file.Insert("hello");
  EXPECT_EQ(file.Read(loc), "hello");
}

DeltaSegment MakeSegment(uint64_t batch) {
  DeltaSegment segment;
  segment.kind = "incremental";
  segment.batch = batch;
  segment.sections.push_back(
      DeltaSection{"alpha", "line one\nline two\n"});
  // Sections are length-framed, so payload bytes may contain anything.
  segment.sections.push_back(
      DeltaSection{"beta", std::string("\0\x01\x02\n\xff", 5)});
  return segment;
}

TEST(DeltaLogTest, AppendReadRoundtrip) {
  const std::string path = TempPath("delta_roundtrip.log");
  ASSERT_TRUE(TruncateDeltaLog(path).ok());
  ASSERT_TRUE(AppendDeltaSegment(path, MakeSegment(3)).ok());
  ASSERT_TRUE(AppendDeltaSegment(path, MakeSegment(7)).ok());

  auto log = ReadDeltaLog(path);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(log->torn_tail_bytes, uint64_t{0});
  ASSERT_EQ(log->segments.size(), std::size_t{2});
  EXPECT_EQ(log->segments[0].batch, uint64_t{3});
  EXPECT_EQ(log->segments[1].batch, uint64_t{7});
  for (const DeltaSegment& segment : log->segments) {
    EXPECT_EQ(segment.kind, "incremental");
    ASSERT_EQ(segment.sections.size(), std::size_t{2});
    const DeltaSection* beta = segment.FindSection("beta");
    ASSERT_NE(beta, nullptr);
    EXPECT_EQ(beta->bytes, std::string("\0\x01\x02\n\xff", 5));
    EXPECT_EQ(segment.FindSection("missing"), nullptr);
  }
}

TEST(DeltaLogTest, MissingFileIsEmpty) {
  auto log = ReadDeltaLog(TempPath("delta_never_written.log"));
  ASSERT_TRUE(log.ok());
  EXPECT_TRUE(log->segments.empty());
  EXPECT_EQ(log->torn_tail_bytes, uint64_t{0});
}

TEST(DeltaLogTest, TornTailIsIgnored) {
  const std::string path = TempPath("delta_torn.log");
  ASSERT_TRUE(TruncateDeltaLog(path).ok());
  ASSERT_TRUE(AppendDeltaSegment(path, MakeSegment(1)).ok());
  ASSERT_TRUE(AppendDeltaSegment(path, MakeSegment(2)).ok());
  // Simulate a crash mid-append: half of an unsealed third segment.
  const std::string third = EncodeDeltaSegment(MakeSegment(3));
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(third.data(),
              static_cast<std::streamsize>(third.size() / 2));
  }
  auto log = ReadDeltaLog(path);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_EQ(log->segments.size(), std::size_t{2});
  EXPECT_EQ(log->segments[1].batch, uint64_t{2});
  EXPECT_EQ(log->torn_tail_bytes, third.size() / 2);
}

TEST(DeltaLogTest, CorruptSealedSegmentIsAnError) {
  const std::string path = TempPath("delta_corrupt.log");
  ASSERT_TRUE(TruncateDeltaLog(path).ok());
  ASSERT_TRUE(AppendDeltaSegment(path, MakeSegment(1)).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  // Flip one payload byte *inside* a sealed segment: that is
  // corruption, not a torn tail, and must be reported.
  const std::size_t flip = bytes.find("line one");
  ASSERT_NE(flip, std::string::npos);
  bytes[flip] ^= 0x20;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  auto log = ReadDeltaLog(path);
  EXPECT_FALSE(log.ok());
}

TEST(DeltaLogTest, TruncateEmptiesTheLog) {
  const std::string path = TempPath("delta_trunc.log");
  ASSERT_TRUE(AppendDeltaSegment(path, MakeSegment(1)).ok());
  ASSERT_TRUE(TruncateDeltaLog(path).ok());
  auto log = ReadDeltaLog(path);
  ASSERT_TRUE(log.ok());
  EXPECT_TRUE(log->segments.empty());
}

}  // namespace
}  // namespace webevo::storage

namespace webevo::crawler {
namespace {

storage::StoreOptions PagedOptions() {
  storage::StoreOptions options;
  options.backend = storage::StoreOptions::Backend::kPaged;
  options.dir = ::testing::TempDir();
  // Tiny pages and cache so a few hundred records exercise paging,
  // eviction and compaction, not just the overlay.
  options.page_bytes = 1024;
  options.cache_pages = 4;
  options.overlay_entries = 16;
  return options;
}

simweb::Url MakeUrl(uint64_t site, uint64_t slot) {
  simweb::Url url;
  url.site = static_cast<uint32_t>(site);
  url.slot = static_cast<uint32_t>(slot);
  url.incarnation = 0;
  return url;
}

CollectionEntry MakeEntry(Rng& rng, const simweb::Url& url) {
  CollectionEntry entry;
  entry.url = url;
  entry.page = rng.Next();
  entry.version = rng.Next();
  entry.checksum.lo = rng.Next();
  entry.checksum.hi = rng.Next();
  entry.crawled_at = rng.NextDouble() * 100.0;
  entry.importance = rng.NextDouble();
  const uint64_t nlinks = rng.NextBounded(5);
  for (uint64_t i = 0; i < nlinks; ++i) {
    entry.links.push_back(
        MakeUrl(rng.NextBounded(40), rng.NextBounded(50)));
  }
  return entry;
}

std::string CollectionSnapshotBytes(const ShardedCollection& collection) {
  std::ostringstream os;
  Status st = SaveCollection(collection, os);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return os.str();
}

// The core property: one randomized Upsert/Remove/FindMutable/Flush
// stream, replayed into a memory-backed and a paged ShardedCollection
// at N in {1, 3, 8}, must leave all six stores with byte-identical
// canonical snapshots.
TEST(StoragePropertyTest, MapAndPagedCollectionsStayBitIdentical) {
  constexpr std::size_t kCapacity = 300;
  std::string want;
  for (int shards : {1, 3, 8}) {
    ShardedCollection mem(kCapacity, shards);
    ShardedCollection paged(kCapacity, shards, PagedOptions());
    Rng rng(42);  // same stream for every backend and shard count
    std::vector<simweb::Url> known;
    for (int step = 0; step < 3000; ++step) {
      const uint64_t op = rng.NextBounded(10);
      if (op < 5 || known.empty()) {
        simweb::Url url =
            MakeUrl(rng.NextBounded(40), rng.NextBounded(50));
        Rng entry_rng(rng.Next());
        Rng entry_rng_copy = entry_rng;
        Status a = mem.Upsert(MakeEntry(entry_rng, url));
        Status b = paged.Upsert(MakeEntry(entry_rng_copy, url));
        ASSERT_EQ(a.ok(), b.ok());
        if (a.ok()) known.push_back(url);
      } else if (op < 7) {
        const simweb::Url url = known[rng.NextBounded(known.size())];
        Status a = mem.Remove(url);
        Status b = paged.Remove(url);
        ASSERT_EQ(a.ok(), b.ok());
      } else if (op < 9) {
        const simweb::Url url = known[rng.NextBounded(known.size())];
        CollectionEntry* a = mem.FindMutable(url);
        CollectionEntry* b = paged.FindMutable(url);
        ASSERT_EQ(a == nullptr, b == nullptr);
        if (a != nullptr) {
          const double importance = rng.NextDouble();
          a->importance = importance;
          b->importance = importance;
        }
      } else {
        // Barrier hook mid-stream: must not change logical contents.
        mem.Flush();
        paged.Flush();
      }
    }
    mem.Flush();
    paged.Flush();
    EXPECT_EQ(mem.size(), paged.size());
    const std::string mem_bytes = CollectionSnapshotBytes(mem);
    EXPECT_EQ(mem_bytes, CollectionSnapshotBytes(paged))
        << "backend divergence at N=" << shards;
    if (want.empty()) {
      want = mem_bytes;
    } else {
      EXPECT_EQ(mem_bytes, want) << "shard-count divergence at N="
                                 << shards;
    }
  }
}

std::string AllUrlsSnapshotBytes(const AllUrls& urls) {
  std::ostringstream os;
  Status st = SaveAllUrls(urls, os);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return os.str();
}

TEST(StoragePropertyTest, MapAndPagedAllUrlsStayBitIdentical) {
  std::string want;
  for (int shards : {1, 3, 8}) {
    AllUrls mem(shards);
    AllUrls paged(shards, PagedOptions(), "allurls-prop");
    Rng rng(7);
    std::vector<simweb::Url> known;
    for (int step = 0; step < 4000; ++step) {
      const uint64_t op = rng.NextBounded(10);
      if (op < 5 || known.empty()) {
        simweb::Url url =
            MakeUrl(rng.NextBounded(60), rng.NextBounded(80));
        const double t = rng.NextDouble() * 50.0;
        mem.NoteInLink(url, t);
        paged.NoteInLink(url, t);
        known.push_back(url);
      } else if (op < 8) {
        const simweb::Url url = known[rng.NextBounded(known.size())];
        const double t = rng.NextDouble() * 50.0;
        mem.Add(url, t);
        paged.Add(url, t);
      } else if (op < 9) {
        const simweb::Url url = known[rng.NextBounded(known.size())];
        Status a = mem.MarkDead(url);
        Status b = paged.MarkDead(url);
        ASSERT_EQ(a.ok(), b.ok());
      } else {
        mem.Flush();
        paged.Flush();
      }
    }
    EXPECT_EQ(mem.size(), paged.size());
    const std::string mem_bytes = AllUrlsSnapshotBytes(mem);
    EXPECT_EQ(mem_bytes, AllUrlsSnapshotBytes(paged))
        << "backend divergence at N=" << shards;
    if (want.empty()) {
      want = mem_bytes;
    } else {
      EXPECT_EQ(mem_bytes, want) << "shard-count divergence at N="
                                 << shards;
    }
  }
}

// End-to-end: a whole crawler on the paged backend checkpoints to the
// same bytes as one on the memory backend, at N in {1, 3, 8} — the
// storage layer is invisible to the simulation.
TEST(StoragePropertyTest, CrawlerCheckpointsMatchAcrossBackends) {
  simweb::WebConfig web_config = simweb::WebConfig().Scaled(0.02);
  web_config.seed = 20260808;
  web_config.min_site_size = 8;
  web_config.max_site_size = 30;

  std::string want;
  for (int shards : {1, 3, 8}) {
    for (bool paged : {false, true}) {
      simweb::SimulatedWeb web(web_config);
      IncrementalCrawlerConfig config;
      config.collection_capacity = 150;
      config.crawl_rate_pages_per_day = 90.0;
      config.crawl_parallelism = shards;
      if (paged) config.store = PagedOptions();
      IncrementalCrawler crawler(&web, config);
      ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
      ASSERT_TRUE(crawler.RunUntil(6.0).ok());
      CrawlerCheckpointOptions options;
      std::ostringstream out;
      Status saved = SaveCrawler(crawler, out, options);
      ASSERT_TRUE(saved.ok()) << saved.ToString();
      if (want.empty()) {
        want = out.str();
      } else {
        EXPECT_EQ(out.str(), want)
            << "divergence at N=" << shards << " paged=" << paged;
      }
    }
  }
}

// The paged codecs decode exactly what they encode: link lists of any
// length, every integer at full width, and doubles at the edges of the
// range (compared bit for bit, so -0.0 and subnormals count).
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

TEST(StoreCodecTest, PagedCodecsRoundTrip) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(7);
  for (std::size_t nlinks : {std::size_t{0}, std::size_t{200}}) {
    for (double v : {0.0, -0.0, 5e-324, DBL_MIN, DBL_MAX, -DBL_MAX, 1.0 / 3,
                     -1e-7, kInf}) {
      CollectionEntry e = MakeEntry(rng, MakeUrl(rng.NextBounded(1000), 3));
      e.url.incarnation = std::numeric_limits<uint32_t>::max();
      e.page = std::numeric_limits<uint64_t>::max();
      e.crawled_at = v;
      e.importance = -v;
      e.links.clear();
      for (std::size_t i = 0; i < nlinks; ++i) {
        e.links.push_back(MakeUrl(rng.Next() >> 32, rng.Next() >> 32));
      }
      const CollectionEntry d = CollectionEntryCodec::Decode(
          CollectionEntryCodec::Encode(e));
      EXPECT_TRUE(d.url == e.url);
      EXPECT_EQ(d.page, e.page);
      EXPECT_EQ(d.version, e.version);
      EXPECT_TRUE(d.checksum == e.checksum);
      EXPECT_TRUE(SameBits(d.crawled_at, e.crawled_at)) << v;
      EXPECT_TRUE(SameBits(d.importance, e.importance)) << v;
      EXPECT_TRUE(d.links == e.links);

      const AllUrls::UrlInfo info{v, rng.Next(), nlinks > 0};
      const AllUrls::UrlInfo back = UrlInfoCodec::Decode(
          UrlInfoCodec::Encode(info));
      EXPECT_TRUE(SameBits(back.first_seen, info.first_seen)) << v;
      EXPECT_EQ(back.in_links, info.in_links);
      EXPECT_EQ(back.dead, info.dead);
    }
  }
}

}  // namespace
}  // namespace webevo::crawler
