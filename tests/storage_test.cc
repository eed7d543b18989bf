// Storage-layer tests: the PageFile slotted-page scratch store, the
// sealed write-ahead delta log, and the map-vs-paged RecordStore
// property suite — identical operation streams through both backends
// must produce bit-identical canonical walks and checkpoint bytes at
// every shard count.

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cfloat>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crawler/all_urls.h"
#include "crawler/collection.h"
#include "crawler/incremental_crawler.h"
#include "crawler/snapshot.h"
#include "crawler/store_codecs.h"
#include "simweb/simulated_web.h"
#include "storage/delta_log.h"
#include "storage/page_file.h"
#include "storage/paged_record_store.h"
#include "util/hash.h"
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

// A page file that cannot be created, written back or read back stops
// the process with a message naming the file, in every build type:
// carrying on would bring evicted pages back as zeros.
TEST(PageFileDeathTest, UncreatableFileStopsNamingIt) {
  const std::string path = TempPath("no-such-dir/pf.pages");
  EXPECT_DEATH(PageFile(path, 256, 4),
               "PageFile .*no-such-dir/pf.pages: cannot create");
}

// Caps this process's files at two pages, then fills a page file past
// them: writing back the third page fails with EFBIG (SIGXFSZ ignored).
void WriteThirdPageOverFileSizeLimit(const std::string& path) {
  std::signal(SIGXFSZ, SIG_IGN);
  rlimit limit;
  limit.rlim_cur = limit.rlim_max = 2048;
  ::setrlimit(RLIMIT_FSIZE, &limit);
  PageFile file(path, 1024, 1);
  for (int i = 0; i < 8; ++i) file.Insert(std::string(1000, 'x'));
}

TEST(PageFileDeathTest, FailedWriteBackStopsNamingIt) {
  EXPECT_DEATH(WriteThirdPageOverFileSizeLimit(TempPath("pf_fsize")),
               "PageFile .*pf_fsize: write-back of page 2 failed");
}

TEST(PageFileDeathTest, ShortPageReadStopsNamingIt) {
  PageFile file(TempPath("pf_short"), 256, 1);
  std::vector<PageFile::Loc> locs;
  for (char c : {'a', 'b', 'c'}) {
    locs.push_back(file.Insert(std::string(200, c)));
  }
  // Page 0 was written back when page 1 came in. Its bytes vanishing
  // from the file must not read back as zeros.
  ASSERT_EQ(::truncate(file.path().c_str(), 0), 0);
  EXPECT_DEATH(file.Read(locs[0]),
               "PageFile .*pf_short: read of page 0 failed: short read");
}

DeltaSegment MakeSegment(uint64_t batch) {
  DeltaSegment segment;
  segment.kind = "incremental";
  segment.base = 0xba5e0000 + batch;
  segment.batch = batch;
  segment.sections.push_back(Section{"alpha", "line one\nline two\n"});
  // Sections are length-framed, so payload bytes may contain anything.
  segment.sections.push_back(
      Section{"beta", std::string("\0\x01\x02\n\xff", 5)});
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
    EXPECT_EQ(segment.base, 0xba5e0000 + segment.batch);
    ASSERT_EQ(segment.sections.size(), std::size_t{2});
    const std::string* beta = FindSection(segment.sections, "beta");
    ASSERT_NE(beta, nullptr);
    EXPECT_EQ(*beta, std::string("\0\x01\x02\n\xff", 5));
    EXPECT_EQ(FindSection(segment.sections, "missing"), nullptr);
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

// A crafted log whose section lengths sum, modulo 2^64, to the payload
// size: 2^63 and 2^63 + 8 bytes claimed over an 8-byte payload, every
// checksum recomputed. It must be rejected, not sliced past its end.
TEST(DeltaLogTest, SectionLengthsThatWrapAreAnError) {
  const std::string path = TempPath("delta_wrap.log");
  const std::string payload = "8 bytes!";
  std::string head = std::string(kDeltaMagic) + " " +
                     std::to_string(kDeltaFormatVersion) +
                     " incremental 0 1 2 8\n";
  head += "S a 9223372036854775808 " + std::to_string(Fnv1a64(payload)) +
          "\n";
  head += "S b 9223372036854775816 " + std::to_string(Fnv1a64("")) + "\n";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << head << "H " << Fnv1a64(head) << "\n"
        << payload << "Z " << Fnv1a64(payload) << "\n";
  }
  auto log = ReadDeltaLog(path);
  ASSERT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(log.status().message().find(path), std::string::npos)
      << log.status().ToString();
}

// A log that exists but cannot be read is an error that names it,
// never an empty log or an uncaught exception: a directory, and a
// character device, which reports a size of 0 (as a directory does on
// some filesystems) and reads as end of file.
TEST(DeltaLogTest, UnreadableLogIsAnError) {
  const std::string directory = TempPath("delta_is_a_directory.log");
  const std::string device = TempPath("delta_is_a_device.log");
  std::remove(directory.c_str());
  std::remove(device.c_str());
  ASSERT_EQ(::mkdir(directory.c_str(), 0755), 0);
  ASSERT_EQ(::symlink("/dev/null", device.c_str()), 0);
  for (const std::string& path : {directory, device}) {
    auto log = ReadDeltaLog(path);
    ASSERT_FALSE(log.ok()) << path;
    EXPECT_NE(log.status().message().find(path), std::string::npos)
        << log.status().ToString();
  }
  ::rmdir(directory.c_str());
  std::remove(device.c_str());
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

std::string CollectionSnapshotBytes(const Collection& collection) {
  std::ostringstream os;
  Status st = SaveCollection(collection, os);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return os.str();
}

// The core property: one randomized Upsert/Remove/FindMutable/Flush
// stream, replayed into a memory-backed and a paged Collection
// at N in {1, 3, 8}, must leave all six stores with byte-identical
// canonical snapshots.
TEST(StoragePropertyTest, MapAndPagedCollectionsStayBitIdentical) {
  constexpr std::size_t kCapacity = 300;
  std::string want;
  for (int shards : {1, 3, 8}) {
    Collection mem(kCapacity, shards);
    Collection paged(kCapacity, shards, PagedOptions(), "collection");
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

// A restore whose delta log cannot be read fails and names the log,
// rather than load the base alone or stop the process.
TEST(DeltaLogRestoreTest, UnreadableLogFailsTheRestore) {
  simweb::WebConfig web_config = simweb::WebConfig().Scaled(0.02);
  web_config.seed = 20260808;
  IncrementalCrawlerConfig config;
  config.collection_capacity = 150;
  config.crawl_rate_pages_per_day = 90.0;
  config.checkpoint_incremental = true;
  const std::string path = ::testing::TempDir() + "/unreadable_log.ckpt";
  const std::string deltas = path + ".deltas";
  std::remove(deltas.c_str());
  {
    simweb::SimulatedWeb web(web_config);
    IncrementalCrawler crawler(&web, config);
    ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
    ASSERT_TRUE(crawler.RunUntil(2.0).ok());
    ASSERT_TRUE(CheckpointIncremental(&crawler, path).ok());
  }
  ASSERT_EQ(std::remove(deltas.c_str()), 0);
  ASSERT_EQ(::mkdir(deltas.c_str(), 0755), 0);
  simweb::SimulatedWeb web(web_config);
  IncrementalCrawler restored(&web, config);
  Status st = LoadCrawlerWithDeltasFromFile(path, &restored);
  ::rmdir(deltas.c_str());
  std::remove(path.c_str());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find(deltas), std::string::npos) << st.ToString();
}

// The barrier's contract, read off the page counters of one paged
// collection store with PagedOptions' tiny pages and cache.
using PagedCollectionStore =
    storage::PagedRecordStore<CollectionEntry, CollectionEntryCodec>;

void FillStore(PagedCollectionStore& store, int n, Rng& rng) {
  for (int i = 0; i < n; ++i) {
    const simweb::Url url = MakeUrl(i / 50, i % 50);
    store.Put(url, MakeEntry(rng, url));
  }
  store.Flush();
}

TEST(PagedStoreFlushTest, FlushWithNothingDirtyTouchesNoPage) {
  PagedCollectionStore store(PagedOptions(), "flush-clean");
  Rng rng(3);
  FillStore(store, 300, rng);
  ASSERT_GT(store.store_stats().pages, PagedOptions().cache_pages);
  // Clean reads fault pages in and fill the overlay, but dirty nothing.
  for (int i = 0; i < 300; i += 7) {
    ASSERT_NE(store.Find(MakeUrl(i / 50, i % 50)), nullptr);
  }
  store.ForEach([](const simweb::Url&, const CollectionEntry&) {});
  const storage::StoreStats before = store.store_stats();
  EXPECT_EQ(before.dirty_records, 0u);
  for (int i = 0; i < 3; ++i) store.Flush();
  const storage::StoreStats after = store.store_stats();
  EXPECT_EQ(after.page_reads, before.page_reads);
  EXPECT_EQ(after.page_evictions, before.page_evictions);
  EXPECT_EQ(after.page_compactions, before.page_compactions);
  EXPECT_LE(after.overlay_records, PagedOptions().overlay_entries);
}

TEST(PagedStoreFlushTest, FlushCompactsEachPageAtMostOnce) {
  PagedCollectionStore store(PagedOptions(), "flush-once");
  Rng rng(4);
  FillStore(store, 300, rng);
  for (int k : {1, 17, 120, 300}) {
    // Grow k records by one link: each one's old cell dies and the
    // record no longer fits it, so placement has to compact.
    for (int j = 0; j < k; ++j) {
      const int i = (j * 300) / k;
      CollectionEntry* e = store.FindMutable(MakeUrl(i / 50, i % 50));
      ASSERT_NE(e, nullptr);
      e->links.push_back(MakeUrl(k, j));
    }
    const std::size_t before = store.store_stats().page_compactions;
    store.Flush();
    const storage::StoreStats after = store.store_stats();
    EXPECT_EQ(after.dirty_records, 0u);
    EXPECT_LE(after.page_compactions - before, after.pages) << "k=" << k;
    if (k >= 120) {
      EXPECT_GT(after.page_compactions, before) << "k=" << k;
    }
  }
}

TEST(PagedStoreFlushTest, OversizeRecordStaysPinnedAcrossFlushes) {
  PagedCollectionStore store(PagedOptions(), "flush-oversize");
  Rng rng(5);
  FillStore(store, 200, rng);
  const simweb::Url big_url = MakeUrl(1000, 1);
  CollectionEntry big = MakeEntry(rng, big_url);
  big.links.assign(200, MakeUrl(7, 9));  // far beyond a 1 KiB page
  for (uint32_t i = 0; i < big.links.size(); ++i) big.links[i].slot = i;
  const CollectionEntry want = big;
  store.Put(big_url, std::move(big));
  for (int round = 0; round < 3; ++round) {
    store.Flush();
    // Walk the rest so the clean overlay churns past its cap.
    store.ForEach([](const simweb::Url&, const CollectionEntry&) {});
    store.Flush();
    EXPECT_EQ(store.store_stats().dirty_records, 1u) << "round " << round;
    const CollectionEntry* got = store.Find(big_url);
    ASSERT_NE(got, nullptr);
    EXPECT_TRUE(got->links == want.links);
    EXPECT_EQ(got->checksum, want.checksum);
  }
  // Shrunk to fit, it is paged at the next Flush and reads back from
  // its page once the overlay has let it go.
  store.FindMutable(big_url)->links.resize(3);
  store.Flush();
  EXPECT_EQ(store.store_stats().dirty_records, 0u);
  store.ForEach([](const simweb::Url&, const CollectionEntry&) {});
  store.Flush();
  const CollectionEntry* got = store.Find(big_url);
  ASSERT_NE(got, nullptr);
  ASSERT_EQ(got->links.size(), 3u);
  EXPECT_TRUE(got->links[2] == want.links[2]);
  EXPECT_EQ(got->importance, want.importance);
}

// The paged codecs decode exactly what they encode: link lists of any
// length, every integer at full width, and doubles at the edges of the
// range and NaNs of any sign and payload (compared bit for bit, so
// -0.0 and subnormals count).
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

double FromBits(uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

TEST(StoreCodecTest, PagedCodecsRoundTrip) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(7);
  for (std::size_t nlinks : {std::size_t{0}, std::size_t{200}}) {
    for (double v : {0.0, -0.0, 5e-324, DBL_MIN, DBL_MAX, -DBL_MAX, 1.0 / 3,
                     -1e-7, kInf, std::numeric_limits<double>::quiet_NaN(),
                     FromBits(0xFFF8000000000000),    // negative quiet NaN
                     FromBits(0x7FF0000000000001),    // signalling NaN
                     FromBits(0x7FF8DEADBEEF0042)}) {  // NaN with a payload
      CollectionEntry e = MakeEntry(rng, MakeUrl(rng.NextBounded(1000), 3));
      e.url.incarnation = std::numeric_limits<uint32_t>::max();
      e.page = std::numeric_limits<uint64_t>::max();
      e.crawled_at = v;
      e.importance = -v;
      e.links.clear();
      for (std::size_t i = 0; i < nlinks; ++i) {
        e.links.push_back(MakeUrl(rng.Next() >> 32, rng.Next() >> 32));
      }
      std::string bytes;
      CollectionEntryCodec::Encode(e, &bytes);
      CollectionEntry d;
      ASSERT_TRUE(CollectionEntryCodec::Decode(bytes, &d));
      EXPECT_TRUE(d.url == e.url);
      EXPECT_EQ(d.page, e.page);
      EXPECT_EQ(d.version, e.version);
      EXPECT_TRUE(d.checksum == e.checksum);
      EXPECT_TRUE(SameBits(d.crawled_at, e.crawled_at)) << v;
      EXPECT_TRUE(SameBits(d.importance, e.importance)) << v;
      EXPECT_TRUE(d.links == e.links);

      const AllUrls::UrlInfo info{v, rng.Next(), nlinks > 0};
      UrlInfoCodec::Encode(info, &bytes);
      AllUrls::UrlInfo back;
      ASSERT_TRUE(UrlInfoCodec::Decode(bytes, &back));
      EXPECT_TRUE(SameBits(back.first_seen, info.first_seen)) << v;
      EXPECT_EQ(back.in_links, info.in_links);
      EXPECT_EQ(back.dead, info.dead);
    }
  }
}

// A record whose length disagrees with what its fields declare (a
// collection entry's link count, or a UrlInfo's fixed size) is refused,
// never decoded from bytes past its end.
TEST(StoreCodecTest, PagedCodecsRejectLengthMismatch) {
  Rng rng(8);
  CollectionEntry e = MakeEntry(rng, MakeUrl(5, 6));
  e.links = {MakeUrl(1, 2), MakeUrl(3, 4)};
  std::string bytes;
  CollectionEntryCodec::Encode(e, &bytes);
  CollectionEntry d;
  ASSERT_TRUE(CollectionEntryCodec::Decode(bytes, &d));
  for (std::size_t cut : {std::size_t{1}, std::size_t{12}, bytes.size()}) {
    EXPECT_FALSE(CollectionEntryCodec::Decode(
        std::string_view(bytes).substr(0, bytes.size() - cut), &d))
        << cut;
  }
  EXPECT_FALSE(CollectionEntryCodec::Decode(bytes + std::string(12, '\0'), &d));

  UrlInfoCodec::Encode(AllUrls::UrlInfo{1.5, 7, true}, &bytes);
  AllUrls::UrlInfo info;
  ASSERT_TRUE(UrlInfoCodec::Decode(bytes, &info));
  EXPECT_FALSE(UrlInfoCodec::Decode(bytes + "x", &info));
  EXPECT_FALSE(UrlInfoCodec::Decode(bytes.substr(1), &info));
}

}  // namespace
}  // namespace webevo::crawler
