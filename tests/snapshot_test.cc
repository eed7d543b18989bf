#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crawler/snapshot.h"
#include "util/text_snapshot.h"

namespace webevo::crawler {
namespace {

using simweb::Url;

Collection MakeCollection() {
  Collection c(10);
  for (uint32_t i = 0; i < 4; ++i) {
    CollectionEntry e;
    e.url = Url{i, i * 2, 1};
    e.page = 100 + i;
    e.version = 7 * i;
    e.checksum = {0x1234 + i, 0x5678 + i};
    e.crawled_at = 3.14159 * i;
    e.importance = 0.25 * i;
    e.links = {Url{0, 1, 0}, Url{2, 3, 4}};
    EXPECT_TRUE(c.Upsert(e).ok());
  }
  return c;
}

TEST(SnapshotTest, CollectionRoundTrip) {
  Collection original = MakeCollection();
  std::stringstream buffer;
  ASSERT_TRUE(SaveCollection(original, buffer).ok());
  auto loaded = LoadCollection(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->capacity(), original.capacity());
  EXPECT_EQ(loaded->size(), original.size());
  original.ForEach([&](const CollectionEntry& e) {
    const CollectionEntry* got = loaded->Find(e.url);
    ASSERT_NE(got, nullptr) << e.url.ToString();
    EXPECT_EQ(got->page, e.page);
    EXPECT_EQ(got->version, e.version);
    EXPECT_EQ(got->checksum, e.checksum);
    EXPECT_DOUBLE_EQ(got->crawled_at, e.crawled_at);
    EXPECT_DOUBLE_EQ(got->importance, e.importance);
    ASSERT_EQ(got->links.size(), e.links.size());
    for (std::size_t i = 0; i < e.links.size(); ++i) {
      EXPECT_EQ(got->links[i], e.links[i]);
    }
  });
}

TEST(SnapshotTest, EmptyCollectionRoundTrip) {
  Collection empty(5);
  std::stringstream buffer;
  ASSERT_TRUE(SaveCollection(empty, buffer).ok());
  auto loaded = LoadCollection(buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 0u);
  EXPECT_EQ(loaded->capacity(), 5u);
}

TEST(SnapshotTest, DetectsCorruption) {
  Collection original = MakeCollection();
  std::stringstream buffer;
  ASSERT_TRUE(SaveCollection(original, buffer).ok());
  std::string payload = buffer.str();
  // Flip one digit somewhere in the middle of the payload.
  std::size_t pos = payload.size() / 2;
  payload[pos] = payload[pos] == '1' ? '2' : '1';
  std::istringstream corrupted(payload);
  EXPECT_FALSE(LoadCollection(corrupted).ok());
}

TEST(SnapshotTest, DetectsTruncation) {
  Collection original = MakeCollection();
  std::stringstream buffer;
  ASSERT_TRUE(SaveCollection(original, buffer).ok());
  std::string payload = buffer.str();
  std::istringstream truncated(payload.substr(0, payload.size() / 2));
  EXPECT_FALSE(LoadCollection(truncated).ok());
}

TEST(SnapshotTest, RejectsWrongMagicAndVersion) {
  std::istringstream wrong("webevo-allurls 1 0\nwebevo-checksum 0\n");
  EXPECT_FALSE(LoadCollection(wrong).ok());
  std::istringstream versioned("webevo-collection 99 10 0\n");
  EXPECT_FALSE(LoadCollection(versioned).ok());
}

TEST(SnapshotTest, AllUrlsRoundTrip) {
  AllUrls original;
  original.Add(Url{1, 2, 3}, 4.5);
  original.NoteInLink(Url{1, 2, 3}, 5.0);
  original.NoteInLink(Url{1, 2, 3}, 5.5);
  original.Add(Url{9, 0, 0}, 1.0);
  ASSERT_TRUE(original.MarkDead(Url{9, 0, 0}).ok());

  std::stringstream buffer;
  ASSERT_TRUE(SaveAllUrls(original, buffer).ok());
  auto loaded = LoadAllUrls(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 2u);
  const AllUrls::UrlInfo* a = loaded->Find(Url{1, 2, 3});
  ASSERT_NE(a, nullptr);
  EXPECT_DOUBLE_EQ(a->first_seen, 4.5);
  EXPECT_EQ(a->in_links, 2u);
  EXPECT_FALSE(a->dead);
  const AllUrls::UrlInfo* b = loaded->Find(Url{9, 0, 0});
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->dead);
}

TEST(SnapshotTest, FileRoundTrip) {
  Collection original = MakeCollection();
  std::string path = ::testing::TempDir() + "/webevo_snapshot_test.snap";
  ASSERT_TRUE(SaveCollectionToFile(original, path).ok());
  auto loaded = LoadCollectionFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), original.size());
  EXPECT_FALSE(LoadCollectionFromFile("/nonexistent/nope.snap").ok());
}

// ------------------------------------------------ UpdateModule snapshots

// Drives a module through a deterministic visit history with a few
// detected changes, so estimators, probe flags, and the RNG all leave
// their default state.
UpdateModule MakeTrainedModule(const UpdateModuleConfig& config) {
  UpdateModule module(config);
  for (uint32_t i = 0; i < 12; ++i) {
    Url url{i % 3, i, 0};
    double t = 0.0;
    module.OnCrawled(url, t, false, /*first_visit=*/true);
    for (int visit = 1; visit <= 6; ++visit) {
      t += 1.0 + 0.25 * static_cast<double>(i % 4);
      bool changed = (visit + i) % 3 == 0;
      module.OnCrawled(url, t, changed, false);
    }
    module.SetImportance(url, 0.1 * static_cast<double>(i));
  }
  module.Rebalance();
  return module;
}

TEST(SnapshotTest, UpdateModuleRoundTrip) {
  UpdateModuleConfig config;
  UpdateModule original = MakeTrainedModule(config);
  ASSERT_GT(original.tracked_pages(), 0u);
  ASSERT_GT(original.multiplier(), 0.0);

  std::stringstream buffer;
  ASSERT_TRUE(SaveUpdateModule(original, buffer).ok());
  UpdateModule restored(config);
  ASSERT_TRUE(LoadUpdateModule(buffer, &restored).ok());

  EXPECT_EQ(restored.tracked_pages(), original.tracked_pages());
  EXPECT_EQ(restored.rebalance_count(), original.rebalance_count());
  EXPECT_EQ(restored.multiplier(), original.multiplier());
  for (uint32_t i = 0; i < 12; ++i) {
    Url url{i % 3, i, 0};
    EXPECT_EQ(restored.EstimatedRate(url), original.EstimatedRate(url))
        << url.ToString();
  }
  // The restored module must *continue* exactly like the original —
  // same schedules, same probe coin flips — which is the "no relearning
  // after restart" property the snapshot exists for.
  for (int visit = 0; visit < 20; ++visit) {
    Url url{static_cast<uint32_t>(visit) % 3,
            static_cast<uint32_t>(visit) % 12, 0};
    double t = 10.0 + static_cast<double>(visit);
    bool changed = visit % 4 == 0;
    EXPECT_EQ(original.OnCrawled(url, t, changed, false),
              restored.OnCrawled(url, t, changed, false))
        << "visit " << visit;
  }
}

TEST(SnapshotTest, UpdateModuleSiteLevelRoundTrip) {
  UpdateModuleConfig config;
  config.site_level_stats = true;
  config.estimator_kind = estimator::EstimatorKind::kRatio;
  UpdateModule original = MakeTrainedModule(config);

  std::stringstream buffer;
  ASSERT_TRUE(SaveUpdateModule(original, buffer).ok());
  UpdateModule restored(config);
  ASSERT_TRUE(LoadUpdateModule(buffer, &restored).ok());
  for (uint32_t i = 0; i < 12; ++i) {
    Url url{i % 3, i, 0};
    EXPECT_EQ(restored.EstimatedRate(url), original.EstimatedRate(url));
  }
}

TEST(SnapshotTest, UpdateModuleRejectsEstimatorKindMismatch) {
  UpdateModuleConfig bayes;  // default kind: EB
  UpdateModule original = MakeTrainedModule(bayes);
  std::stringstream buffer;
  ASSERT_TRUE(SaveUpdateModule(original, buffer).ok());

  UpdateModuleConfig ratio = bayes;
  ratio.estimator_kind = estimator::EstimatorKind::kRatio;
  UpdateModule wrong_kind(ratio);
  Status st = LoadUpdateModule(buffer, &wrong_kind);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, UpdateModuleDetectsCorruption) {
  UpdateModuleConfig config;
  UpdateModule original = MakeTrainedModule(config);
  std::stringstream buffer;
  ASSERT_TRUE(SaveUpdateModule(original, buffer).ok());
  std::string payload = buffer.str();
  std::size_t pos = payload.size() / 2;
  payload[pos] = payload[pos] == '3' ? '4' : '3';
  std::istringstream corrupted(payload);
  UpdateModule restored(config);
  EXPECT_FALSE(LoadUpdateModule(corrupted, &restored).ok());
}

// ------------------------------------------------- frontier snapshots

// Builds a frontier with a mix of scheduled, front-inserted, removed
// and rescheduled URLs, so the snapshot has to carry exact (when, seq)
// keys and the global counters to reproduce the pop order.
ShardedFrontier MakeBusyFrontier(int shards) {
  ShardedFrontier frontier(shards);
  for (uint32_t i = 0; i < 60; ++i) {
    Url url{i % 7, i, 0};
    frontier.Schedule(url, static_cast<double>((i * 13) % 20));
  }
  for (uint32_t i = 0; i < 10; ++i) {
    frontier.ScheduleFront(Url{i % 7, 100 + i, 0});
  }
  for (uint32_t i = 0; i < 60; i += 5) {
    Status st = frontier.Remove(Url{i % 7, i, 0});
    (void)st;
  }
  for (uint32_t i = 1; i < 60; i += 7) {
    frontier.Schedule(Url{i % 7, i, 0}, 2.5);  // reschedule, ties on 2.5
  }
  return frontier;
}

TEST(SnapshotTest, FrontierRoundTripPopsBitIdentically) {
  ShardedFrontier original = MakeBusyFrontier(3);
  std::stringstream buffer;
  ASSERT_TRUE(SaveFrontier(original, buffer).ok());

  // Restore at several shard counts: the snapshot is shard-agnostic
  // and the pop order (URLs, times — front keys included — and the
  // FIFO tie-breaks) must match the original bit for bit.
  for (int shards : {1, 3, 8}) {
    std::istringstream in(buffer.str());
    auto restored = LoadFrontier(in, shards);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored->num_shards(), shards);
    EXPECT_EQ(restored->size(), original.size());
    ShardedFrontier reference = original;  // drain a copy
    while (true) {
      auto want = reference.Pop();
      auto got = restored->Pop();
      ASSERT_EQ(want.has_value(), got.has_value()) << "shards=" << shards;
      if (!want.has_value()) break;
      EXPECT_EQ(want->url, got->url) << "shards=" << shards;
      EXPECT_EQ(want->when, got->when);
    }
  }
}

TEST(SnapshotTest, FrontierRoundTripKeepsGlobalCounters) {
  // Post-restore scheduling must continue the global FIFO: a new
  // front-insert on the restored frontier may not collide with (or
  // jump ahead of) the saved ones.
  ShardedFrontier original(2);
  original.ScheduleFront(Url{0, 1, 0});
  original.ScheduleFront(Url{1, 2, 0});
  std::stringstream buffer;
  ASSERT_TRUE(SaveFrontier(original, buffer).ok());
  auto restored = LoadFrontier(buffer, 2);
  ASSERT_TRUE(restored.ok());
  restored->ScheduleFront(Url{0, 3, 0});
  EXPECT_EQ(restored->Pop()->url, (Url{0, 1, 0}));
  EXPECT_EQ(restored->Pop()->url, (Url{1, 2, 0}));
  EXPECT_EQ(restored->Pop()->url, (Url{0, 3, 0}));
  EXPECT_FALSE(restored->Pop().has_value());
}

TEST(SnapshotTest, FrontierDetectsCorruptionAndTruncation) {
  ShardedFrontier original = MakeBusyFrontier(4);
  std::stringstream buffer;
  ASSERT_TRUE(SaveFrontier(original, buffer).ok());
  std::string payload = buffer.str();
  std::string corrupted_payload = payload;
  std::size_t pos = corrupted_payload.size() / 2;
  corrupted_payload[pos] = corrupted_payload[pos] == '3' ? '4' : '3';
  std::istringstream corrupted(corrupted_payload);
  EXPECT_FALSE(LoadFrontier(corrupted, 4).ok());
  std::istringstream truncated(payload.substr(0, payload.size() / 2));
  EXPECT_FALSE(LoadFrontier(truncated, 4).ok());
  std::istringstream wrong("webevo-collection 1 10 0\n");
  EXPECT_FALSE(LoadFrontier(wrong, 4).ok());
}

// ------------------------------------ collection load into N stores

TEST(SnapshotTest, CollectionLoadsIntoFourStores) {
  Collection original = MakeCollection();
  std::stringstream buffer;
  ASSERT_TRUE(SaveCollection(original, buffer).ok());
  auto loaded = LoadCollection(buffer, 4);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->capacity(), original.capacity());
  EXPECT_EQ(loaded->size(), original.size());
  original.ForEach([&](const CollectionEntry& e) {
    const CollectionEntry* got = loaded->Find(e.url);
    ASSERT_NE(got, nullptr) << e.url.ToString();
    EXPECT_EQ(got->checksum, e.checksum);
  });
  // Same logical state saved from one store or four produces the same
  // bytes: records are canonically ordered, never shard-ordered.
  std::stringstream again;
  ASSERT_TRUE(SaveCollection(*loaded, again).ok());
  EXPECT_EQ(again.str(), buffer.str());
}

// ------------------------------------------------- reader strictness

// Builds a snapshot with a *valid* trailer over arbitrary payload
// lines (through the shared TrailerWriter, so the framing can never
// drift from production), so the tests below exercise the record
// parsers rather than the integrity check.
std::string FramedSnapshot(const std::vector<std::string>& lines) {
  std::ostringstream out;
  TrailerWriter writer(out);
  for (const std::string& line : lines) writer.Line(line);
  writer.Finish();
  return out.str();
}

TEST(SnapshotTest, RejectsTrailingDataAfterTrailer) {
  Collection original = MakeCollection();
  std::stringstream buffer;
  ASSERT_TRUE(SaveCollection(original, buffer).ok());
  std::istringstream appended(buffer.str() + "stray bytes\n");
  Status st = LoadCollection(appended).status();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);

  AllUrls urls;
  urls.Add(Url{1, 2, 3}, 4.5);
  std::stringstream ubuffer;
  ASSERT_TRUE(SaveAllUrls(urls, ubuffer).ok());
  std::istringstream uappended(ubuffer.str() + "x");
  EXPECT_FALSE(LoadAllUrls(uappended).ok());

  ShardedFrontier frontier(2);
  frontier.Schedule(Url{0, 1, 0}, 1.0);
  std::stringstream fbuffer;
  ASSERT_TRUE(SaveFrontier(frontier, fbuffer).ok());
  std::istringstream fappended(fbuffer.str() + "x");
  EXPECT_FALSE(LoadFrontier(fappended, 2).ok());
}

TEST(SnapshotTest, RejectsTrailingTokensOnRecordLines) {
  // A U record with one token too many, under a correct trailer: the
  // parser must notice, not silently ignore the tail.
  std::istringstream extra(FramedSnapshot(
      {"webevo-allurls 1 1", "U 1 2 3 4.5 0 0 EXTRA"}));
  Status st = LoadAllUrls(extra).status();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);

  // Same for a collection entry (extra token after the link list).
  std::istringstream entry_extra(FramedSnapshot(
      {"webevo-collection 1 4 1",
       "E 0 0 0 7 1 2 3 0.5 0.25 1 1 2 3 99"}));
  EXPECT_FALSE(LoadCollection(entry_extra).ok());

  // And a header with junk appended.
  std::istringstream header_extra(
      FramedSnapshot({"webevo-collection 1 4 0 junk"}));
  EXPECT_FALSE(LoadCollection(header_extra).ok());

  // A frontier record with trailing junk.
  std::istringstream frontier_extra(FramedSnapshot(
      {"webevo-frontier 1 1 5 0", "F 0 1 0 2.5 3 junk"}));
  EXPECT_FALSE(LoadFrontier(frontier_extra, 1).ok());
}

TEST(SnapshotTest, RejectsShortRecordLines) {
  // Truncated U record (missing the dead flag).
  std::istringstream short_record(FramedSnapshot(
      {"webevo-allurls 1 1", "U 1 2 3 4.5"}));
  EXPECT_FALSE(LoadAllUrls(short_record).ok());
  // Record count larger than the records present.
  std::istringstream short_count(FramedSnapshot(
      {"webevo-allurls 1 2", "U 1 2 3 4.5 0 0"}));
  EXPECT_FALSE(LoadAllUrls(short_count).ok());
}

TEST(SnapshotTest, ForgedLinkCountIsAFormatError) {
  // An E record claiming 2^62 links: the link list is read as far as
  // its fields go, so the claim fails at the end of the line instead of
  // sizing an allocation — under a valid trailer and under a wrong one.
  const std::string header = "webevo-collection 1 4 1";
  const std::string entry =
      "E 0 0 0 7 1 2 3 0.5 0.25 4611686018427387904 1 2 3";
  std::istringstream framed(FramedSnapshot({header, entry}));
  Status st = LoadCollection(framed).status();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  std::istringstream unframed(header + "\n" + entry +
                              "\nwebevo-checksum 0\n");
  st = LoadCollection(unframed).status();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
}

TEST(SnapshotTest, InLinkCountRestoresVerbatim) {
  // A record's in-link count is restored as a value, not replayed as
  // that many notes, so 2^62 loads at once and round-trips.
  const std::string bytes = FramedSnapshot(
      {"webevo-allurls 1 1", "U 1 2 3 4.5 4611686018427387904 1"});
  std::istringstream in(bytes);
  auto loaded = LoadAllUrls(in, 4);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const AllUrls::UrlInfo* info = loaded->Find(Url{1, 2, 3});
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->in_links, uint64_t{1} << 62);
  EXPECT_TRUE(info->dead);
  std::ostringstream out;
  ASSERT_TRUE(SaveAllUrls(*loaded, out).ok());
  EXPECT_EQ(out.str(), bytes);
}

TEST(SnapshotTest, DoublePrecisionPreserved) {
  Collection c(2);
  CollectionEntry e;
  e.url = Url{0, 0, 0};
  e.crawled_at = 123.456789012345678;
  e.importance = 1e-17;
  ASSERT_TRUE(c.Upsert(e).ok());
  std::stringstream buffer;
  ASSERT_TRUE(SaveCollection(c, buffer).ok());
  auto loaded = LoadCollection(buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ(loaded->Find(Url{0, 0, 0})->crawled_at,
                   e.crawled_at);
  EXPECT_DOUBLE_EQ(loaded->Find(Url{0, 0, 0})->importance, e.importance);
}

}  // namespace
}  // namespace webevo::crawler
