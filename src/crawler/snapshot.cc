#include "crawler/snapshot.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "crawler/crawl_module_pool.h"
#include "crawler/incremental_crawler.h"
#include "crawler/periodic_crawler.h"
#include "estimator/change_estimator.h"
#include "simweb/simulated_web.h"
#include "storage/delta_log.h"
#include "util/hash.h"
#include "util/record_line.h"
#include "util/text_snapshot.h"

namespace webevo::crawler {
namespace {

constexpr const char* kCollectionMagic = "webevo-collection";
constexpr const char* kAllUrlsMagic = "webevo-allurls";
constexpr const char* kUpdateModuleMagic = "webevo-update";
constexpr const char* kFrontierMagic = "webevo-frontier";
constexpr int kFormatVersion = 1;
// The UpdateModule format is versioned separately: version 2 replaced
// the module-global probe RNG with per-site streams (`R` records) and
// added the frozen scheduling page count to the `G` record.
constexpr int kUpdateFormatVersion = 2;
// Sanity bound on a flattened estimator-state vector. Integrity is only
// verified at the trailer, so parsed counts must be range-checked
// before they size an allocation.
constexpr std::size_t kMaxEstimatorState = 1 << 20;

constexpr simweb::UrlIdentityLess IdentityLess;

// The record formatters the full and delta sections share. Each
// formats one record into `line` and returns it.

const RecordLine& EntryLine(const CollectionEntry& e, RecordLine& line) {
  line.Start("E", e.url.site, e.url.slot, e.url.incarnation, e.page,
             e.version, e.checksum.lo, e.checksum.hi, e.crawled_at,
             e.importance, e.links.size());
  for (const simweb::Url& link : e.links) {
    line.Add(link.site, link.slot, link.incarnation);
  }
  return line;
}

const RecordLine& UrlInfoLine(const simweb::Url& url,
                              const AllUrls::UrlInfo& info, RecordLine& line) {
  return line.Start("U", url.site, url.slot, url.incarnation,
                    info.first_seen, info.in_links, info.dead);
}

const RecordLine& FrontierLine(const CollUrls::Entry& e, RecordLine& line) {
  return line.Start("F", e.url.site, e.url.slot, e.url.incarnation, e.when,
                    e.seq);
}

// A tombstone or URL-list record: `<tag> <site> <slot> <incarnation>`.
const RecordLine& UrlLine(std::string_view tag, const simweb::Url& url,
                          RecordLine& line) {
  return line.Start(tag, url.site, url.slot, url.incarnation);
}

// Appends a flattened estimator state after its length (0 when the
// page has no estimator of its own).
void AddEstimatorState(const estimator::ChangeEstimator* est,
                       RecordLine& line) {
  const std::vector<double> state =
      est == nullptr ? std::vector<double>() : est->SaveState();
  line.Add(state.size());
  for (double v : state) line.Add(v);
}

// `PageState` is UpdateModule's private per-page record, deduced so
// that this shared formatter needs no friendship.
template <typename PageState>
const RecordLine& PageStateLine(const simweb::Url& url, const PageState& state,
                                RecordLine& line) {
  line.Start("P", url.site, url.slot, url.incarnation, state.last_visit,
             state.visited, state.importance, state.probing_abandonment);
  AddEstimatorState(state.estimator.get(), line);
  return line;
}

const RecordLine& SiteEstimatorLine(uint32_t site,
                                    const estimator::ChangeEstimator& est,
                                    RecordLine& line) {
  line.Start("S", site);
  AddEstimatorState(&est, line);
  return line;
}

const RecordLine& RngLine(uint32_t site, const Rng& rng, RecordLine& line) {
  line.Start("R", site);
  for (uint64_t lane : rng.State()) line.Add(lane);
  return line;
}

StatusOr<CollectionEntry> ParseEntry(const std::string& line) {
  std::istringstream is(line);
  std::string tag;
  CollectionEntry e;
  std::size_t nlinks = 0;
  is >> tag >> e.url.site >> e.url.slot >> e.url.incarnation >> e.page >>
      e.version >> e.checksum.lo >> e.checksum.hi >> e.crawled_at >>
      e.importance >> nlinks;
  if (is.fail() || tag != "E") {
    return Status::InvalidArgument("malformed entry record");
  }
  e.links.reserve(nlinks);
  for (std::size_t i = 0; i < nlinks; ++i) {
    simweb::Url link;
    is >> link.site >> link.slot >> link.incarnation;
    if (is.fail()) {
      return Status::InvalidArgument("malformed link list");
    }
    e.links.push_back(link);
  }
  Status end = ExpectLineEnd(is, "entry");
  if (!end.ok()) return end;
  return e;
}

// Canonical writer shared by the Collection and ShardedCollection
// overloads: entries are emitted in ascending URL identity so equal
// logical collections produce equal bytes at every shard count.
Status WriteCollectionSnapshot(
    std::size_t capacity,
    std::vector<const CollectionEntry*> entries, std::ostream& out) {
  std::sort(entries.begin(), entries.end(),
            [](const CollectionEntry* a, const CollectionEntry* b) {
              return IdentityLess(a->url, b->url);
            });
  TrailerWriter writer(out);
  RecordLine line;
  writer.Line(
      line.Start(kCollectionMagic, kFormatVersion, capacity, entries.size()));
  for (const CollectionEntry* e : entries) writer.Line(EntryLine(*e, line));
  writer.Finish();
  if (!out.good()) return Status::Internal("snapshot write failed");
  return Status::Ok();
}

/// The parsed payload of a collection snapshot, verified against the
/// integrity trailer before anything is handed back.
struct CollectionPayload {
  std::size_t capacity = 0;
  std::vector<CollectionEntry> entries;
};

StatusOr<CollectionPayload> ReadCollectionSnapshot(std::istream& in) {
  TrailerReader reader(in);
  auto header = reader.Next();
  if (!header.ok()) return header.status();
  std::istringstream hs(*header);
  std::string magic;
  int version = 0;
  std::size_t count = 0;
  CollectionPayload payload;
  hs >> magic >> version >> payload.capacity >> count;
  if (hs.fail() || magic != kCollectionMagic) {
    return Status::InvalidArgument("not a collection snapshot");
  }
  if (version != kFormatVersion) {
    return Status::InvalidArgument("unsupported snapshot version");
  }
  Status header_end = ExpectLineEnd(hs, "collection header");
  if (!header_end.ok()) return header_end;
  payload.entries.reserve(std::min<std::size_t>(count, 1 << 20));
  for (std::size_t i = 0; i < count; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument("snapshot entry count mismatch");
    }
    auto entry = ParseEntry(*line);
    if (!entry.ok()) return entry.status();
    payload.entries.push_back(std::move(entry).value());
  }
  // Consume and verify the trailer before handing anything back, and
  // reject anything that follows it.
  Status end = FinishFramedStream(reader, in, "collection snapshot");
  if (!end.ok()) return end;
  return payload;
}

}  // namespace

Status SaveCollection(const Collection& collection, std::ostream& out) {
  std::vector<const CollectionEntry*> entries;
  entries.reserve(collection.size());
  collection.ForEach(
      [&](const CollectionEntry& e) { entries.push_back(&e); });
  return WriteCollectionSnapshot(collection.capacity(),
                                 std::move(entries), out);
}

Status SaveCollection(const ShardedCollection& collection,
                      std::ostream& out) {
  std::vector<const CollectionEntry*> entries;
  entries.reserve(collection.size());
  collection.ForEach(
      [&](const CollectionEntry& e) { entries.push_back(&e); });
  return WriteCollectionSnapshot(collection.capacity(),
                                 std::move(entries), out);
}

StatusOr<Collection> LoadCollection(std::istream& in) {
  auto payload = ReadCollectionSnapshot(in);
  if (!payload.ok()) return payload.status();
  Collection collection(payload->capacity);
  for (CollectionEntry& e : payload->entries) {
    Status stored = collection.Upsert(std::move(e));
    if (!stored.ok()) return stored;
  }
  return collection;
}

StatusOr<ShardedCollection> LoadShardedCollection(std::istream& in,
                                                  int num_shards) {
  auto payload = ReadCollectionSnapshot(in);
  if (!payload.ok()) return payload.status();
  ShardedCollection collection(payload->capacity, num_shards);
  for (CollectionEntry& e : payload->entries) {
    Status stored = collection.Upsert(std::move(e));
    if (!stored.ok()) return stored;
  }
  return collection;
}

Status SaveAllUrls(const AllUrls& all_urls, std::ostream& out) {
  TrailerWriter writer(out);
  RecordLine line;
  writer.Line(line.Start(kAllUrlsMagic, kFormatVersion, all_urls.size()));
  // Canonical record order regardless of internal shard layout.
  std::vector<std::pair<simweb::Url, const AllUrls::UrlInfo*>> records;
  records.reserve(all_urls.size());
  all_urls.ForEach([&](const simweb::Url& url,
                       const AllUrls::UrlInfo& info) {
    records.emplace_back(url, &info);
  });
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) {
              return IdentityLess(a.first, b.first);
            });
  for (const auto& [url, info] : records) {
    writer.Line(UrlInfoLine(url, *info, line));
  }
  writer.Finish();
  if (!out.good()) return Status::Internal("snapshot write failed");
  return Status::Ok();
}

StatusOr<AllUrls> LoadAllUrls(std::istream& in, int num_shards) {
  TrailerReader reader(in);
  auto header = reader.Next();
  if (!header.ok()) return header.status();
  std::istringstream hs(*header);
  std::string magic;
  int version = 0;
  std::size_t count = 0;
  hs >> magic >> version >> count;
  if (hs.fail() || magic != kAllUrlsMagic) {
    return Status::InvalidArgument("not an AllUrls snapshot");
  }
  if (version != kFormatVersion) {
    return Status::InvalidArgument("unsupported snapshot version");
  }
  Status header_end = ExpectLineEnd(hs, "allurls header");
  if (!header_end.ok()) return header_end;
  AllUrls all(num_shards);
  for (std::size_t i = 0; i < count; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument("snapshot entry count mismatch");
    }
    std::istringstream is(*line);
    std::string tag;
    simweb::Url url;
    double first_seen = 0.0;
    uint64_t in_links = 0;
    int dead = 0;
    is >> tag >> url.site >> url.slot >> url.incarnation >> first_seen >>
        in_links >> dead;
    if (is.fail() || tag != "U") {
      return Status::InvalidArgument("malformed url record");
    }
    Status record_end = ExpectLineEnd(is, "url");
    if (!record_end.ok()) return record_end;
    all.Add(url, first_seen);
    for (uint64_t k = 0; k < in_links; ++k) all.NoteInLink(url, first_seen);
    if (dead != 0) {
      Status st = all.MarkDead(url);
      if (!st.ok()) return st;
    }
  }
  Status end = FinishFramedStream(reader, in, "allurls snapshot");
  if (!end.ok()) return end;
  return all;
}

Status SaveUpdateModule(const UpdateModule& module, std::ostream& out) {
  // Gather the per-site records (estimator aggregates and probe RNG
  // streams) across shards in ascending site order — canonical bytes
  // at every shard count.
  std::vector<std::pair<uint32_t, const estimator::ChangeEstimator*>>
      site_records;
  for (const auto& shard : module.site_shards_) {
    for (const auto& [site, est] : shard) {
      site_records.emplace_back(site, est.get());
    }
  }
  std::sort(site_records.begin(), site_records.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<uint32_t, const Rng*>> rng_records;
  for (const auto& shard : module.rng_shards_) {
    for (const auto& [site, rng] : shard) {
      rng_records.emplace_back(site, &rng);
    }
  }
  std::sort(rng_records.begin(), rng_records.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  TrailerWriter writer(out);
  RecordLine line;
  writer.Line(
      line.Start(kUpdateModuleMagic, kUpdateFormatVersion,
                 estimator::EstimatorKindName(module.config_.estimator_kind),
                 module.tracked_pages(), site_records.size(),
                 rng_records.size()));
  writer.Line(line.Start("G", module.multiplier_, module.total_rate_,
                         module.mean_importance_, module.rebalance_count_,
                         module.frozen_page_count_));
  // Page records sorted by identity, so equal modules produce equal
  // bytes regardless of shard count and hash-map iteration order.
  for (const auto& [url, state] : module.SortedPages()) {
    writer.Line(PageStateLine(url, *state, line));
  }
  for (const auto& [site, est] : site_records) {
    writer.Line(SiteEstimatorLine(site, *est, line));
  }
  for (const auto& [site, rng] : rng_records) {
    writer.Line(RngLine(site, *rng, line));
  }
  writer.Finish();
  if (!out.good()) return Status::Internal("snapshot write failed");
  return Status::Ok();
}

Status LoadUpdateModule(std::istream& in, UpdateModule* module) {
  TrailerReader reader(in);
  auto header = reader.Next();
  if (!header.ok()) return header.status();
  std::istringstream hs(*header);
  std::string magic, kind;
  int version = 0;
  std::size_t npages = 0, nsites = 0, nrngs = 0;
  hs >> magic >> version >> kind >> npages >> nsites >> nrngs;
  if (hs.fail() || magic != kUpdateModuleMagic) {
    return Status::InvalidArgument("not an UpdateModule snapshot");
  }
  if (version != kUpdateFormatVersion) {
    return Status::InvalidArgument("unsupported snapshot version");
  }
  Status header_end = ExpectLineEnd(hs, "update header");
  if (!header_end.ok()) return header_end;
  if (kind !=
      estimator::EstimatorKindName(module->config_.estimator_kind)) {
    return Status::InvalidArgument(
        "snapshot estimator kind '" + kind +
        "' does not match the module's configuration");
  }

  // Restore into a staging module and swap in only after the trailer
  // verifies, so a corrupt snapshot never leaves `module` half-loaded.
  UpdateModule staged(module->config_);

  auto g_line = reader.Next();
  if (!g_line.ok()) return Status::InvalidArgument("missing G record");
  {
    std::istringstream is(*g_line);
    std::string tag;
    double multiplier = 0.0, total_rate = 0.0, mean_importance = 0.0;
    int64_t rebalance_count = 0;
    std::size_t frozen_pages = 0;
    is >> tag >> multiplier >> total_rate >> mean_importance >>
        rebalance_count >> frozen_pages;
    if (is.fail() || tag != "G") {
      return Status::InvalidArgument("malformed G record");
    }
    Status record_end = ExpectLineEnd(is, "G");
    if (!record_end.ok()) return record_end;
    staged.multiplier_ = multiplier;
    staged.total_rate_ = total_rate;
    staged.mean_importance_ = mean_importance;
    staged.rebalance_count_ = rebalance_count;
    staged.frozen_page_count_ = frozen_pages;
  }

  for (std::size_t i = 0; i < npages; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument("snapshot page count mismatch");
    }
    std::istringstream is(*line);
    std::string tag;
    simweb::Url url;
    double last_visit = 0.0, importance = 0.0;
    int visited = 0, probing = 0;
    std::size_t nstate = 0;
    is >> tag >> url.site >> url.slot >> url.incarnation >> last_visit >>
        visited >> importance >> probing >> nstate;
    if (is.fail() || tag != "P" || nstate > kMaxEstimatorState) {
      return Status::InvalidArgument("malformed page record");
    }
    std::vector<double> est_state(nstate);
    for (double& v : est_state) is >> v;
    if (is.fail()) {
      return Status::InvalidArgument("malformed page estimator state");
    }
    Status record_end = ExpectLineEnd(is, "page");
    if (!record_end.ok()) return record_end;
    UpdateModule::PageState state;
    state.last_visit = last_visit;
    state.visited = visited != 0;
    state.importance = importance;
    state.probing_abandonment = probing != 0;
    if (!est_state.empty()) {
      state.estimator =
          estimator::MakeEstimator(staged.config_.estimator_kind);
      Status st = state.estimator->RestoreState(est_state);
      if (!st.ok()) return st;
    }
    staged.page_shards_[staged.ShardOf(url.site)][url] = std::move(state);
  }
  for (std::size_t i = 0; i < nsites; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument("snapshot site count mismatch");
    }
    std::istringstream is(*line);
    std::string tag;
    uint32_t site = 0;
    std::size_t nstate = 0;
    is >> tag >> site >> nstate;
    if (is.fail() || tag != "S" || nstate > kMaxEstimatorState) {
      return Status::InvalidArgument("malformed site record");
    }
    std::vector<double> est_state(nstate);
    for (double& v : est_state) is >> v;
    if (is.fail()) {
      return Status::InvalidArgument("malformed site estimator state");
    }
    Status record_end = ExpectLineEnd(is, "site");
    if (!record_end.ok()) return record_end;
    auto estimator =
        estimator::MakeEstimator(staged.config_.estimator_kind);
    Status st = estimator->RestoreState(est_state);
    if (!st.ok()) return st;
    staged.site_shards_[staged.ShardOf(site)][site] =
        std::move(estimator);
  }
  for (std::size_t i = 0; i < nrngs; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument("snapshot rng count mismatch");
    }
    std::istringstream is(*line);
    std::string tag;
    uint32_t site = 0;
    std::array<uint64_t, 4> lanes{};
    is >> tag >> site >> lanes[0] >> lanes[1] >> lanes[2] >> lanes[3];
    if (is.fail() || tag != "R") {
      return Status::InvalidArgument("malformed rng record");
    }
    Status record_end = ExpectLineEnd(is, "rng");
    if (!record_end.ok()) return record_end;
    Rng rng(0);
    rng.SetState(lanes);
    staged.rng_shards_[staged.ShardOf(site)].insert_or_assign(site, rng);
  }

  Status end = FinishFramedStream(reader, in, "update snapshot");
  if (!end.ok()) return end;
  *module = std::move(staged);
  return Status::Ok();
}

Status SaveFrontier(const ShardedFrontier& frontier, std::ostream& out) {
  // Drain a copy shard by shard: PopEntry yields each live entry with
  // its exact (when, seq) key; sorting by the globally unique seq gives
  // canonical bytes at every shard count.
  ShardedFrontier scratch = frontier;
  std::vector<CollUrls::Entry> entries;
  entries.reserve(frontier.size());
  for (CollUrls& shard : scratch.shards_) {
    while (auto entry = shard.PopEntry()) {
      entries.push_back(*entry);
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const CollUrls::Entry& a, const CollUrls::Entry& b) {
              return a.seq < b.seq;
            });

  TrailerWriter writer(out);
  RecordLine line;
  writer.Line(line.Start(kFrontierMagic, kFormatVersion, entries.size(),
                         frontier.next_seq_, frontier.front_when_));
  for (const CollUrls::Entry& e : entries) {
    writer.Line(FrontierLine(e, line));
  }
  writer.Finish();
  if (!out.good()) return Status::Internal("snapshot write failed");
  return Status::Ok();
}

StatusOr<ShardedFrontier> LoadFrontier(std::istream& in, int num_shards) {
  TrailerReader reader(in);
  auto header = reader.Next();
  if (!header.ok()) return header.status();
  std::istringstream hs(*header);
  std::string magic;
  int version = 0;
  std::size_t count = 0;
  uint64_t next_seq = 0;
  double front_when = 0.0;
  hs >> magic >> version >> count >> next_seq >> front_when;
  if (hs.fail() || magic != kFrontierMagic) {
    return Status::InvalidArgument("not a frontier snapshot");
  }
  if (version != kFormatVersion) {
    return Status::InvalidArgument("unsupported snapshot version");
  }
  Status header_end = ExpectLineEnd(hs, "frontier header");
  if (!header_end.ok()) return header_end;
  ShardedFrontier frontier(num_shards);
  for (std::size_t i = 0; i < count; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument("snapshot entry count mismatch");
    }
    std::istringstream is(*line);
    std::string tag;
    simweb::Url url;
    double when = 0.0;
    uint64_t seq = 0;
    is >> tag >> url.site >> url.slot >> url.incarnation >> when >> seq;
    if (is.fail() || tag != "F") {
      return Status::InvalidArgument("malformed frontier record");
    }
    Status record_end = ExpectLineEnd(is, "frontier");
    if (!record_end.ok()) return record_end;
    frontier.shards_[frontier.ShardOf(url.site)].ScheduleAt(url, when,
                                                            seq);
  }
  frontier.next_seq_ = next_seq;
  frontier.front_when_ = front_when;
  Status end = FinishFramedStream(reader, in, "frontier snapshot");
  if (!end.ok()) return end;
  return frontier;
}

Status SaveCollectionToFile(const Collection& collection,
                            const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::NotFound("cannot open " + path + " for writing");
  }
  return SaveCollection(collection, out);
}

Status SaveCollectionToFile(const ShardedCollection& collection,
                            const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::NotFound("cannot open " + path + " for writing");
  }
  return SaveCollection(collection, out);
}

StatusOr<Collection> LoadCollectionFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open " + path);
  }
  return LoadCollection(in);
}

// ----------------------------------------------------- whole-crawler
// checkpoints: the versioned container bundling every stream a restart
// needs, plus the crawler-side state the individual Save* calls cannot
// see (see snapshot.h for the format).

namespace {

constexpr const char* kCrawlerMagic = "webevo-crawler";
constexpr int kCrawlerFormatVersion = 1;
constexpr const char* kIncMetaMagic = "webevo-incmeta";
// Incremental meta version 2: the C record grew the capacity-lease
// ledger (budget granted to shard leases, settled admissions) — the
// deterministic half of the lease protocol's accounting.
// Version 3: the C record grew the failure ledger (classified fetch
// failures, retries, quarantines, retirements) and a second L record
// carries the backoff-days RunningStat.
// Version 4: the C record grew the defense ledger (wasted fetches,
// throttled trap sites, suppressed duplicate URLs, migrated pages).
constexpr int kIncMetaVersion = 4;
constexpr const char* kPerMetaMagic = "webevo-permeta";
// Periodic meta version 2: the C record grew the failure ledger
// (classified fetch failures, bounded re-queues, per-cycle drops).
constexpr int kPerMetaVersion = 2;
// The failure-pipeline section shared by both crawlers: per-site
// circuit-breaker state (incremental only) and per-URL consecutive
// failure / re-queue counts. Optional on load — checkpoints written
// before the failure pipeline existed simply restart it from scratch.
constexpr const char* kFailureMagic = "webevo-failure";
constexpr const char* kPoliteMagic = "webevo-polite";
constexpr const char* kTrackerMagic = "webevo-tracker";
constexpr const char* kUrlsMagic = "webevo-urls";
// The adversarial-defense section (incremental crawler only): per-site
// diminishing-returns state machines and the content-fingerprint
// registry's canonical owners. Optional on load — checkpoints written
// before the defense layer existed restart it (and the registry) from
// scratch.
constexpr const char* kDefenseMagic = "webevo-defense";
// The optional pool-level traffic aggregate (absolute-day fetch
// histogram + global counters); see CrawlModulePool::Traffic.
constexpr const char* kTrafficMagic = "webevo-traffic";
// Delta-section magics of the incremental checkpoint mode.
constexpr const char* kCollDeltaMagic = "webevo-dcoll";
constexpr const char* kAllUrlsDeltaMagic = "webevo-dallurls";
constexpr const char* kUpdateDeltaMagic = "webevo-dupdate";
constexpr const char* kFrontierDeltaMagic = "webevo-dfrontier";
// Range guard on the section table, parsed before its checksum covers
// an allocation decision.
constexpr std::size_t kMaxSections = 16;
constexpr const char* kIncrementalKind = "incremental";
constexpr const char* kPeriodicKind = "periodic";

struct Section {
  std::string name;
  std::string bytes;
};

Status WriteContainer(const std::string& kind,
                      const std::vector<Section>& sections,
                      std::ostream& out) {
  TrailerWriter writer(out);
  RecordLine line;
  writer.Line(
      line.Start(kCrawlerMagic, kCrawlerFormatVersion, kind, sections.size()));
  for (const Section& s : sections) {
    writer.Line(line.Start("S", s.name, s.bytes.size(), Fnv1a64(s.bytes)));
  }
  writer.Finish();
  for (const Section& s : sections) {
    out.write(s.bytes.data(),
              static_cast<std::streamsize>(s.bytes.size()));
  }
  if (!out.good()) return Status::Internal("checkpoint write failed");
  return Status::Ok();
}

/// Reads and fully verifies a container: the header trailer first, then
/// each section against its table length and checksum — so truncation
/// and corruption surface *before* any section is parsed — and finally
/// end-of-stream (a checkpoint with trailing garbage was not written by
/// us and must not be trusted).
StatusOr<std::vector<Section>> ReadContainer(
    std::istream& in, const std::string& expected_kind) {
  TrailerReader reader(in);
  auto header = reader.Next();
  if (!header.ok()) return header.status();
  std::istringstream hs(*header);
  std::string magic, kind;
  int version = 0;
  std::size_t nsections = 0;
  hs >> magic >> version >> kind >> nsections;
  if (hs.fail() || magic != kCrawlerMagic) {
    return Status::InvalidArgument("not a crawler checkpoint");
  }
  if (version != kCrawlerFormatVersion) {
    return Status::InvalidArgument("unsupported checkpoint version");
  }
  Status header_end = ExpectLineEnd(hs, "checkpoint header");
  if (!header_end.ok()) return header_end;
  if (kind != expected_kind) {
    return Status::InvalidArgument(
        "checkpoint kind '" + kind + "' does not match this crawler ('" +
        expected_kind + "')");
  }
  if (nsections > kMaxSections) {
    return Status::InvalidArgument("implausible checkpoint section count");
  }
  struct TableEntry {
    std::string name;
    std::size_t length = 0;
    uint64_t hash = 0;
  };
  std::vector<TableEntry> table;
  table.reserve(nsections);
  for (std::size_t i = 0; i < nsections; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument("checkpoint section table truncated");
    }
    std::istringstream is(*line);
    std::string tag;
    TableEntry entry;
    is >> tag >> entry.name >> entry.length >> entry.hash;
    if (is.fail() || tag != "S") {
      return Status::InvalidArgument("malformed checkpoint section record");
    }
    Status record_end = ExpectLineEnd(is, "section");
    if (!record_end.ok()) return record_end;
    table.push_back(std::move(entry));
  }
  auto end = reader.Next();
  if (end.ok() || !reader.done()) {
    return end.ok() ? Status::InvalidArgument(
                          "trailing data in checkpoint header")
                    : end.status();
  }
  std::vector<Section> sections;
  sections.reserve(table.size());
  for (TableEntry& entry : table) {
    // Read in bounded chunks rather than trusting the table-claimed
    // length for one allocation: a crafted length can be recomputed
    // into a "valid" table, and the honest failure mode for a length
    // beyond the actual file is a truncation error, not bad_alloc.
    std::string bytes;
    bytes.reserve(std::min<std::size_t>(entry.length, 1 << 20));
    std::size_t remaining = entry.length;
    char buf[1 << 16];
    while (remaining > 0) {
      const std::size_t want = std::min(remaining, sizeof(buf));
      in.read(buf, static_cast<std::streamsize>(want));
      const auto got = static_cast<std::size_t>(in.gcount());
      bytes.append(buf, got);
      if (got < want) {
        return Status::InvalidArgument(
            "checkpoint truncated in section '" + entry.name + "'");
      }
      remaining -= got;
    }
    if (Fnv1a64(bytes) != entry.hash) {
      return Status::InvalidArgument("checkpoint section '" + entry.name +
                                     "' corrupted");
    }
    sections.push_back(Section{std::move(entry.name), std::move(bytes)});
  }
  Status stream_end = ExpectStreamEnd(in, "checkpoint");
  if (!stream_end.ok()) return stream_end;
  return sections;
}

const std::string* FindSection(const std::vector<Section>& sections,
                               const std::string& name) {
  for (const Section& s : sections) {
    if (s.name == name) return &s.bytes;
  }
  return nullptr;
}

Status MissingSection(const std::string& name) {
  return Status::InvalidArgument("checkpoint missing section '" + name +
                                 "'");
}

void WritePolite(const std::vector<std::pair<uint32_t, double>>& records,
                 std::ostream& out) {
  TrailerWriter writer(out);
  RecordLine line;
  writer.Line(line.Start(kPoliteMagic, kFormatVersion, records.size()));
  for (const auto& [site, last_access] : records) {
    writer.Line(line.Start("A", site, last_access));
  }
  writer.Finish();
}

StatusOr<std::vector<std::pair<uint32_t, double>>> ReadPolite(
    std::istream& in) {
  TrailerReader reader(in);
  auto header = reader.Next();
  if (!header.ok()) return header.status();
  std::istringstream hs(*header);
  std::string magic;
  int version = 0;
  std::size_t count = 0;
  hs >> magic >> version >> count;
  if (hs.fail() || magic != kPoliteMagic || version != kFormatVersion) {
    return Status::InvalidArgument("not a politeness snapshot");
  }
  Status header_end = ExpectLineEnd(hs, "polite header");
  if (!header_end.ok()) return header_end;
  std::vector<std::pair<uint32_t, double>> records;
  records.reserve(std::min<std::size_t>(count, 1 << 20));
  for (std::size_t i = 0; i < count; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument("politeness record count mismatch");
    }
    std::istringstream is(*line);
    std::string tag;
    uint32_t site = 0;
    double last_access = 0.0;
    is >> tag >> site >> last_access;
    if (is.fail() || tag != "A") {
      return Status::InvalidArgument("malformed politeness record");
    }
    Status record_end = ExpectLineEnd(is, "politeness");
    if (!record_end.ok()) return record_end;
    records.emplace_back(site, last_access);
  }
  Status end = FinishFramedStream(reader, in, "politeness snapshot");
  if (!end.ok()) return end;
  return records;
}

void WriteTracker(const freshness::FreshnessTracker& tracker,
                  std::ostream& out) {
  TrailerWriter writer(out);
  RecordLine line;
  writer.Line(line.Start(kTrackerMagic, kFormatVersion, tracker.size()));
  for (std::size_t i = 0; i < tracker.size(); ++i) {
    writer.Line(line.Start("V", tracker.times()[i], tracker.values()[i]));
  }
  writer.Finish();
}

struct TrackerSeries {
  std::vector<double> times;
  std::vector<double> values;
};

StatusOr<TrackerSeries> ReadTracker(std::istream& in) {
  TrailerReader reader(in);
  auto header = reader.Next();
  if (!header.ok()) return header.status();
  std::istringstream hs(*header);
  std::string magic;
  int version = 0;
  std::size_t count = 0;
  hs >> magic >> version >> count;
  if (hs.fail() || magic != kTrackerMagic || version != kFormatVersion) {
    return Status::InvalidArgument("not a tracker snapshot");
  }
  Status header_end = ExpectLineEnd(hs, "tracker header");
  if (!header_end.ok()) return header_end;
  TrackerSeries series;
  series.times.reserve(std::min<std::size_t>(count, 1 << 20));
  series.values.reserve(std::min<std::size_t>(count, 1 << 20));
  for (std::size_t i = 0; i < count; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument("tracker sample count mismatch");
    }
    std::istringstream is(*line);
    std::string tag;
    double time = 0.0, value = 0.0;
    is >> tag >> time >> value;
    if (is.fail() || tag != "V") {
      return Status::InvalidArgument("malformed tracker record");
    }
    Status record_end = ExpectLineEnd(is, "tracker");
    if (!record_end.ok()) return record_end;
    series.times.push_back(time);
    series.values.push_back(value);
  }
  Status end = FinishFramedStream(reader, in, "tracker snapshot");
  if (!end.ok()) return end;
  return series;
}

// A plain URL list (the BFS queue in queue order, the seen-set and the
// pending-admission set in canonical order).
void WriteUrlList(const std::vector<simweb::Url>& urls,
                  std::ostream& out) {
  TrailerWriter writer(out);
  RecordLine line;
  writer.Line(line.Start(kUrlsMagic, kFormatVersion, urls.size()));
  for (const simweb::Url& url : urls) writer.Line(UrlLine("Q", url, line));
  writer.Finish();
}

StatusOr<std::vector<simweb::Url>> ReadUrlList(std::istream& in) {
  TrailerReader reader(in);
  auto header = reader.Next();
  if (!header.ok()) return header.status();
  std::istringstream hs(*header);
  std::string magic;
  int version = 0;
  std::size_t count = 0;
  hs >> magic >> version >> count;
  if (hs.fail() || magic != kUrlsMagic || version != kFormatVersion) {
    return Status::InvalidArgument("not a url-list snapshot");
  }
  Status header_end = ExpectLineEnd(hs, "url-list header");
  if (!header_end.ok()) return header_end;
  std::vector<simweb::Url> urls;
  urls.reserve(std::min<std::size_t>(count, 1 << 20));
  for (std::size_t i = 0; i < count; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument("url-list record count mismatch");
    }
    std::istringstream is(*line);
    std::string tag;
    simweb::Url url;
    is >> tag >> url.site >> url.slot >> url.incarnation;
    if (is.fail() || tag != "Q") {
      return Status::InvalidArgument("malformed url-list record");
    }
    Status record_end = ExpectLineEnd(is, "url-list");
    if (!record_end.ok()) return record_end;
    urls.push_back(url);
  }
  Status end = FinishFramedStream(reader, in, "url-list snapshot");
  if (!end.ok()) return end;
  return urls;
}

const RecordLine& RunningStatLine(const RunningStat& stat, RecordLine& line) {
  const RunningStat::State state = stat.SaveState();
  return line.Start("L", state.count, state.mean, state.m2, state.min,
                    state.max);
}

StatusOr<RunningStat::State> ParseRunningStatLine(
    const std::string& line) {
  std::istringstream is(line);
  std::string tag;
  RunningStat::State state;
  is >> tag >> state.count >> state.mean >> state.m2 >> state.min >>
      state.max;
  if (is.fail() || tag != "L") {
    return Status::InvalidArgument("malformed running-stat record");
  }
  Status record_end = ExpectLineEnd(is, "running-stat");
  if (!record_end.ok()) return record_end;
  return state;
}

// The failure-pipeline state both crawlers checkpoint: the per-site
// circuit breakers with their backoff RNG lanes (incremental; empty
// for the periodic crawler) and the per-URL failure counts (retirement
// counts / per-cycle re-queue counts). Records are written in
// canonical order — sites ascending, URLs by identity — so equal state
// yields equal bytes at every shard count.
struct SiteFailureRecord {
  uint32_t site = 0;
  uint32_t consecutive = 0;
  double quarantined_until = 0.0;
  int rng_init = 0;
  std::array<uint64_t, 4> lane{};
};

struct UrlFailureRecord {
  simweb::Url url;
  uint32_t count = 0;
};

struct FailureSnapshot {
  std::vector<SiteFailureRecord> sites;
  std::vector<UrlFailureRecord> urls;
};

void WriteFailure(const FailureSnapshot& snap, std::ostream& out) {
  TrailerWriter writer(out);
  RecordLine line;
  writer.Line(line.Start(kFailureMagic, kFormatVersion, snap.sites.size(),
                         snap.urls.size()));
  for (const SiteFailureRecord& r : snap.sites) {
    line.Start("S", r.site, r.consecutive, r.quarantined_until, r.rng_init);
    for (uint64_t lane : r.lane) line.Add(lane);
    writer.Line(line);
  }
  for (const UrlFailureRecord& r : snap.urls) {
    writer.Line(
        line.Start("U", r.url.site, r.url.slot, r.url.incarnation, r.count));
  }
  writer.Finish();
}

StatusOr<FailureSnapshot> ReadFailure(std::istream& in) {
  TrailerReader reader(in);
  auto header = reader.Next();
  if (!header.ok()) return header.status();
  std::istringstream hs(*header);
  std::string magic;
  int version = 0;
  std::size_t nsites = 0, nurls = 0;
  hs >> magic >> version >> nsites >> nurls;
  if (hs.fail() || magic != kFailureMagic || version != kFormatVersion) {
    return Status::InvalidArgument("not a failure-state snapshot");
  }
  Status header_end = ExpectLineEnd(hs, "failure header");
  if (!header_end.ok()) return header_end;
  FailureSnapshot snap;
  snap.sites.reserve(std::min<std::size_t>(nsites, 1 << 20));
  snap.urls.reserve(std::min<std::size_t>(nurls, 1 << 20));
  for (std::size_t i = 0; i < nsites; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument("failure site count mismatch");
    }
    std::istringstream is(*line);
    std::string tag;
    SiteFailureRecord r;
    is >> tag >> r.site >> r.consecutive >> r.quarantined_until >>
        r.rng_init;
    for (uint64_t& lane : r.lane) is >> lane;
    if (is.fail() || tag != "S") {
      return Status::InvalidArgument("malformed failure site record");
    }
    Status record_end = ExpectLineEnd(is, "failure site");
    if (!record_end.ok()) return record_end;
    snap.sites.push_back(r);
  }
  for (std::size_t i = 0; i < nurls; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument("failure url count mismatch");
    }
    std::istringstream is(*line);
    std::string tag;
    UrlFailureRecord r;
    is >> tag >> r.url.site >> r.url.slot >> r.url.incarnation >>
        r.count;
    if (is.fail() || tag != "U") {
      return Status::InvalidArgument("malformed failure url record");
    }
    Status record_end = ExpectLineEnd(is, "failure url");
    if (!record_end.ok()) return record_end;
    snap.urls.push_back(r);
  }
  Status end = FinishFramedStream(reader, in, "failure snapshot");
  if (!end.ok()) return end;
  return snap;
}

// The defense-layer state the incremental crawler checkpoints: the
// per-site diminishing-returns machines (`D` records, sites ascending)
// and the fingerprint registry's canonical owners (`F` records, sorted
// by (hi, lo)) — both canonical orders, so equal state yields equal
// bytes at every shard count.
struct DefenseSiteRecord {
  uint32_t site = 0;
  uint64_t window_fetches = 0;
  uint64_t window_fresh = 0;
  uint32_t throttle_level = 0;
  int quarantined = 0;
  double quarantined_until = 0.0;
  uint64_t suppressed_total = 0;
};

struct DefenseFingerprintRecord {
  Checksum128 checksum;
  simweb::Url url;
};

struct DefenseSnapshot {
  std::vector<DefenseSiteRecord> sites;
  std::vector<DefenseFingerprintRecord> fingerprints;
};

void WriteDefense(const DefenseSnapshot& snap, std::ostream& out) {
  TrailerWriter writer(out);
  RecordLine line;
  writer.Line(line.Start(kDefenseMagic, kFormatVersion, snap.sites.size(),
                         snap.fingerprints.size()));
  for (const DefenseSiteRecord& r : snap.sites) {
    writer.Line(line.Start("D", r.site, r.window_fetches, r.window_fresh,
                           r.throttle_level, r.quarantined, r.quarantined_until,
                           r.suppressed_total));
  }
  for (const DefenseFingerprintRecord& r : snap.fingerprints) {
    writer.Line(line.Start("F", r.checksum.hi, r.checksum.lo, r.url.site,
                           r.url.slot, r.url.incarnation));
  }
  writer.Finish();
}

StatusOr<DefenseSnapshot> ReadDefense(std::istream& in) {
  TrailerReader reader(in);
  auto header = reader.Next();
  if (!header.ok()) return header.status();
  std::istringstream hs(*header);
  std::string magic;
  int version = 0;
  std::size_t nsites = 0, nfps = 0;
  hs >> magic >> version >> nsites >> nfps;
  if (hs.fail() || magic != kDefenseMagic || version != kFormatVersion) {
    return Status::InvalidArgument("not a defense-state snapshot");
  }
  Status header_end = ExpectLineEnd(hs, "defense header");
  if (!header_end.ok()) return header_end;
  DefenseSnapshot snap;
  snap.sites.reserve(std::min<std::size_t>(nsites, 1 << 20));
  snap.fingerprints.reserve(std::min<std::size_t>(nfps, 1 << 20));
  for (std::size_t i = 0; i < nsites; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument("defense site count mismatch");
    }
    std::istringstream is(*line);
    std::string tag;
    DefenseSiteRecord r;
    is >> tag >> r.site >> r.window_fetches >> r.window_fresh >>
        r.throttle_level >> r.quarantined >> r.quarantined_until >>
        r.suppressed_total;
    if (is.fail() || tag != "D") {
      return Status::InvalidArgument("malformed defense site record");
    }
    Status record_end = ExpectLineEnd(is, "defense site");
    if (!record_end.ok()) return record_end;
    snap.sites.push_back(r);
  }
  for (std::size_t i = 0; i < nfps; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument("defense fingerprint count mismatch");
    }
    std::istringstream is(*line);
    std::string tag;
    DefenseFingerprintRecord r;
    is >> tag >> r.checksum.hi >> r.checksum.lo >> r.url.site >>
        r.url.slot >> r.url.incarnation;
    if (is.fail() || tag != "F") {
      return Status::InvalidArgument(
          "malformed defense fingerprint record");
    }
    Status record_end = ExpectLineEnd(is, "defense fingerprint");
    if (!record_end.ok()) return record_end;
    snap.fingerprints.push_back(r);
  }
  Status end = FinishFramedStream(reader, in, "defense snapshot");
  if (!end.ok()) return end;
  return snap;
}

// The pool-level traffic aggregate (CrawlModulePool::Traffic): one `G`
// record with the global counters and time bounds, then one `D` record
// per *non-empty* absolute day bucket, ascending — canonical because
// the aggregate is a pure function of the fetch stream.
void WriteTraffic(const CrawlModulePool::Traffic& traffic,
                  std::ostream& out) {
  std::size_t ndays = 0;
  for (uint64_t count : traffic.fetches_per_day) {
    if (count != 0) ++ndays;
  }
  TrailerWriter writer(out);
  RecordLine line;
  writer.Line(line.Start(kTrafficMagic, kFormatVersion, ndays));
  writer.Line(line.Start("G", traffic.fetch_count, traffic.failure_count,
                         traffic.politeness_rejections, traffic.any_fetch,
                         traffic.first_fetch_time, traffic.last_fetch_time));
  for (std::size_t day = 0; day < traffic.fetches_per_day.size(); ++day) {
    if (traffic.fetches_per_day[day] == 0) continue;
    writer.Line(line.Start("D", day, traffic.fetches_per_day[day]));
  }
  writer.Finish();
}

StatusOr<CrawlModulePool::Traffic> ReadTraffic(std::istream& in) {
  TrailerReader reader(in);
  auto header = reader.Next();
  if (!header.ok()) return header.status();
  std::istringstream hs(*header);
  std::string magic;
  int version = 0;
  std::size_t ndays = 0;
  hs >> magic >> version >> ndays;
  if (hs.fail() || magic != kTrafficMagic || version != kFormatVersion) {
    return Status::InvalidArgument("not a traffic snapshot");
  }
  Status header_end = ExpectLineEnd(hs, "traffic header");
  if (!header_end.ok()) return header_end;
  CrawlModulePool::Traffic traffic;
  auto g_line = reader.Next();
  if (!g_line.ok()) return Status::InvalidArgument("missing traffic G record");
  {
    std::istringstream is(*g_line);
    std::string tag;
    int any = 0;
    is >> tag >> traffic.fetch_count >> traffic.failure_count >>
        traffic.politeness_rejections >> any >> traffic.first_fetch_time >>
        traffic.last_fetch_time;
    if (is.fail() || tag != "G") {
      return Status::InvalidArgument("malformed traffic G record");
    }
    Status record_end = ExpectLineEnd(is, "traffic G");
    if (!record_end.ok()) return record_end;
    traffic.any_fetch = any != 0;
  }
  // Range guard before sizing the histogram off parsed day indices.
  constexpr std::size_t kMaxTrafficDays = 1 << 24;
  for (std::size_t i = 0; i < ndays; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument("traffic day count mismatch");
    }
    std::istringstream is(*line);
    std::string tag;
    std::size_t day = 0;
    uint64_t count = 0;
    is >> tag >> day >> count;
    if (is.fail() || tag != "D" || day >= kMaxTrafficDays) {
      return Status::InvalidArgument("malformed traffic day record");
    }
    Status record_end = ExpectLineEnd(is, "traffic day");
    if (!record_end.ok()) return record_end;
    if (day >= traffic.fetches_per_day.size()) {
      traffic.fetches_per_day.resize(day + 1, 0);
    }
    traffic.fetches_per_day[day] = count;
  }
  Status end = FinishFramedStream(reader, in, "traffic snapshot");
  if (!end.ok()) return end;
  return traffic;
}

}  // namespace

/// Shared plumbing of the full and incremental whole-crawler
/// checkpoints — the private-state section builders, their parsers,
/// and the delta-segment apply. Befriended by IncrementalCrawler so
/// SaveCrawler / LoadCrawler / CheckpointIncremental share one
/// implementation of each section instead of three.
struct CheckpointIo {
  /// Parsed "meta" section of an incremental-crawler checkpoint.
  struct IncMetaState {
    double now = 0.0, next_refine = 0.0, next_rebalance = 0.0,
           next_sample = 0.0, steady_since = 0.0;
    uint64_t batches_completed = 0;
    int reached_capacity = 0;
    int64_t refinements = 0;
    IncrementalCrawler::Stats stats;
  };

  static std::string IncMeta(const IncrementalCrawler& crawler) {
    std::ostringstream os;
    TrailerWriter writer(os);
    RecordLine line;
    writer.Line(line.Start(kIncMetaMagic, kIncMetaVersion));
    writer.Line(line.Start("T", crawler.now_, crawler.next_refine_,
                           crawler.next_rebalance_, crawler.next_sample_,
                           crawler.steady_since_));
    writer.Line(line.Start("B", crawler.batches_completed_,
                           crawler.reached_capacity_once_));
    const IncrementalCrawler::Stats& s = crawler.stats_;
    writer.Line(
        line.Start("C", s.crawls, s.in_place_updates, s.pages_added,
                   s.pages_evicted, s.replacements_executed,
                   s.dead_pages_removed, s.changes_detected,
                   s.politeness_retries, s.in_batch_retries,
                   s.lease_budget_granted, s.lease_admissions, s.fetch_failures,
                   s.transient_errors, s.timeout_errors, s.failure_retries,
                   s.sites_quarantined, s.urls_retired, s.wasted_fetches,
                   s.trap_sites_throttled, s.duplicate_urls_suppressed,
                   s.pages_migrated,
                   crawler.ranking_module_.refinement_count()));
    writer.Line(RunningStatLine(s.new_page_latency_days, line));
    writer.Line(RunningStatLine(s.backoff_days, line));
    writer.Finish();
    return os.str();
  }

  static StatusOr<IncMetaState> ParseIncMeta(const std::string& bytes) {
    IncMetaState meta;
    int meta_version = 0;
    std::istringstream ms(bytes);
    TrailerReader reader(ms);
    auto header = reader.Next();
    if (!header.ok()) return header.status();
    {
      std::istringstream hs(*header);
      std::string magic;
      hs >> magic >> meta_version;
      if (hs.fail() || magic != kIncMetaMagic) {
        return Status::InvalidArgument("malformed checkpoint meta header");
      }
      // Older metas stay loadable: a version-1 C record lacks the
      // lease ledger, versions 1-2 lack the failure ledger, versions
      // 1-3 lack the defense ledger — those counters simply restart
      // at zero.
      if (meta_version < 1 || meta_version > kIncMetaVersion) {
        return Status::InvalidArgument(
            "unsupported checkpoint meta version");
      }
      Status end = ExpectLineEnd(hs, "meta header");
      if (!end.ok()) return end;
    }
    auto t_line = reader.Next();
    if (!t_line.ok()) return t_line.status();
    {
      std::istringstream is(*t_line);
      std::string tag;
      is >> tag >> meta.now >> meta.next_refine >> meta.next_rebalance >>
          meta.next_sample >> meta.steady_since;
      if (is.fail() || tag != "T") {
        return Status::InvalidArgument("malformed checkpoint T record");
      }
      Status end = ExpectLineEnd(is, "T");
      if (!end.ok()) return end;
    }
    auto b_line = reader.Next();
    if (!b_line.ok()) return b_line.status();
    {
      std::istringstream is(*b_line);
      std::string tag;
      is >> tag >> meta.batches_completed >> meta.reached_capacity;
      if (is.fail() || tag != "B") {
        return Status::InvalidArgument("malformed checkpoint B record");
      }
      Status end = ExpectLineEnd(is, "B");
      if (!end.ok()) return end;
    }
    auto c_line = reader.Next();
    if (!c_line.ok()) return c_line.status();
    {
      std::istringstream is(*c_line);
      std::string tag;
      IncrementalCrawler::Stats& stats = meta.stats;
      is >> tag >> stats.crawls >> stats.in_place_updates >>
          stats.pages_added >> stats.pages_evicted >>
          stats.replacements_executed >> stats.dead_pages_removed >>
          stats.changes_detected >> stats.politeness_retries >>
          stats.in_batch_retries;
      if (meta_version >= 2) {
        is >> stats.lease_budget_granted >> stats.lease_admissions;
      }
      if (meta_version >= 3) {
        is >> stats.fetch_failures >> stats.transient_errors >>
            stats.timeout_errors >> stats.failure_retries >>
            stats.sites_quarantined >> stats.urls_retired;
      }
      if (meta_version >= 4) {
        is >> stats.wasted_fetches >> stats.trap_sites_throttled >>
            stats.duplicate_urls_suppressed >> stats.pages_migrated;
      }
      is >> meta.refinements;
      if (is.fail() || tag != "C") {
        return Status::InvalidArgument("malformed checkpoint C record");
      }
      Status end = ExpectLineEnd(is, "C");
      if (!end.ok()) return end;
    }
    auto l_line = reader.Next();
    if (!l_line.ok()) return l_line.status();
    auto latency = ParseRunningStatLine(*l_line);
    if (!latency.ok()) return latency.status();
    meta.stats.new_page_latency_days.RestoreState(*latency);
    if (meta_version >= 3) {
      auto backoff_line = reader.Next();
      if (!backoff_line.ok()) return backoff_line.status();
      auto backoff = ParseRunningStatLine(*backoff_line);
      if (!backoff.ok()) return backoff.status();
      meta.stats.backoff_days.RestoreState(*backoff);
    }
    Status end = FinishFramedStream(reader, ms, "checkpoint meta");
    if (!end.ok()) return end;
    return meta;
  }

  /// Installs a parsed meta section's scalars (everything but the
  /// sections with their own appliers).
  static void ApplyIncMeta(const IncMetaState& meta,
                           IncrementalCrawler* crawler) {
    crawler->stats_ = meta.stats;
    crawler->ranking_module_.RestoreRefinementCount(meta.refinements);
    crawler->now_ = meta.now;
    crawler->next_refine_ = meta.next_refine;
    crawler->next_rebalance_ = meta.next_rebalance;
    crawler->next_sample_ = meta.next_sample;
    crawler->steady_since_ = meta.steady_since;
    crawler->reached_capacity_once_ = meta.reached_capacity != 0;
    crawler->batches_completed_ = meta.batches_completed;
    crawler->bootstrapped_ = true;
  }

  static std::string Pending(const IncrementalCrawler& crawler) {
    // The sharded pending-admission sets merge into one canonical URL
    // list (the split is re-derived on load from the loading crawler's
    // shard count).
    std::vector<simweb::Url> pending;
    for (const auto& shard : crawler.pending_shards_) {
      pending.insert(pending.end(), shard.begin(), shard.end());
    }
    std::sort(pending.begin(), pending.end(), IdentityLess);
    std::ostringstream os;
    WriteUrlList(pending, os);
    return os.str();
  }

  static void ApplyPending(const std::vector<simweb::Url>& pending,
                           IncrementalCrawler* crawler) {
    for (auto& shard : crawler->pending_shards_) shard.clear();
    for (const simweb::Url& url : pending) crawler->PendingInsert(url);
  }

  static std::string Failure(const IncrementalCrawler& crawler) {
    // Circuit breakers (with their backoff RNG lane positions) and
    // retirement counts, in canonical order, so a resume mid-backoff
    // or mid-quarantine replays the same schedule.
    FailureSnapshot snap;
    for (const auto& shard : crawler.site_failure_shards_) {
      for (const auto& [site, state] : shard) {
        SiteFailureRecord r;
        r.site = site;
        r.consecutive = state.consecutive;
        r.quarantined_until = state.quarantined_until;
        r.rng_init = state.rng_init ? 1 : 0;
        if (state.rng_init) r.lane = state.backoff.State();
        snap.sites.push_back(r);
      }
    }
    std::sort(snap.sites.begin(), snap.sites.end(),
              [](const SiteFailureRecord& a, const SiteFailureRecord& b) {
                return a.site < b.site;
              });
    for (const auto& shard : crawler.url_failure_shards_) {
      for (const auto& [url, fails] : shard) {
        snap.urls.push_back(UrlFailureRecord{url, fails});
      }
    }
    std::sort(snap.urls.begin(), snap.urls.end(),
              [](const UrlFailureRecord& a, const UrlFailureRecord& b) {
                return IdentityLess(a.url, b.url);
              });
    std::ostringstream os;
    WriteFailure(snap, os);
    return os.str();
  }

  static void ApplyFailure(const FailureSnapshot& failure,
                           IncrementalCrawler* crawler) {
    // Failure state re-shards by the same site % N ownership rule the
    // live pipeline uses, so a resume at any shard count lands each
    // site's backoff lane (mid-sequence RNG position included) and
    // each URL's fail count in the shard that will consult it.
    const auto shards =
        static_cast<uint32_t>(crawler->site_failure_shards_.size());
    for (auto& shard : crawler->site_failure_shards_) shard.clear();
    for (const SiteFailureRecord& r : failure.sites) {
      IncrementalCrawler::SiteFailureState state;
      state.consecutive = r.consecutive;
      state.quarantined_until = r.quarantined_until;
      state.rng_init = r.rng_init != 0;
      if (state.rng_init) state.backoff.SetState(r.lane);
      crawler->site_failure_shards_[r.site % shards].emplace(r.site,
                                                            state);
    }
    for (auto& shard : crawler->url_failure_shards_) shard.clear();
    for (const UrlFailureRecord& r : failure.urls) {
      crawler->url_failure_shards_[r.url.site % shards].emplace(r.url,
                                                               r.count);
    }
  }

  static std::string Defense(const IncrementalCrawler& crawler) {
    // Per-site diminishing-returns machines and the fingerprint
    // registry, in canonical order, so a run killed mid-throttle
    // resumes byte-identically at any shard count.
    DefenseSnapshot snap;
    for (const auto& shard : crawler.site_defense_shards_) {
      for (const auto& [site, state] : shard) {
        DefenseSiteRecord r;
        r.site = site;
        r.window_fetches = state.window_fetches;
        r.window_fresh = state.window_fresh;
        r.throttle_level = state.throttle_level;
        r.quarantined = state.quarantined ? 1 : 0;
        r.quarantined_until = state.quarantined_until;
        r.suppressed_total = state.suppressed_total;
        snap.sites.push_back(r);
      }
    }
    std::sort(snap.sites.begin(), snap.sites.end(),
              [](const DefenseSiteRecord& a, const DefenseSiteRecord& b) {
                return a.site < b.site;
              });
    for (const auto& [checksum, url] :
         crawler.all_urls_.SortedFingerprints()) {
      snap.fingerprints.push_back(DefenseFingerprintRecord{checksum, url});
    }
    std::ostringstream os;
    WriteDefense(snap, os);
    return os.str();
  }

  static void ApplyDefense(const DefenseSnapshot& defense,
                           IncrementalCrawler* crawler) {
    // Re-shards by the same site % N ownership rule as the live layer.
    // Must run after the AllUrls commit (ReplaceEntriesFrom), which
    // installs the staged — registry-free — URL table.
    const auto shards =
        static_cast<uint32_t>(crawler->site_defense_shards_.size());
    for (auto& shard : crawler->site_defense_shards_) shard.clear();
    for (const DefenseSiteRecord& r : defense.sites) {
      IncrementalCrawler::SiteDefenseState state;
      state.window_fetches = r.window_fetches;
      state.window_fresh = r.window_fresh;
      state.throttle_level = r.throttle_level;
      state.quarantined = r.quarantined != 0;
      state.quarantined_until = r.quarantined_until;
      state.suppressed_total = r.suppressed_total;
      crawler->site_defense_shards_[r.site % shards].emplace(r.site,
                                                             state);
    }
    crawler->all_urls_.ClearFingerprints();
    for (const DefenseFingerprintRecord& r : defense.fingerprints) {
      crawler->all_urls_.ReassignFingerprint(r.checksum, r.url);
    }
  }

  // ---- Delta sections (incremental checkpoint segments). Records are
  // listed in canonical URL-identity / ascending-site order over dirty
  // sets that are pure functions of the simulation, so a segment is
  // byte-identical at every shard count.

  static std::string CollDelta(const IncrementalCrawler& crawler) {
    storage::RecordStore<CollectionEntry>::DirtySet dirty;
    crawler.collection_.AppendDirty(&dirty);
    // Found records stay put while the others are looked up: both
    // stores keep them in node-stable maps.
    std::vector<const CollectionEntry*> upserts;
    std::vector<simweb::Url> tombstones;
    for (const simweb::Url& url : dirty) {
      const CollectionEntry* entry = crawler.collection_.Find(url);
      if (entry != nullptr) {
        upserts.push_back(entry);
      } else {
        tombstones.push_back(url);
      }
    }
    std::ostringstream os;
    TrailerWriter writer(os);
    RecordLine line;
    writer.Line(line.Start(kCollDeltaMagic, kFormatVersion, upserts.size(),
                           tombstones.size()));
    for (const CollectionEntry* e : upserts) {
      writer.Line(EntryLine(*e, line));
    }
    for (const simweb::Url& url : tombstones) {
      writer.Line(UrlLine("D", url, line));
    }
    writer.Finish();
    return os.str();
  }

  static Status ApplyCollDelta(const std::string& bytes,
                               IncrementalCrawler* crawler) {
    std::istringstream in(bytes);
    TrailerReader reader(in);
    auto header = reader.Next();
    if (!header.ok()) return header.status();
    std::istringstream hs(*header);
    std::string magic;
    int version = 0;
    std::size_t nupserts = 0, ntombstones = 0;
    hs >> magic >> version >> nupserts >> ntombstones;
    if (hs.fail() || magic != kCollDeltaMagic ||
        version != kFormatVersion) {
      return Status::InvalidArgument("not a collection delta");
    }
    Status header_end = ExpectLineEnd(hs, "dcoll header");
    if (!header_end.ok()) return header_end;
    std::vector<CollectionEntry> upserts;
    upserts.reserve(std::min<std::size_t>(nupserts, 1 << 20));
    for (std::size_t i = 0; i < nupserts; ++i) {
      auto line = reader.Next();
      if (!line.ok()) {
        return Status::InvalidArgument("dcoll upsert count mismatch");
      }
      auto entry = ParseEntry(*line);
      if (!entry.ok()) return entry.status();
      upserts.push_back(std::move(entry).value());
    }
    std::vector<simweb::Url> tombstones;
    tombstones.reserve(std::min<std::size_t>(ntombstones, 1 << 20));
    for (std::size_t i = 0; i < ntombstones; ++i) {
      auto line = reader.Next();
      if (!line.ok()) {
        return Status::InvalidArgument("dcoll tombstone count mismatch");
      }
      std::istringstream is(*line);
      std::string tag;
      simweb::Url url;
      is >> tag >> url.site >> url.slot >> url.incarnation;
      if (is.fail() || tag != "D") {
        return Status::InvalidArgument("malformed dcoll tombstone");
      }
      Status record_end = ExpectLineEnd(is, "dcoll tombstone");
      if (!record_end.ok()) return record_end;
      tombstones.push_back(url);
    }
    Status end = FinishFramedStream(reader, in, "collection delta");
    if (!end.ok()) return end;
    // Tombstones first so upserts never transiently breach capacity: a
    // segment's end state satisfies size <= capacity, and erase-then-
    // insert approaches it monotonically from below.
    for (const simweb::Url& url : tombstones) {
      (void)crawler->collection_.Remove(url);  // absent is fine
    }
    for (CollectionEntry& entry : upserts) {
      Status st = crawler->collection_.Upsert(std::move(entry));
      if (!st.ok()) return st;
    }
    return Status::Ok();
  }

  static std::string AllUrlsDelta(const IncrementalCrawler& crawler) {
    AllUrls::DirtySet dirty;
    crawler.all_urls_.AppendDirty(&dirty);
    // AllUrls records are never erased (dead URLs keep their record as
    // a logical tombstone), so the delta is upserts only.
    std::vector<std::pair<simweb::Url, const AllUrls::UrlInfo*>> upserts;
    for (const simweb::Url& url : dirty) {
      const AllUrls::UrlInfo* info = crawler.all_urls_.Find(url);
      if (info != nullptr) upserts.emplace_back(url, info);
    }
    std::ostringstream os;
    TrailerWriter writer(os);
    RecordLine line;
    writer.Line(line.Start(kAllUrlsDeltaMagic, kFormatVersion, upserts.size()));
    for (const auto& [url, info] : upserts) {
      writer.Line(UrlInfoLine(url, *info, line));
    }
    writer.Finish();
    return os.str();
  }

  static Status ApplyAllUrlsDelta(const std::string& bytes,
                                  IncrementalCrawler* crawler) {
    std::istringstream in(bytes);
    TrailerReader reader(in);
    auto header = reader.Next();
    if (!header.ok()) return header.status();
    std::istringstream hs(*header);
    std::string magic;
    int version = 0;
    std::size_t count = 0;
    hs >> magic >> version >> count;
    if (hs.fail() || magic != kAllUrlsDeltaMagic ||
        version != kFormatVersion) {
      return Status::InvalidArgument("not an AllUrls delta");
    }
    Status header_end = ExpectLineEnd(hs, "dallurls header");
    if (!header_end.ok()) return header_end;
    std::vector<std::pair<simweb::Url, AllUrls::UrlInfo>> upserts;
    upserts.reserve(std::min<std::size_t>(count, 1 << 20));
    for (std::size_t i = 0; i < count; ++i) {
      auto line = reader.Next();
      if (!line.ok()) {
        return Status::InvalidArgument("dallurls record count mismatch");
      }
      std::istringstream is(*line);
      std::string tag;
      simweb::Url url;
      AllUrls::UrlInfo info;
      int dead = 0;
      is >> tag >> url.site >> url.slot >> url.incarnation >>
          info.first_seen >> info.in_links >> dead;
      if (is.fail() || tag != "U") {
        return Status::InvalidArgument("malformed dallurls record");
      }
      Status record_end = ExpectLineEnd(is, "dallurls record");
      if (!record_end.ok()) return record_end;
      info.dead = dead != 0;
      upserts.emplace_back(url, info);
    }
    Status end = FinishFramedStream(reader, in, "allurls delta");
    if (!end.ok()) return end;
    for (const auto& [url, info] : upserts) {
      crawler->all_urls_.Restore(url, info);
    }
    return Status::Ok();
  }

  static std::string FrontierDelta(const IncrementalCrawler& crawler) {
    // The frontier marking ledger: for each URL whose queue position
    // may have moved since the last checkpoint, either its exact live
    // (when, seq) key or a tombstone. Unlike the full frontier section
    // (ordered by seq), delta records follow the ledger's canonical
    // URL-identity order.
    std::vector<CollUrls::Entry> upserts;
    std::vector<simweb::Url> tombstones;
    for (const simweb::Url& url : crawler.frontier_dirty_) {
      auto entry = crawler.coll_urls_.LookupEntry(url);
      if (entry.has_value()) {
        upserts.push_back(*entry);
      } else {
        tombstones.push_back(url);
      }
    }
    std::ostringstream os;
    TrailerWriter writer(os);
    RecordLine line;
    writer.Line(line.Start(kFrontierDeltaMagic, kFormatVersion, upserts.size(),
                           tombstones.size(), crawler.coll_urls_.next_seq(),
                           crawler.coll_urls_.front_when()));
    for (const CollUrls::Entry& e : upserts) {
      writer.Line(FrontierLine(e, line));
    }
    for (const simweb::Url& url : tombstones) {
      writer.Line(UrlLine("D", url, line));
    }
    writer.Finish();
    return os.str();
  }

  static Status ApplyFrontierDelta(const std::string& bytes,
                                   IncrementalCrawler* crawler) {
    std::istringstream in(bytes);
    TrailerReader reader(in);
    auto header = reader.Next();
    if (!header.ok()) return header.status();
    std::istringstream hs(*header);
    std::string magic;
    int version = 0;
    std::size_t nupserts = 0, ntombstones = 0;
    uint64_t next_seq = 0;
    double front_when = 0.0;
    hs >> magic >> version >> nupserts >> ntombstones >> next_seq >>
        front_when;
    if (hs.fail() || magic != kFrontierDeltaMagic ||
        version != kFormatVersion) {
      return Status::InvalidArgument("not a frontier delta");
    }
    Status header_end = ExpectLineEnd(hs, "dfrontier header");
    if (!header_end.ok()) return header_end;
    struct Upsert {
      simweb::Url url;
      double when = 0.0;
      uint64_t seq = 0;
    };
    std::vector<Upsert> upserts;
    upserts.reserve(std::min<std::size_t>(nupserts, 1 << 20));
    for (std::size_t i = 0; i < nupserts; ++i) {
      auto line = reader.Next();
      if (!line.ok()) {
        return Status::InvalidArgument("dfrontier upsert count mismatch");
      }
      std::istringstream is(*line);
      std::string tag;
      Upsert u;
      is >> tag >> u.url.site >> u.url.slot >> u.url.incarnation >>
          u.when >> u.seq;
      if (is.fail() || tag != "F") {
        return Status::InvalidArgument("malformed dfrontier record");
      }
      Status record_end = ExpectLineEnd(is, "dfrontier record");
      if (!record_end.ok()) return record_end;
      upserts.push_back(u);
    }
    std::vector<simweb::Url> tombstones;
    tombstones.reserve(std::min<std::size_t>(ntombstones, 1 << 20));
    for (std::size_t i = 0; i < ntombstones; ++i) {
      auto line = reader.Next();
      if (!line.ok()) {
        return Status::InvalidArgument(
            "dfrontier tombstone count mismatch");
      }
      std::istringstream is(*line);
      std::string tag;
      simweb::Url url;
      is >> tag >> url.site >> url.slot >> url.incarnation;
      if (is.fail() || tag != "D") {
        return Status::InvalidArgument("malformed dfrontier tombstone");
      }
      Status record_end = ExpectLineEnd(is, "dfrontier tombstone");
      if (!record_end.ok()) return record_end;
      tombstones.push_back(url);
    }
    Status end = FinishFramedStream(reader, in, "frontier delta");
    if (!end.ok()) return end;
    for (const simweb::Url& url : tombstones) {
      (void)crawler->coll_urls_.Remove(url);  // absent is fine
    }
    for (const Upsert& u : upserts) {
      // ScheduleLane replaces any live entry of the URL, and replay is
      // serial, so this reproduces LoadFrontier's end state exactly.
      crawler->coll_urls_.ScheduleLane(
          crawler->coll_urls_.ShardOf(u.url.site), u.url, u.when, u.seq);
    }
    crawler->coll_urls_.RestoreCounters(next_seq, front_when);
    return Status::Ok();
  }

  /// Replays one sealed delta segment onto `crawler`. The segment's
  /// integrity was already verified by ReadDeltaLog (header and
  /// payload checksums); a parse failure here still aborts mid-apply,
  /// so callers treat any error as "restore from the base again".
  static Status ApplySegment(const storage::DeltaSegment& segment,
                             IncrementalCrawler* crawler) {
    auto section = [&](const char* name) -> const std::string* {
      const storage::DeltaSection* s = segment.FindSection(name);
      return s == nullptr ? nullptr : &s->bytes;
    };
    for (const char* name : {"meta", "dcoll", "dallurls", "dupdate",
                             "dfrontier", "polite", "tracker", "pending",
                             "failure"}) {
      if (section(name) == nullptr) {
        return Status::InvalidArgument(
            "delta segment missing section '" + std::string(name) + "'");
      }
    }
    auto meta = ParseIncMeta(*section("meta"));
    if (!meta.ok()) return meta.status();
    Status st = ApplyCollDelta(*section("dcoll"), crawler);
    if (!st.ok()) return st;
    st = ApplyAllUrlsDelta(*section("dallurls"), crawler);
    if (!st.ok()) return st;
    {
      std::istringstream in(*section("dupdate"));
      st = ApplyUpdateModuleDelta(in, &crawler->update_module_);
      if (!st.ok()) return st;
    }
    st = ApplyFrontierDelta(*section("dfrontier"), crawler);
    if (!st.ok()) return st;
    {
      std::istringstream in(*section("polite"));
      auto polite = ReadPolite(in);
      if (!polite.ok()) return polite.status();
      crawler->engine_.pool().RestorePoliteness(*polite);
    }
    {
      std::istringstream in(*section("tracker"));
      auto tracker = ReadTracker(in);
      if (!tracker.ok()) return tracker.status();
      crawler->tracker_.Clear();
      for (std::size_t i = 0; i < tracker->times.size(); ++i) {
        crawler->tracker_.AddSample(tracker->times[i],
                                    tracker->values[i]);
      }
    }
    {
      std::istringstream in(*section("pending"));
      auto pending = ReadUrlList(in);
      if (!pending.ok()) return pending.status();
      ApplyPending(*pending, crawler);
    }
    {
      std::istringstream in(*section("failure"));
      auto failure = ReadFailure(in);
      if (!failure.ok()) return failure.status();
      ApplyFailure(*failure, crawler);
    }
    // Optional like "traffic": delta logs sealed before the defense
    // layer replay without it (the layer restarts from scratch).
    if (const std::string* defense_bytes = section("defense")) {
      std::istringstream in(*defense_bytes);
      auto defense = ReadDefense(in);
      if (!defense.ok()) return defense.status();
      ApplyDefense(*defense, crawler);
    }
    if (const std::string* traffic_bytes = section("traffic")) {
      std::istringstream in(*traffic_bytes);
      auto traffic = ReadTraffic(in);
      if (!traffic.ok()) return traffic.status();
      crawler->engine_.pool().RestoreTraffic(*traffic);
    }
    if (const std::string* web_bytes = section("dweb")) {
      std::istringstream in(*web_bytes);
      st = simweb::ApplyWebDelta(in, crawler->web_);
      if (!st.ok()) return st;
    }
    ApplyIncMeta(*meta, crawler);
    return Status::Ok();
  }

  /// Drops every dirty mark — the post-checkpoint (and post-replay)
  /// reset that starts the next delta's ledger from empty.
  static void ClearDirty(IncrementalCrawler* crawler) {
    crawler->collection_.ClearDirty();
    crawler->all_urls_.ClearDirty();
    crawler->update_module_.ClearDirty();
    crawler->frontier_dirty_.clear();
    if (crawler->web_ != nullptr && crawler->web_->dirty_tracking()) {
      crawler->web_->ClearDirtySites();
    }
  }
};

Status SaveCrawler(const IncrementalCrawler& crawler, std::ostream& out,
                   const CrawlerCheckpointOptions& options) {
  if (!crawler.engine_.quiescent()) {
    return Status::FailedPrecondition(
        "checkpoint requires a quiesced engine (batch boundary)");
  }
  std::vector<Section> sections;
  sections.push_back(Section{"meta", CheckpointIo::IncMeta(crawler)});
  {
    std::ostringstream os;
    Status st = SaveCollection(crawler.collection_, os);
    if (!st.ok()) return st;
    sections.push_back(Section{"collection", os.str()});
  }
  {
    std::ostringstream os;
    Status st = SaveAllUrls(crawler.all_urls_, os);
    if (!st.ok()) return st;
    sections.push_back(Section{"allurls", os.str()});
  }
  {
    std::ostringstream os;
    Status st = SaveUpdateModule(crawler.update_module_, os);
    if (!st.ok()) return st;
    sections.push_back(Section{"update", os.str()});
  }
  {
    std::ostringstream os;
    Status st = SaveFrontier(crawler.coll_urls_, os);
    if (!st.ok()) return st;
    sections.push_back(Section{"frontier", os.str()});
  }
  {
    std::ostringstream os;
    WritePolite(crawler.engine_.pool().ExportPoliteness(), os);
    sections.push_back(Section{"polite", os.str()});
  }
  {
    std::ostringstream os;
    WriteTracker(crawler.tracker_, os);
    sections.push_back(Section{"tracker", os.str()});
  }
  sections.push_back(Section{"pending", CheckpointIo::Pending(crawler)});
  sections.push_back(Section{"failure", CheckpointIo::Failure(crawler)});
  sections.push_back(Section{"defense", CheckpointIo::Defense(crawler)});
  if (options.module_traffic) {
    std::ostringstream os;
    WriteTraffic(crawler.engine_.pool().AggregateTraffic(), os);
    sections.push_back(Section{"traffic", os.str()});
  }
  if (options.include_web) {
    std::ostringstream os;
    Status st = simweb::SaveWeb(*crawler.web_, os);
    if (!st.ok()) return st;
    sections.push_back(Section{"web", os.str()});
  }
  return WriteContainer(kIncrementalKind, sections, out);
}

Status LoadCrawler(std::istream& in, IncrementalCrawler* crawler) {
  auto sections = ReadContainer(in, kIncrementalKind);
  if (!sections.ok()) return sections.status();
  for (const char* name :
       {"meta", "collection", "allurls", "update", "frontier", "polite",
        "tracker", "pending"}) {
    if (FindSection(*sections, name) == nullptr) {
      return MissingSection(name);
    }
  }

  // --- Parse every section into staging state; nothing in `crawler`
  // (or its web) is touched until the whole checkpoint has verified.
  auto meta = CheckpointIo::ParseIncMeta(*FindSection(*sections, "meta"));
  if (!meta.ok()) return meta.status();

  const int shards = crawler->engine_.num_shards();
  std::istringstream coll_in(*FindSection(*sections, "collection"));
  auto collection = LoadShardedCollection(coll_in, shards);
  if (!collection.ok()) return collection.status();
  if (collection->capacity() != crawler->config_.collection_capacity) {
    return Status::InvalidArgument(
        "checkpoint collection capacity does not match the configured "
        "capacity");
  }
  std::istringstream urls_in(*FindSection(*sections, "allurls"));
  auto all_urls = LoadAllUrls(urls_in, shards);
  if (!all_urls.ok()) return all_urls.status();
  UpdateModule update(crawler->update_module_.config());
  {
    std::istringstream update_in(*FindSection(*sections, "update"));
    Status st = LoadUpdateModule(update_in, &update);
    if (!st.ok()) return st;
  }
  std::istringstream frontier_in(*FindSection(*sections, "frontier"));
  auto frontier = LoadFrontier(frontier_in, shards);
  if (!frontier.ok()) return frontier.status();
  std::istringstream polite_in(*FindSection(*sections, "polite"));
  auto polite = ReadPolite(polite_in);
  if (!polite.ok()) return polite.status();
  std::istringstream tracker_in(*FindSection(*sections, "tracker"));
  auto tracker = ReadTracker(tracker_in);
  if (!tracker.ok()) return tracker.status();
  std::istringstream pending_in(*FindSection(*sections, "pending"));
  auto pending = ReadUrlList(pending_in);
  if (!pending.ok()) return pending.status();
  // Failure state is optional-on-load: pre-failure-pipeline
  // checkpoints simply restart backoff/quarantine tracking from
  // scratch.
  FailureSnapshot failure;
  if (const std::string* f = FindSection(*sections, "failure")) {
    std::istringstream failure_in(*f);
    auto snap = ReadFailure(failure_in);
    if (!snap.ok()) return snap.status();
    failure = std::move(snap).value();
  }
  // Defense state is optional-on-load for the same reason: pre-defense
  // checkpoints restart the throttle machines and the fingerprint
  // registry from scratch.
  DefenseSnapshot defense;
  if (const std::string* d = FindSection(*sections, "defense")) {
    std::istringstream defense_in(*d);
    auto snap = ReadDefense(defense_in);
    if (!snap.ok()) return snap.status();
    defense = std::move(snap).value();
  }
  // Traffic is optional-on-load too: checkpoints written without
  // module_traffic (and every pre-traffic checkpoint) restore with the
  // historical semantics — accounting restarts from zero.
  std::optional<CrawlModulePool::Traffic> traffic;
  if (const std::string* t = FindSection(*sections, "traffic")) {
    std::istringstream traffic_in(*t);
    auto parsed = ReadTraffic(traffic_in);
    if (!parsed.ok()) return parsed.status();
    traffic = std::move(parsed).value();
  }

  // The web restore stages and validates internally, so a bad web
  // section fails here with the crawler still untouched.
  if (const std::string* web = FindSection(*sections, "web")) {
    std::istringstream web_in(*web);
    Status st = simweb::RestoreWeb(web_in, crawler->web_);
    if (!st.ok()) return st;
  }

  // --- Commit. Nothing below can fail. The collection and AllUrls
  // copy *into* the crawler's live stores (ReplaceEntriesFrom) instead
  // of move-assigning the staging objects, so a paged backend keeps
  // its page files and cache.
  crawler->collection_.ReplaceEntriesFrom(*collection);
  crawler->all_urls_.ReplaceEntriesFrom(*all_urls);
  crawler->update_module_ = std::move(update);
  crawler->coll_urls_ = std::move(frontier).value();
  crawler->engine_.pool().RestorePoliteness(*polite);
  crawler->tracker_.Clear();
  for (std::size_t i = 0; i < tracker->times.size(); ++i) {
    crawler->tracker_.AddSample(tracker->times[i], tracker->values[i]);
  }
  CheckpointIo::ApplyPending(*pending, crawler);
  CheckpointIo::ApplyFailure(failure, crawler);
  CheckpointIo::ApplyDefense(defense, crawler);
  if (traffic.has_value()) {
    crawler->engine_.pool().RestoreTraffic(*traffic);
  }
  CheckpointIo::ApplyIncMeta(*meta, crawler);
  if (crawler->delta_tracking_) {
    // The move-assignments above wiped the staging objects' (absent)
    // tracking state into the live ones; re-arm it, then drop the
    // marks the wholesale replace just made — the restored state *is*
    // the new baseline, and the next checkpoint rebases anyway.
    crawler->EnableDeltaTracking();
    CheckpointIo::ClearDirty(crawler);
    crawler->base_written_ = false;
  }
  // The published-view history describes the *pre-restore* state:
  // retire it (readers' held references stay valid) and republish a
  // view of the restored state so Acquire never serves stale rows.
  crawler->engine_.views().Clear();
  if (crawler->config_.publish_view_every_batches > 0) {
    crawler->PublishViewNow();
  }
  return Status::Ok();
}

Status SaveCrawler(const PeriodicCrawler& crawler, std::ostream& out,
                   const CrawlerCheckpointOptions& options) {
  if (!crawler.engine_.quiescent()) {
    return Status::FailedPrecondition(
        "checkpoint requires a quiesced engine (batch boundary)");
  }
  std::vector<Section> sections;
  {
    std::ostringstream os;
    TrailerWriter writer(os);
    RecordLine line;
    writer.Line(line.Start(kPerMetaMagic, kPerMetaVersion));
    writer.Line(line.Start("T", crawler.now_, crawler.cycle_start_,
                           crawler.next_sample_));
    writer.Line(
        line.Start("B", crawler.batches_completed_, crawler.cycle_active_,
                   crawler.cycles_completed_, crawler.stored_this_cycle_,
                   crawler.store_.swap_count(), crawler.config_.shadowing));
    const PeriodicCrawler::Stats& s = crawler.stats_;
    writer.Line(line.Start("C", s.crawls, s.pages_stored, s.dead_fetches,
                           s.politeness_rejections, s.swaps, s.fetch_failures,
                           s.transient_errors, s.timeout_errors,
                           s.failure_retries, s.failures_dropped));
    writer.Finish();
    sections.push_back(Section{"meta", os.str()});
  }
  {
    std::ostringstream os;
    Status st = SaveCollection(crawler.config_.shadowing
                                   ? crawler.store_.current()
                                   : crawler.inplace_,
                               os);
    if (!st.ok()) return st;
    sections.push_back(Section{"collection-current", os.str()});
  }
  if (crawler.config_.shadowing) {
    std::ostringstream os;
    Status st = SaveCollection(crawler.store_.shadow(), os);
    if (!st.ok()) return st;
    sections.push_back(Section{"collection-shadow", os.str()});
  }
  {
    std::vector<simweb::Url> bfs(crawler.frontier_.begin(),
                                 crawler.frontier_.end());
    std::ostringstream os;
    WriteUrlList(bfs, os);
    sections.push_back(Section{"bfs", os.str()});
  }
  {
    std::vector<simweb::Url> seen;
    for (const auto& shard : crawler.seen_shards_) {
      seen.insert(seen.end(), shard.begin(), shard.end());
    }
    std::sort(seen.begin(), seen.end(), IdentityLess);
    std::ostringstream os;
    WriteUrlList(seen, os);
    sections.push_back(Section{"seen", os.str()});
  }
  {
    std::ostringstream os;
    WritePolite(crawler.engine_.pool().ExportPoliteness(), os);
    sections.push_back(Section{"polite", os.str()});
  }
  {
    std::ostringstream os;
    WriteTracker(crawler.tracker_, os);
    sections.push_back(Section{"tracker", os.str()});
  }
  {
    // The cycle's bounded-requeue ledger; sites are unused here (the
    // periodic crawler has no backoff lanes) but the section format is
    // shared with the incremental crawler.
    FailureSnapshot snap;
    snap.urls.reserve(crawler.requeue_counts_.size());
    for (const auto& [url, count] : crawler.requeue_counts_) {
      snap.urls.push_back(UrlFailureRecord{url, count});
    }
    std::sort(snap.urls.begin(), snap.urls.end(),
              [](const UrlFailureRecord& a, const UrlFailureRecord& b) {
                return IdentityLess(a.url, b.url);
              });
    std::ostringstream os;
    WriteFailure(snap, os);
    sections.push_back(Section{"failure", os.str()});
  }
  if (options.module_traffic) {
    std::ostringstream os;
    WriteTraffic(crawler.engine_.pool().AggregateTraffic(), os);
    sections.push_back(Section{"traffic", os.str()});
  }
  if (options.include_web) {
    std::ostringstream os;
    Status st = simweb::SaveWeb(*crawler.web_, os);
    if (!st.ok()) return st;
    sections.push_back(Section{"web", os.str()});
  }
  return WriteContainer(kPeriodicKind, sections, out);
}

Status LoadCrawler(std::istream& in, PeriodicCrawler* crawler) {
  auto sections = ReadContainer(in, kPeriodicKind);
  if (!sections.ok()) return sections.status();
  for (const char* name : {"meta", "collection-current", "bfs", "seen",
                           "polite", "tracker"}) {
    if (FindSection(*sections, name) == nullptr) {
      return MissingSection(name);
    }
  }

  double now = 0.0, cycle_start = 0.0, next_sample = 0.0;
  uint64_t batches_completed = 0, stored_this_cycle = 0;
  int cycle_active = 0, shadowing = 0;
  int64_t cycles_completed = 0, swap_count = 0;
  int meta_version = 0;
  PeriodicCrawler::Stats stats;
  {
    std::istringstream ms(*FindSection(*sections, "meta"));
    TrailerReader reader(ms);
    auto header = reader.Next();
    if (!header.ok()) return header.status();
    {
      std::istringstream hs(*header);
      std::string magic;
      hs >> magic >> meta_version;
      // Version-1 metas (pre-failure-ledger) stay loadable: their C
      // record lacks the failure counters, which restart at zero.
      if (hs.fail() || magic != kPerMetaMagic || meta_version < 1 ||
          meta_version > kPerMetaVersion) {
        return Status::InvalidArgument("malformed checkpoint meta header");
      }
      Status end = ExpectLineEnd(hs, "meta header");
      if (!end.ok()) return end;
    }
    auto t_line = reader.Next();
    if (!t_line.ok()) return t_line.status();
    {
      std::istringstream is(*t_line);
      std::string tag;
      is >> tag >> now >> cycle_start >> next_sample;
      if (is.fail() || tag != "T") {
        return Status::InvalidArgument("malformed checkpoint T record");
      }
      Status end = ExpectLineEnd(is, "T");
      if (!end.ok()) return end;
    }
    auto b_line = reader.Next();
    if (!b_line.ok()) return b_line.status();
    {
      std::istringstream is(*b_line);
      std::string tag;
      is >> tag >> batches_completed >> cycle_active >>
          cycles_completed >> stored_this_cycle >> swap_count >>
          shadowing;
      if (is.fail() || tag != "B") {
        return Status::InvalidArgument("malformed checkpoint B record");
      }
      Status end = ExpectLineEnd(is, "B");
      if (!end.ok()) return end;
    }
    auto c_line = reader.Next();
    if (!c_line.ok()) return c_line.status();
    {
      std::istringstream is(*c_line);
      std::string tag;
      is >> tag >> stats.crawls >> stats.pages_stored >>
          stats.dead_fetches >> stats.politeness_rejections >>
          stats.swaps;
      if (meta_version >= 2) {
        is >> stats.fetch_failures >> stats.transient_errors >>
            stats.timeout_errors >> stats.failure_retries >>
            stats.failures_dropped;
      }
      if (is.fail() || tag != "C") {
        return Status::InvalidArgument("malformed checkpoint C record");
      }
      Status end = ExpectLineEnd(is, "C");
      if (!end.ok()) return end;
    }
    Status end = FinishFramedStream(reader, ms, "checkpoint meta");
    if (!end.ok()) return end;
  }
  if ((shadowing != 0) != crawler->config_.shadowing) {
    return Status::InvalidArgument(
        "checkpoint shadowing mode does not match the configuration");
  }

  std::istringstream current_in(
      *FindSection(*sections, "collection-current"));
  auto current = LoadCollection(current_in);
  if (!current.ok()) return current.status();
  if (current->capacity() != crawler->config_.collection_capacity) {
    return Status::InvalidArgument(
        "checkpoint collection capacity does not match the configured "
        "capacity");
  }
  StatusOr<Collection> shadow = Collection(0);
  if (crawler->config_.shadowing) {
    const std::string* bytes = FindSection(*sections, "collection-shadow");
    if (bytes == nullptr) return MissingSection("collection-shadow");
    std::istringstream shadow_in(*bytes);
    shadow = LoadCollection(shadow_in);
    if (!shadow.ok()) return shadow.status();
  }
  std::istringstream bfs_in(*FindSection(*sections, "bfs"));
  auto bfs = ReadUrlList(bfs_in);
  if (!bfs.ok()) return bfs.status();
  std::istringstream seen_in(*FindSection(*sections, "seen"));
  auto seen = ReadUrlList(seen_in);
  if (!seen.ok()) return seen.status();
  std::istringstream polite_in(*FindSection(*sections, "polite"));
  auto polite = ReadPolite(polite_in);
  if (!polite.ok()) return polite.status();
  std::istringstream tracker_in(*FindSection(*sections, "tracker"));
  auto tracker = ReadTracker(tracker_in);
  if (!tracker.ok()) return tracker.status();
  // Optional, as on the incremental crawler: older checkpoints simply
  // restart the cycle's requeue ledger from scratch.
  FailureSnapshot failure;
  if (const std::string* f = FindSection(*sections, "failure")) {
    std::istringstream failure_in(*f);
    auto snap = ReadFailure(failure_in);
    if (!snap.ok()) return snap.status();
    failure = std::move(snap).value();
  }
  // Optional traffic aggregate, as on the incremental crawler.
  std::optional<CrawlModulePool::Traffic> traffic;
  if (const std::string* t = FindSection(*sections, "traffic")) {
    std::istringstream traffic_in(*t);
    auto parsed = ReadTraffic(traffic_in);
    if (!parsed.ok()) return parsed.status();
    traffic = std::move(parsed).value();
  }
  if (const std::string* web = FindSection(*sections, "web")) {
    std::istringstream web_in(*web);
    Status st = simweb::RestoreWeb(web_in, crawler->web_);
    if (!st.ok()) return st;
  }

  // --- Commit. Nothing below can fail. Contents copy *into* the live
  // collections (ReplaceEntriesFrom) so a paged backend keeps its page
  // files across the restore.
  if (crawler->config_.shadowing) {
    crawler->store_.current_mutable().ReplaceEntriesFrom(*current);
    crawler->store_.shadow().ReplaceEntriesFrom(*shadow);
    crawler->store_.RestoreSwapCount(swap_count);
  } else {
    crawler->inplace_.ReplaceEntriesFrom(*current);
  }
  crawler->frontier_.assign(bfs->begin(), bfs->end());
  for (auto& shard : crawler->seen_shards_) shard.clear();
  for (const simweb::Url& url : *seen) {
    crawler->seen_shards_[url.site % crawler->seen_shards_.size()]
        .insert(url);
  }
  crawler->engine_.pool().RestorePoliteness(*polite);
  if (traffic.has_value()) {
    crawler->engine_.pool().RestoreTraffic(*traffic);
  }
  crawler->tracker_.Clear();
  for (std::size_t i = 0; i < tracker->times.size(); ++i) {
    crawler->tracker_.AddSample(tracker->times[i], tracker->values[i]);
  }
  crawler->stats_ = stats;
  crawler->requeue_counts_.clear();
  for (const UrlFailureRecord& r : failure.urls) {
    crawler->requeue_counts_.emplace(r.url, r.count);
  }
  crawler->now_ = now;
  crawler->cycle_start_ = cycle_start;
  crawler->next_sample_ = next_sample;
  crawler->cycle_active_ = cycle_active != 0;
  crawler->cycles_completed_ = cycles_completed;
  crawler->stored_this_cycle_ = stored_this_cycle;
  crawler->batches_completed_ = batches_completed;
  crawler->bootstrapped_ = true;
  // Retire the pre-restore view history and republish, as on the
  // incremental crawler.
  crawler->engine_.views().Clear();
  if (crawler->config_.publish_view_every_batches > 0) {
    crawler->PublishViewNow();
  }
  return Status::Ok();
}

Status SaveCrawlerToFile(const IncrementalCrawler& crawler,
                         const std::string& path,
                         const CrawlerCheckpointOptions& options) {
  std::ostringstream os;
  Status st = SaveCrawler(crawler, os, options);
  if (!st.ok()) return st;
  return AtomicWriteFile(path, os.str());
}

Status SaveCrawlerToFile(const PeriodicCrawler& crawler,
                         const std::string& path,
                         const CrawlerCheckpointOptions& options) {
  std::ostringstream os;
  Status st = SaveCrawler(crawler, os, options);
  if (!st.ok()) return st;
  return AtomicWriteFile(path, os.str());
}

Status LoadCrawlerFromFile(const std::string& path,
                           IncrementalCrawler* crawler) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("cannot open " + path);
  }
  return LoadCrawler(in, crawler);
}

Status LoadCrawlerFromFile(const std::string& path,
                           PeriodicCrawler* crawler) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("cannot open " + path);
  }
  return LoadCrawler(in, crawler);
}

Status SaveUpdateModuleDelta(const UpdateModule& module,
                             std::ostream& out) {
  if (!module.dirty_tracking_) {
    return Status::FailedPrecondition(
        "update-module delta requires dirty tracking");
  }
  std::set<simweb::Url, simweb::UrlIdentityLess> dirty_pages;
  std::set<uint32_t> dirty_sites, dirty_rngs;
  module.AppendDirty(&dirty_pages, &dirty_sites, &dirty_rngs);

  // Partition the dirty pages: still tracked -> full P record, gone
  // (Forget) -> X tombstone. The std::sets are already in canonical
  // order.
  std::vector<std::pair<simweb::Url, const UpdateModule::PageState*>> pages;
  std::vector<simweb::Url> tombstones;
  for (const simweb::Url& url : dirty_pages) {
    const auto& shard = module.page_shards_[module.ShardOf(url.site)];
    auto it = shard.find(url);
    if (it == shard.end()) {
      tombstones.push_back(url);
    } else {
      pages.emplace_back(url, &it->second);
    }
  }
  // Site aggregates and probe RNG streams are never erased, so their
  // deltas are upserts only (a dirty key that vanished — impossible
  // today — would simply be skipped).
  std::vector<std::pair<uint32_t, const estimator::ChangeEstimator*>> sites;
  for (uint32_t site : dirty_sites) {
    const auto& shard = module.site_shards_[module.ShardOf(site)];
    auto it = shard.find(site);
    if (it != shard.end()) sites.emplace_back(site, it->second.get());
  }
  std::vector<std::pair<uint32_t, const Rng*>> rngs;
  for (uint32_t site : dirty_rngs) {
    const auto& shard = module.rng_shards_[module.ShardOf(site)];
    auto it = shard.find(site);
    if (it != shard.end()) rngs.emplace_back(site, &it->second);
  }

  TrailerWriter writer(out);
  RecordLine line;
  writer.Line(
      line.Start(kUpdateDeltaMagic, kFormatVersion,
                 estimator::EstimatorKindName(module.config_.estimator_kind),
                 pages.size(), tombstones.size(), sites.size(), rngs.size()));
  // The scheduling globals are cheap scalars; the delta carries them
  // absolutely (they change on every rebalance).
  writer.Line(line.Start("G", module.multiplier_, module.total_rate_,
                         module.mean_importance_, module.rebalance_count_,
                         module.frozen_page_count_));
  for (const auto& [url, state] : pages) {
    writer.Line(PageStateLine(url, *state, line));
  }
  for (const simweb::Url& url : tombstones) {
    writer.Line(UrlLine("X", url, line));
  }
  for (const auto& [site, est] : sites) {
    writer.Line(SiteEstimatorLine(site, *est, line));
  }
  for (const auto& [site, rng] : rngs) writer.Line(RngLine(site, *rng, line));
  writer.Finish();
  if (!out.good()) return Status::Internal("snapshot write failed");
  return Status::Ok();
}

Status ApplyUpdateModuleDelta(std::istream& in, UpdateModule* module) {
  TrailerReader reader(in);
  auto header = reader.Next();
  if (!header.ok()) return header.status();
  std::istringstream hs(*header);
  std::string magic, kind;
  int version = 0;
  std::size_t npages = 0, ntombstones = 0, nsites = 0, nrngs = 0;
  hs >> magic >> version >> kind >> npages >> ntombstones >> nsites >>
      nrngs;
  if (hs.fail() || magic != kUpdateDeltaMagic ||
      version != kFormatVersion) {
    return Status::InvalidArgument("not an UpdateModule delta");
  }
  Status header_end = ExpectLineEnd(hs, "dupdate header");
  if (!header_end.ok()) return header_end;
  if (kind !=
      estimator::EstimatorKindName(module->config_.estimator_kind)) {
    return Status::InvalidArgument(
        "delta estimator kind '" + kind +
        "' does not match the module's configuration");
  }

  // Stage everything — including estimator reconstruction, which can
  // fail — before the first mutation, so a malformed delta leaves the
  // module untouched.
  double multiplier = 0.0, total_rate = 0.0, mean_importance = 0.0;
  int64_t rebalance_count = 0;
  std::size_t frozen_pages = 0;
  {
    auto g_line = reader.Next();
    if (!g_line.ok()) return Status::InvalidArgument("missing G record");
    std::istringstream is(*g_line);
    std::string tag;
    is >> tag >> multiplier >> total_rate >> mean_importance >>
        rebalance_count >> frozen_pages;
    if (is.fail() || tag != "G") {
      return Status::InvalidArgument("malformed G record");
    }
    Status record_end = ExpectLineEnd(is, "G");
    if (!record_end.ok()) return record_end;
  }
  std::vector<std::pair<simweb::Url, UpdateModule::PageState>> pages;
  pages.reserve(std::min<std::size_t>(npages, 1 << 20));
  for (std::size_t i = 0; i < npages; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument("dupdate page count mismatch");
    }
    std::istringstream is(*line);
    std::string tag;
    simweb::Url url;
    double last_visit = 0.0, importance = 0.0;
    int visited = 0, probing = 0;
    std::size_t nstate = 0;
    is >> tag >> url.site >> url.slot >> url.incarnation >> last_visit >>
        visited >> importance >> probing >> nstate;
    if (is.fail() || tag != "P" || nstate > kMaxEstimatorState) {
      return Status::InvalidArgument("malformed page record");
    }
    std::vector<double> est_state(nstate);
    for (double& v : est_state) is >> v;
    if (is.fail()) {
      return Status::InvalidArgument("malformed page estimator state");
    }
    Status record_end = ExpectLineEnd(is, "page");
    if (!record_end.ok()) return record_end;
    UpdateModule::PageState state;
    state.last_visit = last_visit;
    state.visited = visited != 0;
    state.importance = importance;
    state.probing_abandonment = probing != 0;
    if (!est_state.empty()) {
      state.estimator =
          estimator::MakeEstimator(module->config_.estimator_kind);
      Status st = state.estimator->RestoreState(est_state);
      if (!st.ok()) return st;
    }
    pages.emplace_back(url, std::move(state));
  }
  std::vector<simweb::Url> tombstones;
  tombstones.reserve(std::min<std::size_t>(ntombstones, 1 << 20));
  for (std::size_t i = 0; i < ntombstones; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument("dupdate tombstone count mismatch");
    }
    std::istringstream is(*line);
    std::string tag;
    simweb::Url url;
    is >> tag >> url.site >> url.slot >> url.incarnation;
    if (is.fail() || tag != "X") {
      return Status::InvalidArgument("malformed dupdate tombstone");
    }
    Status record_end = ExpectLineEnd(is, "dupdate tombstone");
    if (!record_end.ok()) return record_end;
    tombstones.push_back(url);
  }
  std::vector<
      std::pair<uint32_t, std::unique_ptr<estimator::ChangeEstimator>>>
      site_estimators;
  site_estimators.reserve(std::min<std::size_t>(nsites, 1 << 20));
  for (std::size_t i = 0; i < nsites; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument("dupdate site count mismatch");
    }
    std::istringstream is(*line);
    std::string tag;
    uint32_t site = 0;
    std::size_t nstate = 0;
    is >> tag >> site >> nstate;
    if (is.fail() || tag != "S" || nstate > kMaxEstimatorState) {
      return Status::InvalidArgument("malformed site record");
    }
    std::vector<double> est_state(nstate);
    for (double& v : est_state) is >> v;
    if (is.fail()) {
      return Status::InvalidArgument("malformed site estimator state");
    }
    Status record_end = ExpectLineEnd(is, "site");
    if (!record_end.ok()) return record_end;
    auto est = estimator::MakeEstimator(module->config_.estimator_kind);
    Status st = est->RestoreState(est_state);
    if (!st.ok()) return st;
    site_estimators.emplace_back(site, std::move(est));
  }
  std::vector<std::pair<uint32_t, Rng>> rngs;
  rngs.reserve(std::min<std::size_t>(nrngs, 1 << 20));
  for (std::size_t i = 0; i < nrngs; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument("dupdate rng count mismatch");
    }
    std::istringstream is(*line);
    std::string tag;
    uint32_t site = 0;
    std::array<uint64_t, 4> lanes{};
    is >> tag >> site >> lanes[0] >> lanes[1] >> lanes[2] >> lanes[3];
    if (is.fail() || tag != "R") {
      return Status::InvalidArgument("malformed rng record");
    }
    Status record_end = ExpectLineEnd(is, "rng");
    if (!record_end.ok()) return record_end;
    Rng rng(0);
    rng.SetState(lanes);
    rngs.emplace_back(site, rng);
  }
  Status end = FinishFramedStream(reader, in, "update delta");
  if (!end.ok()) return end;

  // --- Commit.
  module->multiplier_ = multiplier;
  module->total_rate_ = total_rate;
  module->mean_importance_ = mean_importance;
  module->rebalance_count_ = rebalance_count;
  module->frozen_page_count_ = frozen_pages;
  for (const simweb::Url& url : tombstones) {
    module->page_shards_[module->ShardOf(url.site)].erase(url);
  }
  for (auto& [url, state] : pages) {
    module->page_shards_[module->ShardOf(url.site)][url] =
        std::move(state);
  }
  for (auto& [site, est] : site_estimators) {
    module->site_shards_[module->ShardOf(site)][site] = std::move(est);
  }
  for (const auto& [site, rng] : rngs) {
    module->rng_shards_[module->ShardOf(site)].insert_or_assign(site,
                                                                rng);
  }
  return Status::Ok();
}

Status CheckpointIncremental(IncrementalCrawler* crawler,
                             const std::string& path,
                             const CrawlerCheckpointOptions& options) {
  if (!crawler->delta_tracking_) {
    return Status::FailedPrecondition(
        "incremental checkpointing requires delta tracking (set "
        "config.checkpoint_incremental)");
  }
  if (!crawler->engine_.quiescent()) {
    return Status::FailedPrecondition(
        "checkpoint requires a quiesced engine (batch boundary)");
  }
  const std::string delta_path = path + ".deltas";
  // Rebase when there is no verified base to append to — first
  // checkpoint of this process — or when a wholesale clear happened
  // (a record delta cannot express "everything vanished").
  if (!crawler->base_written_ ||
      crawler->collection_.cleared_while_tracking()) {
    Status st = SaveCrawlerToFile(*crawler, path, options);
    if (!st.ok()) return st;
    st = storage::TruncateDeltaLog(delta_path);
    if (!st.ok()) return st;
    crawler->base_written_ = true;
    CheckpointIo::ClearDirty(crawler);
    return Status::Ok();
  }

  storage::DeltaSegment segment;
  segment.kind = kIncrementalKind;
  segment.batch = crawler->batches_completed_;
  segment.sections.push_back(
      storage::DeltaSection{"meta", CheckpointIo::IncMeta(*crawler)});
  segment.sections.push_back(
      storage::DeltaSection{"dcoll", CheckpointIo::CollDelta(*crawler)});
  segment.sections.push_back(storage::DeltaSection{
      "dallurls", CheckpointIo::AllUrlsDelta(*crawler)});
  {
    std::ostringstream os;
    Status st = SaveUpdateModuleDelta(crawler->update_module_, os);
    if (!st.ok()) return st;
    segment.sections.push_back(storage::DeltaSection{"dupdate", os.str()});
  }
  segment.sections.push_back(storage::DeltaSection{
      "dfrontier", CheckpointIo::FrontierDelta(*crawler)});
  {
    std::ostringstream os;
    WritePolite(crawler->engine_.pool().ExportPoliteness(), os);
    segment.sections.push_back(storage::DeltaSection{"polite", os.str()});
  }
  {
    std::ostringstream os;
    WriteTracker(crawler->tracker_, os);
    segment.sections.push_back(storage::DeltaSection{"tracker", os.str()});
  }
  segment.sections.push_back(
      storage::DeltaSection{"pending", CheckpointIo::Pending(*crawler)});
  segment.sections.push_back(
      storage::DeltaSection{"failure", CheckpointIo::Failure(*crawler)});
  // The defense section rides every segment whole (like "failure"):
  // the throttle machines are tiny and the fingerprint registry grows
  // with *distinct content*, a small multiple of the collection.
  segment.sections.push_back(
      storage::DeltaSection{"defense", CheckpointIo::Defense(*crawler)});
  if (options.module_traffic) {
    std::ostringstream os;
    WriteTraffic(crawler->engine_.pool().AggregateTraffic(), os);
    segment.sections.push_back(storage::DeltaSection{"traffic", os.str()});
  }
  if (options.include_web) {
    std::ostringstream os;
    Status st = simweb::SaveWebDelta(*crawler->web_, os);
    if (!st.ok()) return st;
    segment.sections.push_back(storage::DeltaSection{"dweb", os.str()});
  }

  Status st = storage::AppendDeltaSegment(delta_path, segment);
  if (!st.ok()) return st;
  CheckpointIo::ClearDirty(crawler);
  return Status::Ok();
}

Status LoadCrawlerWithDeltasFromFile(const std::string& path,
                                     IncrementalCrawler* crawler) {
  Status st = LoadCrawlerFromFile(path, crawler);
  if (!st.ok()) return st;
  auto log = storage::ReadDeltaLog(path + ".deltas");
  if (!log.ok()) return log.status();
  bool applied = false;
  for (const storage::DeltaSegment& segment : log->segments) {
    if (segment.kind != kIncrementalKind) {
      return Status::InvalidArgument(
          "delta segment kind '" + segment.kind +
          "' does not match the base checkpoint");
    }
    // Idempotent replay: a segment at or before the restored batch
    // counter is already reflected in the base image (the rebase wrote
    // the base *after* sealing it) — skip it.
    if (segment.batch <= crawler->batches_completed_) continue;
    st = CheckpointIo::ApplySegment(segment, crawler);
    if (!st.ok()) {
      // ApplySegment mutates as it goes; a failure mid-segment leaves
      // the crawler unspecified. The inputs are double-checksummed
      // (the log's seal and each section's trailer), so reaching this
      // is a format bug, not routine corruption — surface it.
      return st;
    }
    applied = true;
  }
  if (applied) {
    if (crawler->delta_tracking_) {
      CheckpointIo::ClearDirty(crawler);
      crawler->base_written_ = false;
    }
    // Replays changed rows after LoadCrawler's republish: retire that
    // view and publish the final state.
    crawler->engine_.views().Clear();
    if (crawler->config_.publish_view_every_batches > 0) {
      crawler->PublishViewNow();
    }
  }
  return Status::Ok();
}

}  // namespace webevo::crawler
