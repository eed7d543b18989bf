#include "crawler/snapshot.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <initializer_list>
#include <memory>
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
#include "util/ledger.h"
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

// The record formatters, one per record type. Each formats one record
// into `line` and returns it.

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
// that this formatter needs no friendship.
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

// The record parsers, one per record type, each the inverse of the
// formatter above it.

// E: a collection entry. Its link list is read as far as its fields
// go, so a forged link count fails at the end of the line instead of
// sizing an allocation.
bool ReadEntry(RecordReader& in, CollectionEntry* e) {
  std::size_t nlinks = 0;
  if (!in.Begin("E", e->url.site, e->url.slot, e->url.incarnation, e->page,
                e->version, e->checksum.lo, e->checksum.hi, e->crawled_at,
                e->importance, nlinks)) {
    return false;
  }
  ReserveClaimed(e->links, nlinks);
  for (std::size_t i = 0; i < nlinks; ++i) {
    simweb::Url link;
    if (!in.Fields(link.site, link.slot, link.incarnation)) return false;
    e->links.push_back(link);
  }
  return in.End();
}

// U: an AllUrls record.
bool ReadUrlInfo(RecordReader& in, simweb::Url* url,
                 AllUrls::UrlInfo* info) {
  int dead = 0;
  if (!in.Record("U", url->site, url->slot, url->incarnation,
                 info->first_seen, info->in_links, dead)) {
    return false;
  }
  info->dead = dead != 0;
  return true;
}

// Closes a P or S record: the state AddEstimatorState wrote, its length
// range-checked before it sizes the vector.
bool ReadEstimatorState(RecordReader& in, std::vector<double>* state) {
  std::size_t n = 0;
  if (!in.Fields(n)) return false;
  if (n > kMaxEstimatorState) return in.Fail("implausible estimator state");
  state->assign(n, 0.0);
  for (double& v : *state) {
    if (!in.Fields(v)) return false;
  }
  return in.End();
}

// An estimator rebuilt from its saved state; null, with the error kept
// in `in`, when the state is invalid.
std::unique_ptr<estimator::ChangeEstimator> RestoreEstimator(
    RecordReader& in, estimator::EstimatorKind kind,
    const std::vector<double>& state) {
  auto est = estimator::MakeEstimator(kind);
  Status st = est->RestoreState(state);
  if (!st.ok()) {
    in.Fail(st.message());
    return nullptr;
  }
  return est;
}

// The estimator kind an update section's header names must be the
// module's.
Status CheckEstimatorKind(const std::string& kind,
                          const UpdateModuleConfig& config) {
  if (kind == estimator::EstimatorKindName(config.estimator_kind)) {
    return Status::Ok();
  }
  return Status::InvalidArgument(
      "snapshot estimator kind '" + kind +
      "' does not match the module's configuration");
}

// ---- The four big stores. Each has one section format with one
// writer over the records its caller passes in — every record for a
// full image, the dirty keys still present for a delta segment — which
// writes them in canonical order, so equal records make equal bytes at
// every shard count. Each has one reader, which checks a section and
// stages its records as a flat list, and one apply path: onto an empty
// store for an image, or onto the live one for a segment, after
// removing the segment's `-removed` keys (absent keys are fine).

Status WriteCollection(std::size_t capacity,
                       std::vector<const CollectionEntry*> entries,
                       std::ostream& out) {
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

struct CollectionRecords {
  std::size_t capacity = 0;
  std::vector<CollectionEntry> entries;
};

// A section holds at most its capacity's worth of entries, so an image
// applied onto an empty store cannot overflow it.
StatusOr<CollectionRecords> ReadCollection(std::istream& is) {
  RecordReader in(is, "collection snapshot");
  CollectionRecords records;
  std::size_t count = 0;
  if (in.Header(kCollectionMagic, kFormatVersion, records.capacity, count)) {
    if (count > records.capacity) in.Fail("more entries than its capacity");
    ReserveClaimed(records.entries, count);
    for (std::size_t i = 0; i < count; ++i) {
      CollectionEntry e;
      if (!ReadEntry(in, &e)) break;
      records.entries.push_back(std::move(e));
    }
  }
  Status st = in.Finish();
  if (!st.ok()) return st;
  return records;
}

// Removed keys go first so the entries never transiently breach
// capacity: a segment's end state satisfies size <= capacity, and
// erase-then-insert approaches it monotonically from below. Entries
// that still overflow the capacity are a malformed segment, not an
// exhausted resource.
Status ApplyCollection(const std::vector<simweb::Url>& removed,
                       std::vector<CollectionEntry> entries,
                       Collection* collection) {
  for (const simweb::Url& url : removed) {
    (void)collection->Remove(url);  // absent is fine
  }
  for (CollectionEntry& e : entries) {
    Status st = collection->Upsert(std::move(e));
    if (!st.ok()) {
      return Status::InvalidArgument("collection records exceed its "
                                     "capacity: " + st.message());
    }
  }
  return Status::Ok();
}

using UrlInfoRecord = std::pair<simweb::Url, AllUrls::UrlInfo>;

Status WriteAllUrls(
    std::vector<std::pair<simweb::Url, const AllUrls::UrlInfo*>> records,
    std::ostream& out) {
  std::sort(records.begin(), records.end(), [](const auto& a, const auto& b) {
    return IdentityLess(a.first, b.first);
  });
  TrailerWriter writer(out);
  RecordLine line;
  writer.Line(line.Start(kAllUrlsMagic, kFormatVersion, records.size()));
  for (const auto& [url, info] : records) {
    writer.Line(UrlInfoLine(url, *info, line));
  }
  writer.Finish();
  if (!out.good()) return Status::Internal("snapshot write failed");
  return Status::Ok();
}

StatusOr<std::vector<UrlInfoRecord>> ReadAllUrls(std::istream& is) {
  RecordReader in(is, "allurls snapshot");
  std::vector<UrlInfoRecord> records;
  std::size_t count = 0;
  if (in.Header(kAllUrlsMagic, kFormatVersion, count)) {
    ReserveClaimed(records, count);
    for (std::size_t i = 0; i < count; ++i) {
      UrlInfoRecord r;
      if (!ReadUrlInfo(in, &r.first, &r.second)) break;
      records.push_back(r);
    }
  }
  Status st = in.Finish();
  if (!st.ok()) return st;
  return records;
}

// AllUrls never erases a record (a dead URL keeps its record), so its
// records only ever overwrite and it has no removed list.
void ApplyAllUrls(const std::vector<UrlInfoRecord>& records,
                  AllUrls* all_urls) {
  for (const auto& [url, info] : records) all_urls->Restore(url, info);
}

// Entries are written by their globally unique seq, the order the
// frontier pops ties in; a loaded checkpoint may repeat a seq, so URL
// identity breaks the tie and the order never depends on the walk.
Status WriteFrontier(std::vector<CollUrls::Entry> entries, uint64_t next_seq,
                     double front_when, std::ostream& out) {
  std::sort(entries.begin(), entries.end(),
            [](const CollUrls::Entry& a, const CollUrls::Entry& b) {
              if (a.seq != b.seq) return a.seq < b.seq;
              return IdentityLess(a.url, b.url);
            });
  TrailerWriter writer(out);
  RecordLine line;
  writer.Line(line.Start(kFrontierMagic, kFormatVersion, entries.size(),
                         next_seq, front_when));
  for (const CollUrls::Entry& e : entries) {
    writer.Line(FrontierLine(e, line));
  }
  writer.Finish();
  if (!out.good()) return Status::Internal("snapshot write failed");
  return Status::Ok();
}

// A parsed frontier section: its queued URLs with their exact
// (when, seq) keys, and the frontier's global counters.
struct FrontierRecords {
  std::vector<CollUrls::Entry> entries;
  uint64_t next_seq = 0;
  double front_when = 0.0;
};

StatusOr<FrontierRecords> ReadFrontier(std::istream& is) {
  RecordReader in(is, "frontier snapshot");
  FrontierRecords records;
  std::size_t count = 0;
  if (in.Header(kFrontierMagic, kFormatVersion, count, records.next_seq,
                records.front_when)) {
    ReserveClaimed(records.entries, count);
    for (std::size_t i = 0; i < count; ++i) {
      CollUrls::Entry e;
      if (!in.Record("F", e.url.site, e.url.slot, e.url.incarnation, e.when,
                     e.seq)) {
        break;
      }
      records.entries.push_back(e);
    }
  }
  Status st = in.Finish();
  if (!st.ok()) return st;
  return records;
}

// ScheduleLane replaces any live entry of the URL and keeps its exact
// key, and replay is serial, so an image and a replayed segment reach
// the same pop order.
void ApplyFrontier(const std::vector<simweb::Url>& removed,
                   const FrontierRecords& records, ShardedFrontier* frontier) {
  for (const simweb::Url& url : removed) {
    (void)frontier->Remove(url);  // absent is fine
  }
  for (const CollUrls::Entry& e : records.entries) {
    frontier->ScheduleLane(frontier->ShardOf(e.url.site), e.url, e.when, e.seq);
  }
  frontier->RestoreCounters(records.next_seq, records.front_when);
}

}  // namespace

/// The update module's section: its one writer, over every record (an
/// image) or the dirty ones still present (a delta segment), and its
/// parsed form with the one apply path. Befriended by UpdateModule.
struct UpdateModuleSection {
  /// The records to write, pointing into a module.
  struct Selection {
    std::vector<std::pair<simweb::Url, const UpdateModule::PageState*>> pages;
    std::vector<std::pair<uint32_t, const estimator::ChangeEstimator*>> sites;
    std::vector<std::pair<uint32_t, const Rng*>> rngs;
  };

  static Selection Every(const UpdateModule& module) {
    Selection s;
    for (const auto& shard : module.page_shards_) {
      for (const auto& [url, state] : shard) {
        s.pages.emplace_back(url, &state);
      }
    }
    for (const auto& shard : module.site_shards_) {
      for (const auto& [site, est] : shard) {
        s.sites.emplace_back(site, est.get());
      }
    }
    for (const auto& shard : module.rng_shards_) {
      for (const auto& [site, rng] : shard) s.rngs.emplace_back(site, &rng);
    }
    return s;
  }

  /// The dirty records still present; the dirty pages now gone
  /// (Forget) go to `removed`. Site aggregates and probe streams are
  /// never erased.
  static Selection Dirty(const UpdateModule& module,
                         std::vector<simweb::Url>* removed) {
    std::set<simweb::Url, simweb::UrlIdentityLess> dirty_pages;
    std::set<uint32_t> dirty_sites, dirty_rngs;
    module.AppendDirty(&dirty_pages, &dirty_sites, &dirty_rngs);
    Selection s;
    for (const simweb::Url& url : dirty_pages) {
      const auto& shard = module.page_shards_[module.ShardOf(url.site)];
      auto it = shard.find(url);
      if (it == shard.end()) {
        removed->push_back(url);
      } else {
        s.pages.emplace_back(url, &it->second);
      }
    }
    for (uint32_t site : dirty_sites) {
      const auto& shard = module.site_shards_[module.ShardOf(site)];
      auto it = shard.find(site);
      if (it != shard.end()) s.sites.emplace_back(site, it->second.get());
    }
    for (uint32_t site : dirty_rngs) {
      const auto& shard = module.rng_shards_[module.ShardOf(site)];
      auto it = shard.find(site);
      if (it != shard.end()) s.rngs.emplace_back(site, &it->second);
    }
    return s;
  }

  /// Writes the header, the G record of scheduling globals (cheap
  /// scalars, always absolute), then the selected P, S and R records:
  /// pages by URL identity, site records by site.
  static Status Write(const UpdateModule& module, Selection s,
                      std::ostream& out) {
    std::sort(s.pages.begin(), s.pages.end(), [](const auto& a, const auto& b) {
      return IdentityLess(a.first, b.first);
    });
    auto by_site = [](const auto& a, const auto& b) {
      return a.first < b.first;
    };
    std::sort(s.sites.begin(), s.sites.end(), by_site);
    std::sort(s.rngs.begin(), s.rngs.end(), by_site);
    TrailerWriter writer(out);
    RecordLine line;
    writer.Line(
        line.Start(kUpdateModuleMagic, kUpdateFormatVersion,
                   estimator::EstimatorKindName(module.config_.estimator_kind),
                   s.pages.size(), s.sites.size(), s.rngs.size()));
    writer.Line(line.Start("G", module.multiplier_, module.total_rate_,
                           module.mean_importance_, module.rebalance_count_,
                           module.frozen_page_count_));
    for (const auto& [url, state] : s.pages) {
      writer.Line(PageStateLine(url, *state, line));
    }
    for (const auto& [site, est] : s.sites) {
      writer.Line(SiteEstimatorLine(site, *est, line));
    }
    for (const auto& [site, rng] : s.rngs) {
      writer.Line(RngLine(site, *rng, line));
    }
    writer.Finish();
    if (!out.good()) return Status::Internal("snapshot write failed");
    return Status::Ok();
  }

  double multiplier = 0.0, total_rate = 0.0, mean_importance = 0.0;
  int64_t rebalance_count = 0;
  std::size_t frozen_page_count = 0;
  std::vector<std::pair<simweb::Url, UpdateModule::PageState>> pages;
  std::vector<
      std::pair<uint32_t, std::unique_ptr<estimator::ChangeEstimator>>>
      sites;
  std::vector<std::pair<uint32_t, Rng>> rngs;

  /// Parses a section, estimators rebuilt (which can fail) before
  /// anything is applied. The estimator kind it names must be the
  /// configuration's.
  static StatusOr<UpdateModuleSection> Read(std::istream& is,
                                            const UpdateModuleConfig& config) {
    RecordReader in(is, "update snapshot");
    UpdateModuleSection r;
    std::string kind;
    std::size_t npages = 0, nsites = 0, nrngs = 0;
    if (!in.Header(kUpdateModuleMagic, kUpdateFormatVersion, kind, npages,
                   nsites, nrngs)) {
      return in.status();
    }
    Status st = CheckEstimatorKind(kind, config);
    if (!st.ok()) return st;
    r.ReadRecords(in, config.estimator_kind, npages, nsites, nrngs);
    st = in.Finish();
    if (!st.ok()) return st;
    return r;
  }

  /// The one apply path: globals absolute, removed pages erased,
  /// records upserted.
  void ApplyTo(const std::vector<simweb::Url>& removed,
               UpdateModule* module) && {
    module->multiplier_ = multiplier;
    module->total_rate_ = total_rate;
    module->mean_importance_ = mean_importance;
    module->rebalance_count_ = rebalance_count;
    module->frozen_page_count_ = frozen_page_count;
    for (const simweb::Url& url : removed) {
      module->page_shards_[module->ShardOf(url.site)].erase(url);
    }
    for (auto& [url, state] : pages) {
      module->page_shards_[module->ShardOf(url.site)][url] = std::move(state);
    }
    for (auto& [site, est] : sites) {
      module->site_shards_[module->ShardOf(site)][site] = std::move(est);
    }
    for (const auto& [site, rng] : rngs) {
      module->rng_shards_[module->ShardOf(site)].insert_or_assign(site, rng);
    }
  }

 private:
  // The records after the header: G, then the counted P, S and R.
  void ReadRecords(RecordReader& in, estimator::EstimatorKind kind,
                   std::size_t npages, std::size_t nsites, std::size_t nrngs) {
    if (!in.Record("G", multiplier, total_rate, mean_importance,
                   rebalance_count, frozen_page_count)) {
      return;
    }
    ReserveClaimed(pages, npages);
    for (std::size_t i = 0; i < npages; ++i) {
      simweb::Url url;
      UpdateModule::PageState state;
      int visited = 0, probing = 0;
      std::vector<double> est;
      if (!in.Begin("P", url.site, url.slot, url.incarnation,
                    state.last_visit, visited, state.importance, probing) ||
          !ReadEstimatorState(in, &est)) {
        return;
      }
      state.visited = visited != 0;
      state.probing_abandonment = probing != 0;
      if (!est.empty()) {
        state.estimator = RestoreEstimator(in, kind, est);
        if (state.estimator == nullptr) return;
      }
      pages.emplace_back(url, std::move(state));
    }
    ReserveClaimed(sites, nsites);
    for (std::size_t i = 0; i < nsites; ++i) {
      uint32_t site = 0;
      std::vector<double> est;
      if (!in.Begin("S", site) || !ReadEstimatorState(in, &est)) return;
      auto restored = RestoreEstimator(in, kind, est);
      if (restored == nullptr) return;
      sites.emplace_back(site, std::move(restored));
    }
    ReserveClaimed(rngs, nrngs);
    for (std::size_t i = 0; i < nrngs; ++i) {
      uint32_t site = 0;
      std::array<uint64_t, 4> lanes{};
      if (!in.Record("R", site, lanes[0], lanes[1], lanes[2], lanes[3])) {
        return;
      }
      Rng rng(0);
      rng.SetState(lanes);
      rngs.emplace_back(site, rng);
    }
  }
};

Status SaveCollection(const Collection& collection, std::ostream& out) {
  std::vector<const CollectionEntry*> entries;
  entries.reserve(collection.size());
  collection.ForEach([&](const CollectionEntry& e) { entries.push_back(&e); });
  return WriteCollection(collection.capacity(), std::move(entries), out);
}

StatusOr<Collection> LoadCollection(std::istream& in, int num_shards) {
  auto records = ReadCollection(in);
  if (!records.ok()) return records.status();
  Collection collection(records->capacity, num_shards);
  Status st = ApplyCollection({}, std::move(records->entries), &collection);
  if (!st.ok()) return st;
  return collection;
}

Status SaveAllUrls(const AllUrls& all_urls, std::ostream& out) {
  std::vector<std::pair<simweb::Url, const AllUrls::UrlInfo*>> records;
  records.reserve(all_urls.size());
  all_urls.ForEach([&](const simweb::Url& url,
                       const AllUrls::UrlInfo& info) {
    records.emplace_back(url, &info);
  });
  return WriteAllUrls(std::move(records), out);
}

StatusOr<AllUrls> LoadAllUrls(std::istream& in, int num_shards) {
  auto records = ReadAllUrls(in);
  if (!records.ok()) return records.status();
  AllUrls all(num_shards);
  ApplyAllUrls(*records, &all);
  return all;
}

Status SaveUpdateModule(const UpdateModule& module, std::ostream& out) {
  return UpdateModuleSection::Write(module, UpdateModuleSection::Every(module),
                                    out);
}

Status LoadUpdateModule(std::istream& in, UpdateModule* module) {
  auto records = UpdateModuleSection::Read(in, module->config());
  if (!records.ok()) return records.status();
  *module = UpdateModule(module->config());
  std::move(*records).ApplyTo({}, module);
  return Status::Ok();
}

Status SaveFrontier(const ShardedFrontier& frontier, std::ostream& out) {
  std::vector<CollUrls::Entry> entries;
  entries.reserve(frontier.size());
  for (int s = 0; s < frontier.num_shards(); ++s) {
    frontier.shard(static_cast<std::size_t>(s)).AppendEntries(&entries);
  }
  return WriteFrontier(std::move(entries), frontier.next_seq(),
                       frontier.front_when(), out);
}

StatusOr<ShardedFrontier> LoadFrontier(std::istream& in, int num_shards) {
  auto records = ReadFrontier(in);
  if (!records.ok()) return records.status();
  ShardedFrontier frontier(num_shards);
  ApplyFrontier({}, *records, &frontier);
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
constexpr const char* kIncMetaMagic = "webevo-incmeta";
// Each meta version grew the C record: version 2 the capacity-lease
// ledger, version 3 the failure ledger (plus the backoff-days L record),
// version 4 the defense ledger. A reader accepts only the version its
// writer writes; no checkpoint outlives the code that wrote it.
constexpr int kIncMetaVersion = 4;
constexpr const char* kPerMetaMagic = "webevo-permeta";
// Periodic meta version 2: the C record grew the failure ledger
// (classified fetch failures, bounded re-queues, per-cycle drops).
constexpr int kPerMetaVersion = 2;
// The failure-pipeline section shared by both crawlers: per-site
// circuit-breaker state (incremental only) and per-URL consecutive
// failure / re-queue counts.
constexpr const char* kFailureMagic = "webevo-failure";
constexpr const char* kPoliteMagic = "webevo-polite";
constexpr const char* kTrackerMagic = "webevo-tracker";
constexpr const char* kUrlsMagic = "webevo-urls";
// The adversarial-defense section (incremental crawler only): per-site
// diminishing-returns state machines and the content-fingerprint
// registry's canonical owners.
constexpr const char* kDefenseMagic = "webevo-defense";
// The optional pool-level traffic aggregate (absolute-day fetch
// histogram + global counters); see CrawlModulePool::Traffic.
constexpr const char* kTrafficMagic = "webevo-traffic";
// Range guard on the section table, parsed before its checksum covers
// an allocation decision.
constexpr std::size_t kMaxSections = 16;
constexpr const char* kIncrementalKind = "incremental";
constexpr const char* kPeriodicKind = "periodic";

using storage::FindSection;
using storage::Section;

// A container's header: its magic line and section table, framed by
// its trailer. `*id` gets the container id, the header's checksum.
std::string ContainerHeader(const std::string& kind,
                            const std::vector<Section>& sections,
                            uint64_t* id) {
  std::ostringstream out;
  TrailerWriter writer(out);
  RecordLine line;
  writer.Line(
      line.Start(kCrawlerMagic, kCrawlerFormatVersion, kind, sections.size()));
  for (const Section& s : sections) {
    writer.Line(line.Start("S", s.name, s.bytes.size(), Fnv1a64(s.bytes)));
  }
  writer.Finish();
  *id = writer.hash();
  return out.str();
}

// Writes a container and returns its id.
StatusOr<uint64_t> WriteContainer(const std::string& kind,
                                  const std::vector<Section>& sections,
                                  std::ostream& out) {
  uint64_t id = 0;
  out << ContainerHeader(kind, sections, &id);
  for (const Section& s : sections) {
    out.write(s.bytes.data(),
              static_cast<std::streamsize>(s.bytes.size()));
  }
  if (!out.good()) return Status::Internal("checkpoint write failed");
  return id;
}

// WriteContainer's crash-consistent file form: the header and each
// section go straight to the file, so the save holds no second copy of
// the container.
StatusOr<uint64_t> WriteContainerFile(const std::string& path,
                                      const std::string& kind,
                                      const std::vector<Section>& sections) {
  uint64_t id = 0;
  const std::string header = ContainerHeader(kind, sections, &id);
  std::vector<std::string_view> parts = {header};
  for (const Section& s : sections) parts.push_back(s.bytes);
  Status st = AtomicWriteFile(path, parts);
  if (!st.ok()) return st;
  return id;
}

// A container or a delta segment must be of this crawler's `kind`.
Status CheckKind(const std::string& kind, const char* want) {
  if (kind == want) return Status::Ok();
  return Status::InvalidArgument("checkpoint kind '" + kind +
                                 "' does not match this crawler ('" + want +
                                 "')");
}

// InvalidArgument naming the first of `names` missing from `what`.
Status RequireSections(const std::vector<Section>& sections,
                       const std::string& what,
                       std::initializer_list<const char*> names) {
  for (const char* name : names) {
    if (FindSection(sections, name) == nullptr) {
      return Status::InvalidArgument(what + " missing section '" + name + "'");
    }
  }
  return Status::Ok();
}

// Parses one section's bytes with `read` into `*out`.
template <typename Read, typename T>
Status ParseSection(const std::string& bytes, Read read, T* out) {
  std::istringstream in(bytes);
  auto parsed = read(in);
  if (!parsed.ok()) return parsed.status();
  *out = std::move(parsed).value();
  return Status::Ok();
}

// A collection section is parsed only for a collection of its
// capacity, so applying it onto the emptied store cannot overflow.
Status ParseCollection(const std::string& bytes, std::size_t capacity,
                       CollectionRecords* records) {
  Status st = ParseSection(bytes, ReadCollection, records);
  if (st.ok() && records->capacity != capacity) {
    return Status::InvalidArgument(
        "checkpoint collection capacity does not match the configured "
        "capacity");
  }
  return st;
}

// ParseSection's twin: the bytes `write` makes of `value`. A save holds
// every section at once, so each is copied out at its exact size: a
// buffer moved out of the stream keeps the stream's growth slack, up
// to as much again.
template <typename Write, typename T>
std::string SectionBytes(Write write, const T& value) {
  std::ostringstream out;
  write(value, out);
  return out.str();
}

// The web's section: SaveWeb's bytes.
StatusOr<std::string> WebBytes(const simweb::SimulatedWeb& web) {
  std::ostringstream out;
  Status st = simweb::SaveWeb(web, out);
  if (!st.ok()) return st;
  return out.str();
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

// The restore sizes a per-site table by the largest site, so every
// site must be one of the web's `num_sites`.
StatusOr<std::vector<std::pair<uint32_t, double>>> ReadPolite(
    std::istream& is, uint32_t num_sites) {
  RecordReader in(is, "politeness snapshot");
  std::size_t count = 0;
  if (!in.Header(kPoliteMagic, kFormatVersion, count)) return in.status();
  std::vector<std::pair<uint32_t, double>> records;
  ReserveClaimed(records, count);
  for (std::size_t i = 0; i < count; ++i) {
    uint32_t site = 0;
    double last_access = 0.0;
    if (!in.Record("A", site, last_access)) return in.status();
    if (site >= num_sites) {
      return Status::InvalidArgument(
          "politeness record of a site outside the web");
    }
    records.emplace_back(site, last_access);
  }
  Status st = in.Finish();
  if (!st.ok()) return st;
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

StatusOr<TrackerSeries> ReadTracker(std::istream& is) {
  RecordReader in(is, "tracker snapshot");
  std::size_t count = 0;
  if (!in.Header(kTrackerMagic, kFormatVersion, count)) return in.status();
  TrackerSeries series;
  ReserveClaimed(series.times, count);
  ReserveClaimed(series.values, count);
  for (std::size_t i = 0; i < count; ++i) {
    double time = 0.0, value = 0.0;
    if (!in.Record("V", time, value)) return in.status();
    series.times.push_back(time);
    series.values.push_back(value);
  }
  Status st = in.Finish();
  if (!st.ok()) return st;
  return series;
}

void RestoreTracker(const TrackerSeries& series,
                    freshness::FreshnessTracker* tracker) {
  tracker->Clear();
  for (std::size_t i = 0; i < series.times.size(); ++i) {
    tracker->AddSample(series.times[i], series.values[i]);
  }
}

// A plain URL list (the BFS queue in queue order; the seen-set, the
// pending-admission set and a segment's removed keys in canonical
// order).
void WriteUrlList(const std::vector<simweb::Url>& urls,
                  std::ostream& out) {
  TrailerWriter writer(out);
  RecordLine line;
  writer.Line(line.Start(kUrlsMagic, kFormatVersion, urls.size()));
  for (const simweb::Url& url : urls) {
    writer.Line(line.Start("Q", url.site, url.slot, url.incarnation));
  }
  writer.Finish();
}

StatusOr<std::vector<simweb::Url>> ReadUrlList(std::istream& is) {
  RecordReader in(is, "url-list snapshot");
  std::size_t count = 0;
  if (!in.Header(kUrlsMagic, kFormatVersion, count)) return in.status();
  std::vector<simweb::Url> urls;
  ReserveClaimed(urls, count);
  for (std::size_t i = 0; i < count; ++i) {
    simweb::Url url;
    if (!in.Record("Q", url.site, url.slot, url.incarnation)) {
      return in.status();
    }
    urls.push_back(url);
  }
  Status st = in.Finish();
  if (!st.ok()) return st;
  return urls;
}

// A crawler's ledger in its meta section, generated from the Stats
// table (util/ledger.h): one `C` record of the counters in table order
// plus any `extra` counters kept outside Stats, then one `L` record of
// accumulator state per series, in table order. A failed parse leaves
// `stats` partly set; the caller discards it with the error.
template <typename S, typename... Extra>
void WriteLedger(const S& stats, TrailerWriter& writer, RecordLine& line,
                 const Extra&... extra) {
  line.Start("C");
  ledger::ForEachRow(stats, [&](const ledger::Row&, const auto& field) {
    if constexpr (ledger::kIsCounter<decltype(field)>) line.Add(field);
  });
  writer.Line(line.Add(extra...));
  ledger::ForEachRow(stats, [&](const ledger::Row&, const auto& field) {
    if constexpr (!ledger::kIsCounter<decltype(field)>) {
      const RunningStat::State state = field.SaveState();
      writer.Line(line.Start("L", state.count, state.mean, state.m2,
                             state.min, state.max));
    }
  });
}

template <typename S, typename... Extra>
void ReadLedger(RecordReader& in, S* stats, Extra&... extra) {
  in.Begin("C");
  ledger::ForEachRow(*stats, [&](const ledger::Row&, auto& field) {
    if constexpr (ledger::kIsCounter<decltype(field)>) in.Fields(field);
  });
  if constexpr (sizeof...(Extra) > 0) in.Fields(extra...);
  in.End();
  ledger::ForEachRow(*stats, [&](const ledger::Row&, auto& field) {
    if constexpr (!ledger::kIsCounter<decltype(field)>) {
      RunningStat::State state;
      in.Record("L", state.count, state.mean, state.m2, state.min, state.max);
      field.RestoreState(state);
    }
  });
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

StatusOr<FailureSnapshot> ReadFailure(std::istream& is) {
  RecordReader in(is, "failure snapshot");
  std::size_t nsites = 0, nurls = 0;
  if (!in.Header(kFailureMagic, kFormatVersion, nsites, nurls)) {
    return in.status();
  }
  FailureSnapshot snap;
  ReserveClaimed(snap.sites, nsites);
  for (std::size_t i = 0; i < nsites; ++i) {
    SiteFailureRecord r;
    if (!in.Record("S", r.site, r.consecutive, r.quarantined_until,
                   r.rng_init, r.lane[0], r.lane[1], r.lane[2], r.lane[3])) {
      return in.status();
    }
    snap.sites.push_back(r);
  }
  ReserveClaimed(snap.urls, nurls);
  for (std::size_t i = 0; i < nurls; ++i) {
    UrlFailureRecord r;
    if (!in.Record("U", r.url.site, r.url.slot, r.url.incarnation,
                   r.count)) {
      return in.status();
    }
    snap.urls.push_back(r);
  }
  Status st = in.Finish();
  if (!st.ok()) return st;
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

StatusOr<DefenseSnapshot> ReadDefense(std::istream& is) {
  RecordReader in(is, "defense snapshot");
  std::size_t nsites = 0, nfps = 0;
  if (!in.Header(kDefenseMagic, kFormatVersion, nsites, nfps)) {
    return in.status();
  }
  DefenseSnapshot snap;
  ReserveClaimed(snap.sites, nsites);
  for (std::size_t i = 0; i < nsites; ++i) {
    DefenseSiteRecord r;
    if (!in.Record("D", r.site, r.window_fetches, r.window_fresh,
                   r.throttle_level, r.quarantined, r.quarantined_until,
                   r.suppressed_total)) {
      return in.status();
    }
    snap.sites.push_back(r);
  }
  ReserveClaimed(snap.fingerprints, nfps);
  for (std::size_t i = 0; i < nfps; ++i) {
    DefenseFingerprintRecord r;
    if (!in.Record("F", r.checksum.hi, r.checksum.lo, r.url.site,
                   r.url.slot, r.url.incarnation)) {
      return in.status();
    }
    snap.fingerprints.push_back(r);
  }
  Status st = in.Finish();
  if (!st.ok()) return st;
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

StatusOr<CrawlModulePool::Traffic> ReadTraffic(std::istream& is) {
  RecordReader in(is, "traffic snapshot");
  std::size_t ndays = 0;
  CrawlModulePool::Traffic traffic;
  int any = 0;
  if (!in.Header(kTrafficMagic, kFormatVersion, ndays) ||
      !in.Record("G", traffic.fetch_count, traffic.failure_count,
                 traffic.politeness_rejections, any, traffic.first_fetch_time,
                 traffic.last_fetch_time)) {
    return in.status();
  }
  traffic.any_fetch = any != 0;
  // Range guard before sizing the histogram off parsed day indices.
  constexpr std::size_t kMaxTrafficDays = 1 << 24;
  for (std::size_t i = 0; i < ndays; ++i) {
    std::size_t day = 0;
    uint64_t count = 0;
    if (!in.Record("D", day, count)) return in.status();
    if (day >= kMaxTrafficDays) {
      return Status::InvalidArgument("implausible traffic day");
    }
    if (day >= traffic.fetches_per_day.size()) {
      traffic.fetches_per_day.resize(day + 1, 0);
    }
    traffic.fetches_per_day[day] = count;
  }
  Status st = in.Finish();
  if (!st.ok()) return st;
  return traffic;
}

}  // namespace

StatusOr<CheckpointContainer> ReadCheckpointContainer(std::istream& is) {
  RecordReader in(is, "checkpoint");
  CheckpointContainer container;
  std::size_t nsections = 0;
  if (!in.Header(kCrawlerMagic, kCrawlerFormatVersion, container.kind,
                 nsections)) {
    return in.status();
  }
  if (nsections > kMaxSections) {
    return Status::InvalidArgument("implausible checkpoint section count");
  }
  struct TableEntry {
    std::string name;
    std::size_t length = 0;
    uint64_t hash = 0;
  };
  std::vector<TableEntry> table(nsections);
  for (TableEntry& entry : table) {
    if (!in.Record("S", entry.name, entry.length, entry.hash)) {
      return in.status();
    }
  }
  Status st = in.Trailer();
  if (!st.ok()) return st;
  container.id = in.hash();
  container.sections.reserve(table.size());
  for (TableEntry& entry : table) {
    // Read in bounded chunks rather than trusting the table-claimed
    // length for one allocation: a crafted length can be recomputed
    // into a "valid" table, and the honest failure mode for a length
    // beyond the actual file is a truncation error, not bad_alloc.
    std::string bytes;
    ReserveClaimed(bytes, entry.length);
    std::size_t remaining = entry.length;
    char buf[1 << 16];
    while (remaining > 0) {
      const std::size_t want = std::min(remaining, sizeof(buf));
      is.read(buf, static_cast<std::streamsize>(want));
      const auto got = static_cast<std::size_t>(is.gcount());
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
    container.sections.push_back(
        Section{std::move(entry.name), std::move(bytes)});
  }
  st = ExpectStreamEnd(is, "checkpoint");
  if (!st.ok()) return st;
  return container;
}

/// The incremental crawler's checkpoint sections — the private-state
/// builders, their parsers, and the one restore path of a full image
/// and a delta segment. Befriended by IncrementalCrawler so SaveCrawler,
/// LoadCrawler, CheckpointIncremental and LoadCrawlerWithDeltasFromFile
/// share one implementation of each section.
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
    WriteLedger(crawler.stats_, writer, line,
                crawler.ranking_module_.refinement_count());
    writer.Finish();
    return os.str();
  }

  static StatusOr<IncMetaState> ReadIncMeta(std::istream& is) {
    RecordReader in(is, "checkpoint meta");
    IncMetaState meta;
    in.Header(kIncMetaMagic, kIncMetaVersion);
    in.Record("T", meta.now, meta.next_refine, meta.next_rebalance,
              meta.next_sample, meta.steady_since);
    in.Record("B", meta.batches_completed, meta.reached_capacity);
    ReadLedger(in, &meta.stats, meta.refinements);
    Status st = in.Finish();
    if (!st.ok()) return st;
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
    return SectionBytes(WriteUrlList, pending);
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
    return SectionBytes(WriteFailure, snap);
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
    return SectionBytes(WriteDefense, snap);
  }

  static void ApplyDefense(const DefenseSnapshot& defense,
                           IncrementalCrawler* crawler) {
    // Re-shards by the same site % N ownership rule as the live layer.
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

  /// The small sections a full checkpoint and every delta segment
  /// carry whole, all parsed before any is applied.
  struct WholeSections {
    std::vector<std::pair<uint32_t, double>> polite;
    TrackerSeries tracker;
    std::vector<simweb::Url> pending;
    FailureSnapshot failure;
    DefenseSnapshot defense;
    std::optional<CrawlModulePool::Traffic> traffic;
  };

  static std::string Polite(const IncrementalCrawler& crawler) {
    return SectionBytes(WritePolite, crawler.engine_.pool().ExportPoliteness());
  }

  static std::string Tracker(const IncrementalCrawler& crawler) {
    return SectionBytes(WriteTracker, crawler.tracker_);
  }

  static std::string Traffic(const IncrementalCrawler& crawler) {
    return SectionBytes(WriteTraffic,
                        crawler.engine_.pool().AggregateTraffic());
  }

  static Status ParsePolite(const std::string& bytes, uint32_t num_sites,
                            WholeSections* w) {
    auto read = [num_sites](std::istream& in) {
      return ReadPolite(in, num_sites);
    };
    return ParseSection(bytes, read, &w->polite);
  }

  template <auto Read, auto Field>
  static Status Parse(const std::string& bytes, uint32_t, WholeSections* w) {
    return ParseSection(bytes, Read, &(w->*Field));
  }

  /// One whole section: its name, whether every checkpoint carries it,
  /// its writer, and its parser into the staging WholeSections.
  struct WholeCodec {
    const char* name;
    bool required;
    std::string (*write)(const IncrementalCrawler& crawler);
    Status (*read)(const std::string& bytes, uint32_t num_sites,
                   WholeSections* w);
  };

  /// The whole sections in write order. Only "traffic" is optional:
  /// CrawlerCheckpointOptions::module_traffic writes it.
  static constexpr WholeCodec kWholeCodecs[] = {
      {"polite", true, Polite, ParsePolite},
      {"tracker", true, Tracker, Parse<ReadTracker, &WholeSections::tracker>},
      {"pending", true, Pending, Parse<ReadUrlList, &WholeSections::pending>},
      {"failure", true, Failure, Parse<ReadFailure, &WholeSections::failure>},
      {"defense", true, Defense, Parse<ReadDefense, &WholeSections::defense>},
      {"traffic", false, Traffic, Parse<ReadTraffic, &WholeSections::traffic>},
  };

  /// Appends the whole sections to a full checkpoint's or a delta
  /// segment's section list.
  static void WriteWholeSections(const IncrementalCrawler& crawler,
                                 const CrawlerCheckpointOptions& options,
                                 std::vector<Section>* sections) {
    for (const WholeCodec& codec : kWholeCodecs) {
      if (codec.required || options.module_traffic) {
        sections->push_back(Section{codec.name, codec.write(crawler)});
      }
    }
  }

  /// Parses every whole section of `sections` into `w`; InvalidArgument
  /// naming the first required section missing from `what`.
  static Status ReadWholeSections(const std::vector<Section>& sections,
                                  uint32_t num_sites, const std::string& what,
                                  WholeSections* w) {
    for (const WholeCodec& codec : kWholeCodecs) {
      const std::string* bytes = FindSection(sections, codec.name);
      if (bytes == nullptr && codec.required) {
        return Status::InvalidArgument(what + " missing section '" +
                                       codec.name + "'");
      }
      if (bytes == nullptr) continue;
      Status st = codec.read(*bytes, num_sites, w);
      if (!st.ok()) return st;
    }
    return Status::Ok();
  }

  /// The defense section replaces AllUrls' fingerprint registry, so
  /// this runs after an image's stores are emptied.
  static void ApplyWholeSections(const WholeSections& w,
                                 IncrementalCrawler* crawler) {
    crawler->engine_.pool().RestorePoliteness(w.polite);
    RestoreTracker(w.tracker, &crawler->tracker_);
    ApplyPending(w.pending, crawler);
    ApplyFailure(w.failure, crawler);
    ApplyDefense(w.defense, crawler);
    if (w.traffic.has_value()) {
      crawler->engine_.pool().RestoreTraffic(*w.traffic);
    }
  }

  /// The sections of a full image or, with `segment`, of a delta
  /// segment, in write order: meta, the four stores, the whole
  /// sections, and last the web's image section (with
  /// options.include_web). An image writes each store over every
  /// record, a segment over its dirty keys (WriteDirtyStores). The
  /// whole sections ride every segment: they are small, and the
  /// defense section's fingerprint registry grows with *distinct
  /// content*, a small multiple of the collection.
  static StatusOr<std::vector<Section>> Sections(
      const IncrementalCrawler& crawler, bool segment,
      const CrawlerCheckpointOptions& options) {
    if (!crawler.engine_.quiescent()) {
      return Status::FailedPrecondition(
          "checkpoint requires a quiesced engine (batch boundary)");
    }
    std::vector<Section> sections;
    sections.push_back(Section{"meta", IncMeta(crawler)});
    if (segment) {
      WriteDirtyStores(crawler, &sections);
    } else {
      sections.push_back(Section{
          "collection", SectionBytes(SaveCollection, crawler.collection_)});
      sections.push_back(
          Section{"allurls", SectionBytes(SaveAllUrls, crawler.all_urls_)});
      sections.push_back(Section{
          "update", SectionBytes(SaveUpdateModule, crawler.update_module_)});
      sections.push_back(
          Section{"frontier", SectionBytes(SaveFrontier, crawler.coll_urls_)});
    }
    WriteWholeSections(crawler, options, &sections);
    if (options.include_web) {
      auto web = WebBytes(*crawler.web_);
      if (!web.ok()) return web.status();
      sections.push_back(Section{"web", std::move(web).value()});
    }
    return sections;
  }

  /// A segment's four store sections: each store's section writer over
  /// its dirty keys still present (the frontier's dirty keys are its
  /// marking ledger), then the URL list of those now gone. Only the
  /// dirty keys are looked up; no store is copied or walked whole.
  static void WriteDirtyStores(const IncrementalCrawler& crawler,
                               std::vector<Section>* sections) {
    {
      storage::RecordStore<CollectionEntry>::DirtySet dirty;
      crawler.collection_.AppendDirty(&dirty);
      // Found entries stay put while the others are looked up: both
      // stores keep them in node-stable maps.
      std::vector<const CollectionEntry*> entries;
      std::vector<simweb::Url> removed;
      for (const simweb::Url& url : dirty) {
        const CollectionEntry* e = crawler.collection_.Find(url);
        if (e != nullptr) {
          entries.push_back(e);
        } else {
          removed.push_back(url);
        }
      }
      std::ostringstream os;
      WriteCollection(crawler.collection_.capacity(), std::move(entries), os);
      sections->push_back(Section{"collection", os.str()});
      sections->push_back(
          Section{"collection-removed", SectionBytes(WriteUrlList, removed)});
    }
    {
      AllUrls::DirtySet dirty;
      crawler.all_urls_.AppendDirty(&dirty);
      std::vector<std::pair<simweb::Url, const AllUrls::UrlInfo*>> records;
      for (const simweb::Url& url : dirty) {
        const AllUrls::UrlInfo* info = crawler.all_urls_.Find(url);
        if (info != nullptr) records.emplace_back(url, info);
      }
      std::ostringstream os;
      WriteAllUrls(std::move(records), os);
      sections->push_back(Section{"allurls", os.str()});
    }
    {
      std::vector<simweb::Url> removed;
      std::ostringstream os;
      UpdateModuleSection::Write(
          crawler.update_module_,
          UpdateModuleSection::Dirty(crawler.update_module_, &removed), os);
      sections->push_back(Section{"update", os.str()});
      sections->push_back(
          Section{"update-removed", SectionBytes(WriteUrlList, removed)});
    }
    {
      std::vector<CollUrls::Entry> entries;
      std::vector<simweb::Url> removed;
      for (const simweb::Url& url : crawler.frontier_dirty_) {
        auto entry = crawler.coll_urls_.LookupEntry(url);
        if (entry.has_value()) {
          entries.push_back(*entry);
        } else {
          removed.push_back(url);
        }
      }
      std::ostringstream os;
      WriteFrontier(std::move(entries), crawler.coll_urls_.next_seq(),
                    crawler.coll_urls_.front_when(), os);
      sections->push_back(Section{"frontier", os.str()});
      sections->push_back(
          Section{"frontier-removed", SectionBytes(WriteUrlList, removed)});
    }
  }

  /// Every crawler section of an image or a segment, parsed and
  /// checked, staged as flat record lists (never as a second store)
  /// until all have verified.
  struct Records {
    IncMetaState meta;
    CollectionRecords collection;
    std::vector<UrlInfoRecord> all_urls;
    UpdateModuleSection update;
    FrontierRecords frontier;
    /// A segment's dirty keys that are gone; empty for an image.
    std::vector<simweb::Url> collection_removed, update_removed,
        frontier_removed;
    WholeSections whole;
  };

  /// Parses and checks every crawler section: the collection's capacity
  /// against the configuration (its reader checks the record count
  /// against that capacity), the update section's estimator kind and
  /// the politeness records' site range. A segment also carries the
  /// `-removed` lists.
  static Status Parse(const std::vector<Section>& sections, bool segment,
                      const IncrementalCrawler& crawler, Records* r) {
    const std::string what = segment ? "delta segment" : "checkpoint";
    Status st = RequireSections(
        sections, what,
        {"meta", "collection", "allurls", "update", "frontier"});
    if (st.ok()) {
      st = ReadWholeSections(sections, crawler.web_->num_sites(), what,
                             &r->whole);
    }
    auto bytes = [&](const char* name) -> const std::string& {
      return *FindSection(sections, name);
    };
    auto read_update = [&crawler](std::istream& in) {
      return UpdateModuleSection::Read(in, crawler.update_module_.config());
    };
    if (st.ok()) st = ParseSection(bytes("meta"), ReadIncMeta, &r->meta);
    if (st.ok()) {
      st = ParseCollection(bytes("collection"),
                           crawler.config_.collection_capacity, &r->collection);
    }
    if (st.ok()) {
      st = ParseSection(bytes("allurls"), ReadAllUrls, &r->all_urls);
    }
    if (st.ok()) st = ParseSection(bytes("update"), read_update, &r->update);
    if (st.ok()) {
      st = ParseSection(bytes("frontier"), ReadFrontier, &r->frontier);
    }
    const std::pair<const char*, std::vector<simweb::Url>*> removed[] = {
        {"collection-removed", &r->collection_removed},
        {"update-removed", &r->update_removed},
        {"frontier-removed", &r->frontier_removed}};
    for (const auto& [name, urls] : removed) {
      if (!st.ok()) break;
      if (const std::string* list = FindSection(sections, name)) {
        st = ParseSection(*list, ReadUrlList, urls);
      } else if (segment) {
        st = RequireSections(sections, what, {name});
      }
    }
    return st;
  }

  /// Applies parsed records, removed keys first. An image applies onto
  /// the stores Restore emptied and cannot fail; a segment fails on
  /// collection records over its capacity.
  static Status Apply(Records r, IncrementalCrawler* crawler) {
    Status st = ApplyCollection(r.collection_removed,
                                std::move(r.collection.entries),
                                &crawler->collection_);
    if (!st.ok()) return st;
    ApplyAllUrls(r.all_urls, &crawler->all_urls_);
    std::move(r.update).ApplyTo(r.update_removed, &crawler->update_module_);
    ApplyFrontier(r.frontier_removed, r.frontier, &crawler->coll_urls_);
    ApplyWholeSections(r.whole, crawler);
    ApplyIncMeta(r.meta, crawler);
    return Status::Ok();
  }

  /// The one restore path of a full image and a delta segment: parse
  /// and check every crawler section, restore the web (RestoreWeb
  /// stages and checks its section before it replaces the web's
  /// state), then apply. Only then does an image empty
  /// the live stores, in place so a paged backend keeps its page files:
  /// a bad image leaves the crawler and its web untouched. A segment
  /// that fails to apply leaves the crawler unspecified; its bytes were
  /// checksummed twice (the log's seal and each section's trailer), so
  /// that is a format bug, not routine corruption.
  static Status Restore(const std::vector<Section>& sections, bool segment,
                        IncrementalCrawler* crawler) {
    Records r;
    Status st = Parse(sections, segment, *crawler, &r);
    if (!st.ok()) return st;
    if (const std::string* web = FindSection(sections, "web")) {
      std::istringstream in(*web);
      st = simweb::RestoreWeb(in, crawler->web_);
      if (!st.ok()) return st;
    }
    if (!segment) {
      crawler->collection_.Clear();
      crawler->all_urls_.Clear();
      crawler->update_module_ = UpdateModule(crawler->update_module_.config());
      crawler->coll_urls_ = ShardedFrontier(crawler->coll_urls_.num_shards());
    }
    return Apply(std::move(r), crawler);
  }

  static Status LoadImage(const CheckpointContainer& container,
                          IncrementalCrawler* crawler) {
    Status st = CheckKind(container.kind, kIncrementalKind);
    if (!st.ok()) return st;
    return Restore(container.sections, /*segment=*/false, crawler);
  }

  /// Drops every dirty mark — the post-checkpoint (and post-restore)
  /// reset that starts the next delta's ledger from empty.
  static void ClearDirty(IncrementalCrawler* crawler) {
    crawler->collection_.ClearDirty();
    crawler->all_urls_.ClearDirty();
    crawler->update_module_.ClearDirty();
    crawler->frontier_dirty_.clear();
  }

  /// Ends a restore. The restored state is the new baseline: delta
  /// tracking is re-armed (the update module was replaced) with no
  /// marks, and the next checkpoint rebases. The pre-restore view
  /// history is retired (readers' held references stay valid) and a
  /// view of the restored state published, so Acquire never serves
  /// stale rows.
  static void FinishRestore(IncrementalCrawler* crawler) {
    if (crawler->delta_tracking_) {
      crawler->EnableDeltaTracking();
      ClearDirty(crawler);
      crawler->base_.reset();
    }
    crawler->engine_.views().Clear();
    if (crawler->config_.publish_view_every_batches > 0) {
      crawler->PublishViewNow();
    }
  }

  /// A periodic checkpoint's sections in write order.
  static StatusOr<std::vector<Section>> Sections(
      const PeriodicCrawler& crawler,
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
                     crawler.swap_count_, crawler.config_.shadowing));
      WriteLedger(crawler.stats_, writer, line);
      writer.Finish();
      sections.push_back(Section{"meta", os.str()});
    }
    sections.push_back(
        Section{"collection-current",
                SectionBytes(SaveCollection, crawler.current_)});
    if (crawler.shadow_.has_value()) {
      sections.push_back(
          Section{"collection-shadow",
                  SectionBytes(SaveCollection, *crawler.shadow_)});
    }
    {
      const std::vector<simweb::Url> bfs(crawler.frontier_.begin(),
                                         crawler.frontier_.end());
      sections.push_back(Section{"bfs", SectionBytes(WriteUrlList, bfs)});
    }
    {
      std::vector<simweb::Url> seen(crawler.seen_.begin(),
                                    crawler.seen_.end());
      std::sort(seen.begin(), seen.end(), IdentityLess);
      sections.push_back(Section{"seen", SectionBytes(WriteUrlList, seen)});
    }
    sections.push_back(Section{
        "polite",
        SectionBytes(WritePolite, crawler.engine_.pool().ExportPoliteness())});
    sections.push_back(
        Section{"tracker", SectionBytes(WriteTracker, crawler.tracker_)});
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
      sections.push_back(Section{"failure", SectionBytes(WriteFailure, snap)});
    }
    if (options.module_traffic) {
      sections.push_back(
          Section{"traffic", SectionBytes(WriteTraffic,
                                          crawler.engine_.pool()
                                              .AggregateTraffic())});
    }
    if (options.include_web) {
      auto web = WebBytes(*crawler.web_);
      if (!web.ok()) return web.status();
      sections.push_back(Section{"web", std::move(web).value()});
    }
    return sections;
  }
};

Status SaveCrawler(const IncrementalCrawler& crawler, std::ostream& out,
                   const CrawlerCheckpointOptions& options) {
  auto sections = CheckpointIo::Sections(crawler, /*segment=*/false, options);
  if (!sections.ok()) return sections.status();
  return WriteContainer(kIncrementalKind, *sections, out).status();
}

Status LoadCrawler(std::istream& in, IncrementalCrawler* crawler) {
  auto container = ReadCheckpointContainer(in);
  if (!container.ok()) return container.status();
  Status st = CheckpointIo::LoadImage(*container, crawler);
  if (!st.ok()) return st;
  CheckpointIo::FinishRestore(crawler);
  return Status::Ok();
}

Status SaveCrawler(const PeriodicCrawler& crawler, std::ostream& out,
                   const CrawlerCheckpointOptions& options) {
  auto sections = CheckpointIo::Sections(crawler, options);
  if (!sections.ok()) return sections.status();
  return WriteContainer(kPeriodicKind, *sections, out).status();
}

Status LoadCrawler(std::istream& in, PeriodicCrawler* crawler) {
  auto container = ReadCheckpointContainer(in);
  if (!container.ok()) return container.status();
  Status st = CheckKind(container->kind, kPeriodicKind);
  if (st.ok()) {
    st = RequireSections(container->sections, "checkpoint",
                         {"meta", "collection-current", "bfs", "seen",
                          "polite", "tracker", "failure"});
  }
  if (st.ok() && crawler->config_.shadowing) {
    st = RequireSections(container->sections, "checkpoint",
                         {"collection-shadow"});
  }
  if (!st.ok()) return st;
  auto section = [&](const char* name) {
    return FindSection(container->sections, name);
  };

  double now = 0.0, cycle_start = 0.0, next_sample = 0.0;
  uint64_t batches_completed = 0, stored_this_cycle = 0;
  int cycle_active = 0, shadowing = 0;
  int64_t cycles_completed = 0, swap_count = 0;
  PeriodicCrawler::Stats stats;
  {
    std::istringstream is(*section("meta"));
    RecordReader meta(is, "checkpoint meta");
    meta.Header(kPerMetaMagic, kPerMetaVersion);
    meta.Record("T", now, cycle_start, next_sample);
    meta.Record("B", batches_completed, cycle_active, cycles_completed,
                stored_this_cycle, swap_count, shadowing);
    ReadLedger(meta, &stats);
    st = meta.Finish();
    if (!st.ok()) return st;
  }
  if ((shadowing != 0) != crawler->config_.shadowing) {
    return Status::InvalidArgument(
        "checkpoint shadowing mode does not match the configuration");
  }

  const std::size_t capacity = crawler->config_.collection_capacity;
  CollectionRecords current, shadow;
  st = ParseCollection(*section("collection-current"), capacity, &current);
  if (st.ok() && crawler->config_.shadowing) {
    st = ParseCollection(*section("collection-shadow"), capacity, &shadow);
  }
  if (!st.ok()) return st;
  std::vector<simweb::Url> bfs, seen;
  std::vector<std::pair<uint32_t, double>> polite;
  TrackerSeries tracker;
  FailureSnapshot failure;
  std::optional<CrawlModulePool::Traffic> traffic;
  const uint32_t num_sites = crawler->web_->num_sites();
  auto read_polite = [num_sites](std::istream& is) {
    return ReadPolite(is, num_sites);
  };
  st = ParseSection(*section("bfs"), ReadUrlList, &bfs);
  if (st.ok()) st = ParseSection(*section("seen"), ReadUrlList, &seen);
  if (st.ok()) st = ParseSection(*section("polite"), read_polite, &polite);
  if (st.ok()) st = ParseSection(*section("tracker"), ReadTracker, &tracker);
  if (st.ok()) st = ParseSection(*section("failure"), ReadFailure, &failure);
  if (st.ok() && section("traffic") != nullptr) {
    st = ParseSection(*section("traffic"), ReadTraffic, &traffic.emplace());
  }
  if (!st.ok()) return st;
  if (const std::string* web = section("web")) {
    std::istringstream web_in(*web);
    st = simweb::RestoreWeb(web_in, crawler->web_);
    if (!st.ok()) return st;
  }

  // --- Commit: the live collections are emptied in place, so a paged
  // backend keeps its page files across the restore.
  auto replace = [](CollectionRecords records, Collection* collection) {
    collection->Clear();
    return ApplyCollection({}, std::move(records.entries), collection);
  };
  st = replace(std::move(current), &crawler->current_);
  if (crawler->shadow_.has_value()) {
    if (st.ok()) st = replace(std::move(shadow), &*crawler->shadow_);
    crawler->swap_count_ = swap_count;
  }
  if (!st.ok()) return st;
  crawler->frontier_.assign(bfs.begin(), bfs.end());
  crawler->seen_.clear();
  crawler->seen_.insert(seen.begin(), seen.end());
  crawler->engine_.pool().RestorePoliteness(polite);
  if (traffic.has_value()) {
    crawler->engine_.pool().RestoreTraffic(*traffic);
  }
  RestoreTracker(tracker, &crawler->tracker_);
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
  auto sections = CheckpointIo::Sections(crawler, /*segment=*/false, options);
  if (!sections.ok()) return sections.status();
  return WriteContainerFile(path, kIncrementalKind, *sections).status();
}

Status SaveCrawlerToFile(const PeriodicCrawler& crawler,
                         const std::string& path,
                         const CrawlerCheckpointOptions& options) {
  auto sections = CheckpointIo::Sections(crawler, options);
  if (!sections.ok()) return sections.status();
  return WriteContainerFile(path, kPeriodicKind, *sections).status();
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

Status CheckpointIncremental(IncrementalCrawler* crawler,
                             const std::string& path,
                             const CrawlerCheckpointOptions& options) {
  if (!crawler->delta_tracking_) {
    return Status::FailedPrecondition(
        "incremental checkpointing requires delta tracking (set "
        "config.checkpoint_incremental)");
  }
  // Rebase when there is no verified base to append to: the first
  // checkpoint of this process, or the first after a restore.
  const bool rebase = !crawler->base_.has_value();
  auto sections = CheckpointIo::Sections(*crawler, /*segment=*/!rebase,
                                         options);
  if (!sections.ok()) return sections.status();
  const std::string delta_path = path + ".deltas";
  if (rebase) {
    auto id = WriteContainerFile(path, kIncrementalKind, *sections);
    if (!id.ok()) return id.status();
    Status st = storage::TruncateDeltaLog(delta_path);
    if (!st.ok()) return st;
    crawler->base_ = *id;
  } else {
    storage::DeltaSegment segment;
    segment.kind = kIncrementalKind;
    segment.base = *crawler->base_;
    segment.batch = crawler->batches_completed_;
    segment.sections = std::move(sections).value();
    Status st = storage::AppendDeltaSegment(delta_path, segment);
    if (!st.ok()) return st;
  }
  CheckpointIo::ClearDirty(crawler);
  return Status::Ok();
}

Status LoadCrawlerWithDeltasFromFile(const std::string& path,
                                     IncrementalCrawler* crawler) {
  uint64_t base = 0;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
      return Status::NotFound("cannot open " + path);
    }
    auto container = ReadCheckpointContainer(in);
    if (!container.ok()) return container.status();
    Status st = CheckpointIo::LoadImage(*container, crawler);
    if (!st.ok()) return st;
    base = container->id;
  }
  // One segment at a time: each is applied and freed before the next is
  // read, so the replay holds the image and one segment.
  uint64_t torn_tail_bytes = 0;  // ignored: the crash case
  Status st = storage::ForEachDeltaSegment(
      path + ".deltas",
      [&](storage::DeltaSegment& segment) {
        Status kind = CheckKind(segment.kind, kIncrementalKind);
        if (!kind.ok()) return kind;
        // A segment naming another image is stale: the log of an earlier
        // run, or one a crash left between a rebase's rename and
        // truncate.
        if (segment.base != base) return Status::Ok();
        return CheckpointIo::Restore(segment.sections, /*segment=*/true,
                                     crawler);
      },
      &torn_tail_bytes);
  if (!st.ok()) return st;
  CheckpointIo::FinishRestore(crawler);
  return Status::Ok();
}

}  // namespace webevo::crawler
