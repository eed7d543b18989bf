// Snapshot/restore of the SimulatedWeb's lazily materialised evolution
// state, declared in simweb/simulated_web.h.
//
// Format (trailer-framed text, see util/text_snapshot.h):
//   webevo-web 3 <num_sites> <nrecords> <nfetchsites> <now>
//              <fetch_count> <not_found_count> <nfaults> <nadv>
//   A <site> <site_fetch_count>          (nfetchsites records, nonzero
//                                         counters only, ascending)
//   X <site> <d0..d3> <o0..o3> <outage_start> <outage_end> <death|inf>
//     <flash_bucket> <flash_count>       (nfaults records, initialized
//                                         per-site fault lanes only,
//                                         ascending site)
//   Y <site> <trap_minted> <twin_emitted>
//                                        (nadv records, sites with
//                                         nonzero adversarial counters
//                                         only, ascending)
//   I <site> <slot> <incarnation> <version> <change_rate> <birth>
//     <death|inf> <state_time> <last_change> <r0> <r1> <r2> <r3>
//     <nlinks> [<target_site> <target_slot>]*
//                                        (nrecords records, canonical
//                                         (site, slot, incarnation)
//                                         order)
//   webevo-checksum <fnv64>
//
// Version 2 added the per-site fault-injection lanes (`X` records and
// the <nfaults> header field); version 3 added the per-site adversarial
// counters (`Y` records and <nadv>). Version 1/2 snapshots are still
// accepted and restore with no fault/adversarial state. Every field of
// every PageRecord
// round-trips exactly (doubles at precision 17, RNG lanes raw), so a
// restored web serves bit-identical fetches — including the lazy
// Poisson increments that depend on the *observation history*, not
// just on absolute time.

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "simweb/simulated_web.h"
#include "util/record_line.h"
#include "util/text_snapshot.h"

namespace webevo::simweb {
namespace {

constexpr const char* kWebMagic = "webevo-web";
constexpr int kWebFormatVersion = 3;
// Site-delta stream: the full state of only the dirty sites, plus the
// absolute global counters (see SaveWebDelta). Version 2 added the
// <nadv> header field and Y records.
constexpr const char* kWebDeltaMagic = "webevo-webdelta";
constexpr int kWebDeltaFormatVersion = 2;
// Range guard for per-record link counts parsed before the trailer has
// been verified.
constexpr std::size_t kMaxLinksPerPage = 1 << 16;

// Infinity never parses back through operator>>, so the death time of
// an immortal root is written as a token.
void AddDeath(double death, RecordLine& line) {
  if (std::isinf(death)) {
    line.Add("inf");
  } else {
    line.Add(death);
  }
}

// The record formatters SaveWeb and SaveWebDelta share. `FaultState`
// and `SiteState` are SimulatedWeb's private per-site records, deduced
// so that the formatters need no friendship.

template <typename FaultState>
const RecordLine& FaultLine(uint32_t site, const FaultState& f,
                            RecordLine& line) {
  line.Start("X", site);
  for (uint64_t lane : f.draw.State()) line.Add(lane);
  for (uint64_t lane : f.outage.State()) line.Add(lane);
  line.Add(f.outage_start, f.outage_end);
  AddDeath(f.death_day, line);
  line.Add(f.flash_bucket, f.flash_count);
  return line;
}

// Writes the `I` record of every incarnation of every slot of `site`.
template <typename SiteState>
void WriteSitePages(uint32_t s, const SiteState& site, TrailerWriter& writer,
                    RecordLine& line) {
  for (uint32_t j = 0; j < site.slots.size(); ++j) {
    const auto& history = site.slots[j].history;
    for (uint32_t inc = 0; inc < history.size(); ++inc) {
      const auto& page = history[inc];
      line.Start("I", s, j, inc, page.version, page.change_rate,
                 page.birth_time);
      AddDeath(page.death_time, line);
      line.Add(page.state_time, page.last_change_time);
      for (uint64_t lane : page.rng.State()) line.Add(lane);
      line.Add(page.cross_links.size());
      for (const auto& [ts, tslot] : page.cross_links) line.Add(ts, tslot);
      writer.Line(line);
    }
  }
}

StatusOr<double> ParseDeath(std::istream& is) {
  std::string token;
  is >> token;
  if (is.fail()) {
    return Status::InvalidArgument("malformed web record (death)");
  }
  if (token == "inf") return std::numeric_limits<double>::infinity();
  std::istringstream ts(token);
  double value = 0.0;
  ts >> value;
  if (ts.fail()) {
    return Status::InvalidArgument("malformed web record (death)");
  }
  return value;
}

}  // namespace

Status SaveWeb(const SimulatedWeb& web, std::ostream& out) {
  // The writer walks (site, slot, incarnation) ascending — the
  // canonical order — and must see a quiescent web (no concurrent
  // batch in flight).
  if (web.concurrent_batch_) {
    return Status::FailedPrecondition(
        "cannot snapshot a web inside a concurrent batch");
  }
  uint64_t nrecords = 0;
  for (const auto& site : web.sites_) {
    for (const auto& slot : site.slots) nrecords += slot.history.size();
  }
  std::vector<std::pair<uint32_t, uint64_t>> fetch_sites;
  for (uint32_t s = 0; s < web.num_sites(); ++s) {
    uint64_t count = web.site_fetches_[s].load(std::memory_order_relaxed);
    if (count > 0) fetch_sites.emplace_back(s, count);
  }
  std::vector<uint32_t> fault_sites;
  for (uint32_t s = 0; s < web.site_faults_.size(); ++s) {
    if (web.site_faults_[s].init) fault_sites.push_back(s);
  }
  std::vector<uint32_t> adv_sites;
  for (uint32_t s = 0; s < web.site_adv_.size(); ++s) {
    if (web.site_adv_[s].trap_minted > 0 ||
        web.site_adv_[s].twin_emitted > 0) {
      adv_sites.push_back(s);
    }
  }

  TrailerWriter writer(out);
  RecordLine line;
  writer.Line(
      line.Start(kWebMagic, kWebFormatVersion, web.num_sites(), nrecords,
                 fetch_sites.size(), web.now(), web.fetch_count(),
                 web.not_found_count(), fault_sites.size(), adv_sites.size()));
  for (const auto& [site, count] : fetch_sites) {
    writer.Line(line.Start("A", site, count));
  }
  for (uint32_t s : fault_sites) {
    writer.Line(FaultLine(s, web.site_faults_[s], line));
  }
  for (uint32_t s : adv_sites) {
    const SimulatedWeb::SiteAdvState& a = web.site_adv_[s];
    writer.Line(line.Start("Y", s, a.trap_minted, a.twin_emitted));
  }
  for (uint32_t s = 0; s < web.num_sites(); ++s) {
    WriteSitePages(s, web.sites_[s], writer, line);
  }
  writer.Finish();
  if (!out.good()) return Status::Internal("web snapshot write failed");
  return Status::Ok();
}

Status RestoreWeb(std::istream& in, SimulatedWeb* web) {
  if (web->concurrent_batch_) {
    return Status::FailedPrecondition(
        "cannot restore a web inside a concurrent batch");
  }
  TrailerReader reader(in);
  auto header = reader.Next();
  if (!header.ok()) return header.status();
  std::istringstream hs(*header);
  std::string magic;
  int version = 0;
  uint32_t num_sites = 0;
  uint64_t nrecords = 0, fetch_count = 0, not_found = 0;
  std::size_t nfetchsites = 0, nfaults = 0, nadv = 0;
  double now = 0.0;
  hs >> magic >> version >> num_sites >> nrecords >> nfetchsites >>
      now >> fetch_count >> not_found;
  if (hs.fail() || magic != kWebMagic) {
    return Status::InvalidArgument("not a web snapshot");
  }
  // Version 1 predates fault injection (no <nfaults> / X records),
  // version 2 predates the adversarial lane (no <nadv> / Y records);
  // both restore with those lanes empty.
  if (version < 1 || version > kWebFormatVersion) {
    return Status::InvalidArgument("unsupported web snapshot version");
  }
  if (version >= 2) {
    hs >> nfaults;
    if (hs.fail()) {
      return Status::InvalidArgument("malformed web header");
    }
  }
  if (version >= 3) {
    hs >> nadv;
    if (hs.fail()) {
      return Status::InvalidArgument("malformed web header");
    }
  }
  Status line_end = ExpectLineEnd(hs, "web header");
  if (!line_end.ok()) return line_end;
  if (num_sites != web->num_sites()) {
    return Status::InvalidArgument(
        "web snapshot site count does not match this web's "
        "configuration");
  }

  // Stage everything, swap in only after the trailer verifies. Counts
  // are parsed before the trailer covers them, so they bound loops but
  // never size an allocation directly.
  std::vector<std::pair<uint32_t, uint64_t>> fetch_sites;
  fetch_sites.reserve(std::min<std::size_t>(nfetchsites, 1 << 20));
  for (std::size_t i = 0; i < nfetchsites; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument("web snapshot fetch-site count "
                                     "mismatch");
    }
    std::istringstream is(*line);
    std::string tag;
    uint32_t site = 0;
    uint64_t count = 0;
    is >> tag >> site >> count;
    if (is.fail() || tag != "A" || site >= num_sites) {
      return Status::InvalidArgument("malformed web fetch record");
    }
    Status end = ExpectLineEnd(is, "web fetch");
    if (!end.ok()) return end;
    fetch_sites.emplace_back(site, count);
  }

  std::vector<std::pair<uint32_t, SimulatedWeb::SiteFaultState>>
      staged_faults;
  staged_faults.reserve(std::min<std::size_t>(nfaults, 1 << 20));
  for (std::size_t i = 0; i < nfaults; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument("web snapshot fault count mismatch");
    }
    std::istringstream is(*line);
    std::string tag;
    uint32_t site = 0;
    SimulatedWeb::SiteFaultState f;
    f.init = true;
    std::array<uint64_t, 4> draw{}, outage{};
    is >> tag >> site >> draw[0] >> draw[1] >> draw[2] >> draw[3] >>
        outage[0] >> outage[1] >> outage[2] >> outage[3] >>
        f.outage_start >> f.outage_end;
    if (is.fail() || tag != "X" || site >= num_sites) {
      return Status::InvalidArgument("malformed web fault record");
    }
    auto death = ParseDeath(is);
    if (!death.ok()) return death.status();
    f.death_day = *death;
    is >> f.flash_bucket >> f.flash_count;
    if (is.fail()) {
      return Status::InvalidArgument("malformed web fault record");
    }
    Status end = ExpectLineEnd(is, "web fault");
    if (!end.ok()) return end;
    f.draw.SetState(draw);
    f.outage.SetState(outage);
    if (web->site_faults_.empty()) {
      return Status::InvalidArgument(
          "web snapshot carries fault state but this web's "
          "configuration has fault injection disabled");
    }
    staged_faults.emplace_back(site, f);
  }

  std::vector<std::pair<uint32_t, SimulatedWeb::SiteAdvState>> staged_adv;
  staged_adv.reserve(std::min<std::size_t>(nadv, 1 << 20));
  for (std::size_t i = 0; i < nadv; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument(
          "web snapshot adversarial count mismatch");
    }
    std::istringstream is(*line);
    std::string tag;
    uint32_t site = 0;
    SimulatedWeb::SiteAdvState a;
    is >> tag >> site >> a.trap_minted >> a.twin_emitted;
    if (is.fail() || tag != "Y" || site >= num_sites) {
      return Status::InvalidArgument(
          "malformed web adversarial record");
    }
    Status end = ExpectLineEnd(is, "web adversarial");
    if (!end.ok()) return end;
    if (web->site_adv_.empty()) {
      return Status::InvalidArgument(
          "web snapshot carries adversarial state but this web's "
          "configuration has the adversarial lane disabled");
    }
    staged_adv.emplace_back(site, a);
  }

  struct StagedPage {
    Url url;
    SimulatedWeb::PageRecord record;
  };
  std::vector<StagedPage> staged;
  staged.reserve(static_cast<std::size_t>(
      std::min<uint64_t>(nrecords, 1 << 20)));
  for (uint64_t i = 0; i < nrecords; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument("web snapshot record count "
                                     "mismatch");
    }
    std::istringstream is(*line);
    std::string tag;
    StagedPage page;
    is >> tag >> page.url.site >> page.url.slot >> page.url.incarnation >>
        page.record.version >> page.record.change_rate >>
        page.record.birth_time;
    if (is.fail() || tag != "I") {
      return Status::InvalidArgument("malformed web page record");
    }
    auto death = ParseDeath(is);
    if (!death.ok()) return death.status();
    page.record.death_time = *death;
    std::array<uint64_t, 4> lanes{};
    std::size_t nlinks = 0;
    is >> page.record.state_time >> page.record.last_change_time >>
        lanes[0] >> lanes[1] >> lanes[2] >> lanes[3] >> nlinks;
    if (is.fail() || nlinks > kMaxLinksPerPage) {
      return Status::InvalidArgument("malformed web page record");
    }
    page.record.rng.SetState(lanes);
    page.record.cross_links.reserve(nlinks);
    for (std::size_t k = 0; k < nlinks; ++k) {
      uint32_t ts = 0, tslot = 0;
      is >> ts >> tslot;
      if (is.fail()) {
        return Status::InvalidArgument("malformed web link list");
      }
      page.record.cross_links.emplace_back(ts, tslot);
    }
    Status end = ExpectLineEnd(is, "web page");
    if (!end.ok()) return end;
    if (page.url.site >= num_sites ||
        page.url.slot >= web->sites_[page.url.site].slots.size()) {
      return Status::InvalidArgument(
          "web snapshot slot layout does not match this web's "
          "configuration");
    }
    page.record.url = page.url;
    staged.push_back(std::move(page));
  }
  Status stream_end = FinishFramedStream(reader, in, "web snapshot");
  if (!stream_end.ok()) return stream_end;

  // Records arrive in canonical order: each slot's incarnations must be
  // contiguous and start at 0, and every slot needs at least its
  // incarnation-0 page (slots are never empty after construction).
  // Everything is staged and validated before the web is touched, so a
  // bad snapshot never leaves it half-restored.
  std::vector<std::vector<std::vector<SimulatedWeb::PageRecord>>>
      histories(num_sites);
  uint64_t index = 0;
  for (uint32_t s = 0; s < num_sites; ++s) {
    const auto& slots = web->sites_[s].slots;
    histories[s].resize(slots.size());
    for (uint32_t j = 0; j < slots.size(); ++j) {
      std::vector<SimulatedWeb::PageRecord>& history = histories[s][j];
      while (index < staged.size() && staged[index].url.site == s &&
             staged[index].url.slot == j) {
        if (staged[index].url.incarnation != history.size()) {
          return Status::InvalidArgument(
              "web snapshot incarnations out of order");
        }
        history.push_back(std::move(staged[index].record));
        ++index;
      }
      if (history.empty()) {
        return Status::InvalidArgument(
            "web snapshot missing a slot's page history");
      }
    }
  }
  if (index != staged.size()) {
    return Status::InvalidArgument("web snapshot records out of order");
  }
  for (uint32_t s = 0; s < num_sites; ++s) {
    auto& slots = web->sites_[s].slots;
    for (uint32_t j = 0; j < slots.size(); ++j) {
      slots[j].history = std::move(histories[s][j]);
    }
  }

  web->now_.store(now, std::memory_order_relaxed);
  web->fetch_count_.store(fetch_count, std::memory_order_relaxed);
  web->not_found_count_.store(not_found, std::memory_order_relaxed);
  web->pages_created_.store(nrecords, std::memory_order_relaxed);
  for (uint32_t s = 0; s < num_sites; ++s) {
    web->site_fetches_[s].store(0, std::memory_order_relaxed);
  }
  for (const auto& [site, count] : fetch_sites) {
    web->site_fetches_[site].store(count, std::memory_order_relaxed);
  }
  for (auto& f : web->site_faults_) f = SimulatedWeb::SiteFaultState{};
  for (auto& [site, f] : staged_faults) web->site_faults_[site] = f;
  for (auto& a : web->site_adv_) a = SimulatedWeb::SiteAdvState{};
  for (auto& [site, a] : staged_adv) web->site_adv_[site] = a;
  return Status::Ok();
}

// Delta format (trailer-framed like the full snapshot):
//   webevo-webdelta 2 <num_sites> <ndirty> <nrecords> <nfetchsites>
//                   <nfaults> <now> <fetch_count> <not_found_count>
//                   <pages_created> <nadv>
//   D <site>                           (ndirty, ascending: the sites
//                                       whose full state follows)
//   A <site> <site_fetch_count>        (dirty sites, nonzero only)
//   X <site> ...                       (dirty sites, initialized only;
//                                       same fields as the full format)
//   Y <site> <trap_minted> <twin_emitted>
//                                      (dirty sites, nonzero only)
//   I <site> <slot> <incarnation> ...  (all records of the dirty
//                                       sites, canonical order)
//   webevo-checksum <fnv64>
// Globals are absolute, never increments, so applying a segment is
// idempotent and segments need no exact pairing with reads.
Status SaveWebDelta(const SimulatedWeb& web, std::ostream& out) {
  if (web.concurrent_batch_) {
    return Status::FailedPrecondition(
        "cannot snapshot a web inside a concurrent batch");
  }
  if (web.site_dirty_ == nullptr) {
    return Status::FailedPrecondition(
        "web delta requires EnableDirtyTracking");
  }
  std::set<uint32_t> dirty;
  web.AppendDirtySites(&dirty);
  uint64_t nrecords = 0;
  std::vector<std::pair<uint32_t, uint64_t>> fetch_sites;
  std::vector<uint32_t> fault_sites;
  std::vector<uint32_t> adv_sites;
  for (uint32_t s : dirty) {
    for (const auto& slot : web.sites_[s].slots) {
      nrecords += slot.history.size();
    }
    uint64_t count = web.site_fetches_[s].load(std::memory_order_relaxed);
    if (count > 0) fetch_sites.emplace_back(s, count);
    if (s < web.site_faults_.size() && web.site_faults_[s].init) {
      fault_sites.push_back(s);
    }
    if (s < web.site_adv_.size() && (web.site_adv_[s].trap_minted > 0 ||
                                     web.site_adv_[s].twin_emitted > 0)) {
      adv_sites.push_back(s);
    }
  }

  TrailerWriter writer(out);
  RecordLine line;
  writer.Line(
      line.Start(kWebDeltaMagic, kWebDeltaFormatVersion, web.num_sites(),
                 dirty.size(), nrecords, fetch_sites.size(), fault_sites.size(),
                 web.now(), web.fetch_count(), web.not_found_count(),
                 web.OracleTotalPagesCreated(), adv_sites.size()));
  for (uint32_t s : dirty) writer.Line(line.Start("D", s));
  for (const auto& [site, count] : fetch_sites) {
    writer.Line(line.Start("A", site, count));
  }
  for (uint32_t s : fault_sites) {
    writer.Line(FaultLine(s, web.site_faults_[s], line));
  }
  for (uint32_t s : adv_sites) {
    const SimulatedWeb::SiteAdvState& a = web.site_adv_[s];
    writer.Line(line.Start("Y", s, a.trap_minted, a.twin_emitted));
  }
  for (uint32_t s : dirty) WriteSitePages(s, web.sites_[s], writer, line);
  writer.Finish();
  if (!out.good()) return Status::Internal("web delta write failed");
  return Status::Ok();
}

Status ApplyWebDelta(std::istream& in, SimulatedWeb* web) {
  if (web->concurrent_batch_) {
    return Status::FailedPrecondition(
        "cannot restore a web inside a concurrent batch");
  }
  TrailerReader reader(in);
  auto header = reader.Next();
  if (!header.ok()) return header.status();
  std::istringstream hs(*header);
  std::string magic;
  int version = 0;
  uint32_t num_sites = 0;
  uint64_t ndirty = 0, nrecords = 0;
  std::size_t nfetchsites = 0, nfaults = 0, nadv = 0;
  uint64_t fetch_count = 0, not_found = 0, pages_created = 0;
  double now = 0.0;
  hs >> magic >> version >> num_sites >> ndirty >> nrecords >>
      nfetchsites >> nfaults >> now >> fetch_count >> not_found >>
      pages_created;
  if (hs.fail() || magic != kWebDeltaMagic) {
    return Status::InvalidArgument("not a web delta");
  }
  // Version 1 predates the adversarial lane: no <nadv> / Y records.
  if (version < 1 || version > kWebDeltaFormatVersion) {
    return Status::InvalidArgument("unsupported web delta version");
  }
  if (version >= 2) {
    hs >> nadv;
    if (hs.fail()) {
      return Status::InvalidArgument("malformed web delta header");
    }
  }
  Status line_end = ExpectLineEnd(hs, "web delta header");
  if (!line_end.ok()) return line_end;
  if (num_sites != web->num_sites()) {
    return Status::InvalidArgument(
        "web delta site count does not match this web's configuration");
  }

  std::vector<uint32_t> dirty;
  dirty.reserve(std::min<std::size_t>(ndirty, 1 << 20));
  for (uint64_t i = 0; i < ndirty; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument("web delta dirty count mismatch");
    }
    std::istringstream is(*line);
    std::string tag;
    uint32_t site = 0;
    is >> tag >> site;
    if (is.fail() || tag != "D" || site >= num_sites ||
        (!dirty.empty() && site <= dirty.back())) {
      return Status::InvalidArgument("malformed web delta site record");
    }
    Status end = ExpectLineEnd(is, "web delta site");
    if (!end.ok()) return end;
    dirty.push_back(site);
  }
  std::set<uint32_t> dirty_set(dirty.begin(), dirty.end());

  std::vector<std::pair<uint32_t, uint64_t>> fetch_sites;
  fetch_sites.reserve(std::min<std::size_t>(nfetchsites, 1 << 20));
  for (std::size_t i = 0; i < nfetchsites; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument("web delta fetch count mismatch");
    }
    std::istringstream is(*line);
    std::string tag;
    uint32_t site = 0;
    uint64_t count = 0;
    is >> tag >> site >> count;
    if (is.fail() || tag != "A" || dirty_set.count(site) == 0) {
      return Status::InvalidArgument("malformed web delta fetch record");
    }
    Status end = ExpectLineEnd(is, "web delta fetch");
    if (!end.ok()) return end;
    fetch_sites.emplace_back(site, count);
  }

  std::vector<std::pair<uint32_t, SimulatedWeb::SiteFaultState>>
      staged_faults;
  staged_faults.reserve(std::min<std::size_t>(nfaults, 1 << 20));
  for (std::size_t i = 0; i < nfaults; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument("web delta fault count mismatch");
    }
    std::istringstream is(*line);
    std::string tag;
    uint32_t site = 0;
    SimulatedWeb::SiteFaultState f;
    f.init = true;
    std::array<uint64_t, 4> draw{}, outage{};
    is >> tag >> site >> draw[0] >> draw[1] >> draw[2] >> draw[3] >>
        outage[0] >> outage[1] >> outage[2] >> outage[3] >>
        f.outage_start >> f.outage_end;
    if (is.fail() || tag != "X" || dirty_set.count(site) == 0) {
      return Status::InvalidArgument("malformed web delta fault record");
    }
    auto death = ParseDeath(is);
    if (!death.ok()) return death.status();
    f.death_day = *death;
    is >> f.flash_bucket >> f.flash_count;
    if (is.fail()) {
      return Status::InvalidArgument("malformed web delta fault record");
    }
    Status end = ExpectLineEnd(is, "web delta fault");
    if (!end.ok()) return end;
    f.draw.SetState(draw);
    f.outage.SetState(outage);
    if (web->site_faults_.empty()) {
      return Status::InvalidArgument(
          "web delta carries fault state but this web's configuration "
          "has fault injection disabled");
    }
    staged_faults.emplace_back(site, f);
  }

  std::vector<std::pair<uint32_t, SimulatedWeb::SiteAdvState>> staged_adv;
  staged_adv.reserve(std::min<std::size_t>(nadv, 1 << 20));
  for (std::size_t i = 0; i < nadv; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument(
          "web delta adversarial count mismatch");
    }
    std::istringstream is(*line);
    std::string tag;
    uint32_t site = 0;
    SimulatedWeb::SiteAdvState a;
    is >> tag >> site >> a.trap_minted >> a.twin_emitted;
    if (is.fail() || tag != "Y" || dirty_set.count(site) == 0) {
      return Status::InvalidArgument(
          "malformed web delta adversarial record");
    }
    Status end = ExpectLineEnd(is, "web delta adversarial");
    if (!end.ok()) return end;
    if (web->site_adv_.empty()) {
      return Status::InvalidArgument(
          "web delta carries adversarial state but this web's "
          "configuration has the adversarial lane disabled");
    }
    staged_adv.emplace_back(site, a);
  }

  struct StagedPage {
    Url url;
    SimulatedWeb::PageRecord record;
  };
  std::vector<StagedPage> staged;
  staged.reserve(static_cast<std::size_t>(
      std::min<uint64_t>(nrecords, 1 << 20)));
  for (uint64_t i = 0; i < nrecords; ++i) {
    auto line = reader.Next();
    if (!line.ok()) {
      return Status::InvalidArgument("web delta record count mismatch");
    }
    std::istringstream is(*line);
    std::string tag;
    StagedPage page;
    is >> tag >> page.url.site >> page.url.slot >>
        page.url.incarnation >> page.record.version >>
        page.record.change_rate >> page.record.birth_time;
    if (is.fail() || tag != "I") {
      return Status::InvalidArgument("malformed web delta page record");
    }
    auto death = ParseDeath(is);
    if (!death.ok()) return death.status();
    page.record.death_time = *death;
    std::array<uint64_t, 4> lanes{};
    std::size_t nlinks = 0;
    is >> page.record.state_time >> page.record.last_change_time >>
        lanes[0] >> lanes[1] >> lanes[2] >> lanes[3] >> nlinks;
    if (is.fail() || nlinks > kMaxLinksPerPage) {
      return Status::InvalidArgument("malformed web delta page record");
    }
    page.record.rng.SetState(lanes);
    page.record.cross_links.reserve(nlinks);
    for (std::size_t k = 0; k < nlinks; ++k) {
      uint32_t ts = 0, tslot = 0;
      is >> ts >> tslot;
      if (is.fail()) {
        return Status::InvalidArgument("malformed web delta link list");
      }
      page.record.cross_links.emplace_back(ts, tslot);
    }
    Status end = ExpectLineEnd(is, "web delta page");
    if (!end.ok()) return end;
    if (dirty_set.count(page.url.site) == 0 ||
        page.url.slot >= web->sites_[page.url.site].slots.size()) {
      return Status::InvalidArgument(
          "web delta slot layout does not match this web's "
          "configuration");
    }
    page.record.url = page.url;
    staged.push_back(std::move(page));
  }
  Status stream_end = FinishFramedStream(reader, in, "web delta");
  if (!stream_end.ok()) return stream_end;

  // Same canonical-contiguity validation as the full restore, over the
  // dirty sites only; everything staged before the web is touched.
  std::vector<std::vector<std::vector<SimulatedWeb::PageRecord>>>
      histories(dirty.size());
  uint64_t index = 0;
  for (std::size_t d = 0; d < dirty.size(); ++d) {
    const uint32_t s = dirty[d];
    const auto& slots = web->sites_[s].slots;
    histories[d].resize(slots.size());
    for (uint32_t j = 0; j < slots.size(); ++j) {
      std::vector<SimulatedWeb::PageRecord>& history = histories[d][j];
      while (index < staged.size() && staged[index].url.site == s &&
             staged[index].url.slot == j) {
        if (staged[index].url.incarnation != history.size()) {
          return Status::InvalidArgument(
              "web delta incarnations out of order");
        }
        history.push_back(std::move(staged[index].record));
        ++index;
      }
      if (history.empty()) {
        return Status::InvalidArgument(
            "web delta missing a dirty slot's page history");
      }
    }
  }
  if (index != staged.size()) {
    return Status::InvalidArgument("web delta records out of order");
  }
  for (std::size_t d = 0; d < dirty.size(); ++d) {
    auto& slots = web->sites_[dirty[d]].slots;
    for (uint32_t j = 0; j < slots.size(); ++j) {
      slots[j].history = std::move(histories[d][j]);
    }
  }

  web->now_.store(now, std::memory_order_relaxed);
  web->fetch_count_.store(fetch_count, std::memory_order_relaxed);
  web->not_found_count_.store(not_found, std::memory_order_relaxed);
  web->pages_created_.store(pages_created, std::memory_order_relaxed);
  for (const uint32_t s : dirty) {
    web->site_fetches_[s].store(0, std::memory_order_relaxed);
    if (!web->site_faults_.empty()) {
      web->site_faults_[s] = SimulatedWeb::SiteFaultState{};
    }
    if (!web->site_adv_.empty()) {
      web->site_adv_[s] = SimulatedWeb::SiteAdvState{};
    }
  }
  for (const auto& [site, count] : fetch_sites) {
    web->site_fetches_[site].store(count, std::memory_order_relaxed);
  }
  for (auto& [site, f] : staged_faults) web->site_faults_[site] = f;
  for (auto& [site, a] : staged_adv) web->site_adv_[site] = a;
  return Status::Ok();
}

}  // namespace webevo::simweb
