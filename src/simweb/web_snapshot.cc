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
// counters (`Y` records and <nadv>). Only version 3 is read. Every field
// of every PageRecord round-trips exactly (doubles at precision 17, RNG
// lanes raw), so a restored web serves bit-identical fetches —
// including the lazy Poisson increments that depend on the
// *observation history*, not just on absolute time.
//
// This is the web's one format: a full checkpoint and every delta
// segment carry it whole (crawler/snapshot.h). A page's state moves
// whenever it is observed, and the freshness oracle observes every
// collection page every half day by default, so between two
// checkpoints nearly every site moves (docs/STORAGE.md has the
// measured shares).

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "simweb/simulated_web.h"
#include "util/record_line.h"
#include "util/text_snapshot.h"

namespace webevo::simweb {
namespace {

constexpr const char* kWebMagic = "webevo-web";
constexpr int kWebFormatVersion = 3;

// Infinity never parses back through operator>>, so the death time of
// an immortal root is written as a token.
void AddDeath(double death, RecordLine& line) {
  if (std::isinf(death)) {
    line.Add("inf");
  } else {
    line.Add(death);
  }
}

// The record formatters. `FaultState` and `SiteState` are
// SimulatedWeb's private per-site records, deduced so that the
// formatters need no friendship.

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

// Reads a death time as AddDeath wrote it: the token "inf", or a
// number (operator>> alone never parses infinity back).
struct Death {
  double& value;
};

std::istream& operator>>(std::istream& is, Death death) {
  std::string token;
  if (!(is >> token)) return is;
  if (token == "inf") {
    death.value = std::numeric_limits<double>::infinity();
    return is;
  }
  std::istringstream number(token);
  number >> death.value;
  if (number.fail()) is.setstate(std::ios::failbit);
  return is;
}

}  // namespace

/// A web snapshot's records (A, X, Y and I) and global counters,
/// staged until the stream verifies, then applied. Befriended by
/// SimulatedWeb.
struct WebSiteRecords {
  double now = 0.0;
  uint64_t fetch_count = 0, not_found = 0, nrecords = 0;
  std::vector<std::pair<uint32_t, uint64_t>> fetches;
  std::vector<std::pair<uint32_t, SimulatedWeb::SiteFaultState>> faults;
  std::vector<std::pair<uint32_t, SimulatedWeb::SiteAdvState>> adv;
  /// Incarnation histories by [site][slot].
  std::vector<std::vector<std::vector<SimulatedWeb::PageRecord>>> histories;

  /// Reads the counted A, X, Y and I records (nrecords of them).
  bool Read(RecordReader& in, const SimulatedWeb& web, std::size_t nfetches,
            std::size_t nfaults, std::size_t nadv) {
    const uint32_t num_sites = web.num_sites();
    ReserveClaimed(fetches, nfetches);
    for (std::size_t i = 0; i < nfetches; ++i) {
      uint32_t site = 0;
      uint64_t count = 0;
      if (!in.Record("A", site, count)) return false;
      if (site >= num_sites) {
        return in.Fail("fetch record of a site outside this web");
      }
      fetches.emplace_back(site, count);
    }
    ReserveClaimed(faults, nfaults);
    for (std::size_t i = 0; i < nfaults; ++i) {
      uint32_t site = 0;
      SimulatedWeb::SiteFaultState f;
      f.init = true;
      std::array<uint64_t, 4> draw{}, outage{};
      if (!in.Record("X", site, draw[0], draw[1], draw[2], draw[3],
                     outage[0], outage[1], outage[2], outage[3],
                     f.outage_start, f.outage_end, Death{f.death_day},
                     f.flash_bucket, f.flash_count)) {
        return false;
      }
      if (site >= num_sites) {
        return in.Fail("fault record of a site outside this web");
      }
      if (!web.config_.HasFaults()) {
        return in.Fail(
            "fault state, but this web's configuration has fault "
            "injection disabled");
      }
      f.draw.SetState(draw);
      f.outage.SetState(outage);
      faults.emplace_back(site, f);
    }
    ReserveClaimed(adv, nadv);
    for (std::size_t i = 0; i < nadv; ++i) {
      uint32_t site = 0;
      SimulatedWeb::SiteAdvState a;
      if (!in.Record("Y", site, a.trap_minted, a.twin_emitted)) return false;
      if (site >= num_sites) {
        return in.Fail("adversarial record of a site outside this web");
      }
      if (!web.config_.HasAdvState()) {
        return in.Fail(
            "adversarial state, but this web's configuration has the "
            "adversarial lane disabled");
      }
      adv.emplace_back(site, a);
    }
    histories.resize(num_sites);
    for (uint32_t s = 0; s < num_sites; ++s) {
      histories[s].resize(web.sites_[s].slots.size());
    }
    // Records arrive in canonical order: (site, slot) never decreases,
    // and each slot's incarnations count up from 0.
    std::pair<uint32_t, uint32_t> last{0, 0};
    for (uint64_t i = 0; i < nrecords; ++i) {
      Url url;
      SimulatedWeb::PageRecord page;
      std::array<uint64_t, 4> lanes{};
      std::size_t nlinks = 0;
      if (!in.Begin("I", url.site, url.slot, url.incarnation, page.version,
                    page.change_rate, page.birth_time, Death{page.death_time},
                    page.state_time, page.last_change_time, lanes[0],
                    lanes[1], lanes[2], lanes[3], nlinks)) {
        return false;
      }
      // Read as far as the fields go: a forged count fails at the end
      // of the line instead of sizing an allocation.
      ReserveClaimed(page.cross_links, nlinks);
      for (std::size_t k = 0; k < nlinks; ++k) {
        uint32_t target_site = 0, target_slot = 0;
        if (!in.Fields(target_site, target_slot)) return false;
        page.cross_links.emplace_back(target_site, target_slot);
      }
      if (!in.End()) return false;
      if (url.site >= num_sites ||
          url.slot >= web.sites_[url.site].slots.size()) {
        return in.Fail("page record outside this web's slot layout");
      }
      const std::pair<uint32_t, uint32_t> key{url.site, url.slot};
      auto& history = histories[url.site][url.slot];
      if (key < last || url.incarnation != history.size()) {
        return in.Fail("page records out of canonical order");
      }
      last = key;
      page.rng.SetState(lanes);
      page.url = url;
      history.push_back(std::move(page));
    }
    // Every slot keeps at least its incarnation-0 page.
    for (const auto& slots : histories) {
      for (const auto& history : slots) {
        if (history.empty()) return in.Fail("a slot's page history is missing");
      }
    }
    return true;
  }

  /// Replaces the web's whole evolution state.
  void ApplyTo(SimulatedWeb* web) && {
    for (uint32_t s = 0; s < web->num_sites(); ++s) {
      SimulatedWeb::SiteState& site = web->sites_[s];
      for (uint32_t j = 0; j < site.slots.size(); ++j) {
        site.slots[j].history = std::move(histories[s][j]);
      }
      site.fetches.store(0, std::memory_order_relaxed);
      site.not_found.store(0, std::memory_order_relaxed);
      site.fault = SimulatedWeb::SiteFaultState{};
      site.adv = SimulatedWeb::SiteAdvState{};
    }
    web->now_.store(now, std::memory_order_relaxed);
    for (const auto& [site, count] : fetches) {
      web->sites_[site].fetches.store(count, std::memory_order_relaxed);
    }
    for (const auto& [site, f] : faults) web->sites_[site].fault = f;
    for (const auto& [site, a] : adv) web->sites_[site].adv = a;
    // The totals are the sites' counts plus the stray counters, so those
    // take what the per-site counts leave of the saved totals (wrapping,
    // as the totals do): fetch_count() and not_found_count() then read
    // back exactly the saved values.
    uint64_t site_fetches = 0;
    for (const SimulatedWeb::SiteState& site : web->sites_) {
      site_fetches += site.fetches.load(std::memory_order_relaxed);
    }
    web->stray_fetches_.store(fetch_count - site_fetches,
                              std::memory_order_relaxed);
    web->stray_not_found_.store(not_found, std::memory_order_relaxed);
  }
};

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
  std::vector<uint32_t> fault_sites;
  std::vector<uint32_t> adv_sites;
  for (uint32_t s = 0; s < web.num_sites(); ++s) {
    const SimulatedWeb::SiteState& site = web.sites_[s];
    const uint64_t count = site.fetches.load(std::memory_order_relaxed);
    if (count > 0) fetch_sites.emplace_back(s, count);
    if (site.fault.init) fault_sites.push_back(s);
    if (site.adv.trap_minted > 0 || site.adv.twin_emitted > 0) {
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
    writer.Line(FaultLine(s, web.sites_[s].fault, line));
  }
  for (uint32_t s : adv_sites) {
    const SimulatedWeb::SiteAdvState& a = web.sites_[s].adv;
    writer.Line(line.Start("Y", s, a.trap_minted, a.twin_emitted));
  }
  for (uint32_t s = 0; s < web.num_sites(); ++s) {
    WriteSitePages(s, web.sites_[s], writer, line);
  }
  writer.Finish();
  if (!out.good()) return Status::Internal("web snapshot write failed");
  return Status::Ok();
}

Status RestoreWeb(std::istream& is, SimulatedWeb* web) {
  if (web->concurrent_batch_) {
    return Status::FailedPrecondition(
        "cannot restore a web inside a concurrent batch");
  }
  RecordReader in(is, "web snapshot");
  uint32_t num_sites = 0;
  std::size_t nfetches = 0, nfaults = 0, nadv = 0;
  WebSiteRecords records;
  if (!in.Header(kWebMagic, kWebFormatVersion, num_sites,
                 records.nrecords, nfetches, records.now,
                 records.fetch_count, records.not_found, nfaults, nadv)) {
    return in.status();
  }
  if (num_sites != web->num_sites()) {
    return Status::InvalidArgument(
        "web snapshot site count does not match this web's "
        "configuration");
  }
  records.Read(in, *web, nfetches, nfaults, nadv);
  Status st = in.Finish();
  if (!st.ok()) return st;
  std::move(records).ApplyTo(web);
  return Status::Ok();
}

}  // namespace webevo::simweb
