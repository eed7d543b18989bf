#include "simweb/simulated_web.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string_view>

#include "util/hash.h"

namespace webevo::simweb {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();
// Tolerance for "time moved backwards" checks; fetch schedules produced
// by accumulating floating-point steps can jitter at this magnitude.
constexpr double kTimeSlack = 1e-9;
// Salt separating the per-page streams from the construction-time
// layout stream derived from the same seed.
constexpr uint64_t kPageStreamSalt = 0x9E3779B97F4A7C15ull;
// Salts separating the per-site fault lanes from the page streams and
// from each other.
constexpr uint64_t kFaultDrawSalt = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kFaultOutageSalt = 0x165667B19E3779F9ull;
constexpr uint64_t kSiteDeathSalt = 0x27D4EB2F165667C5ull;
// Salts separating the adversarial classification draws (pure per-site
// hash draws, never advanced by observation) from everything above.
constexpr uint64_t kTrapSalt = 0x94D049BB133111EBull;
constexpr uint64_t kMigrationSalt = 0xBF58476D1CE4E5B9ull;

// The shared low-value body every minted trap URL of `site` serves:
// distinct from any real page body, identical within the site, so a
// trap yields exactly one content fingerprint no matter how many URLs
// it mints.
std::string TrapBody(uint32_t site) {
  return "<html><body>webevo-trap-site " + std::to_string(site) +
         "</body></html>";
}

// The text of a real page body's header around its three numbers, and
// the trailer after its filler.
constexpr std::string_view kBodyTitle = "<html><head><title>page ";
constexpr std::string_view kBodyRevision = "</title></head><body>revision ";
constexpr std::string_view kBodyToken = " token ";
constexpr std::string_view kBodyEnd = "</body></html>";
// Decimal digits of the largest uint64_t. Each number's to_chars is
// bounded to this many bytes, so the header buffer below provably
// holds the longest header.
constexpr std::size_t kMaxU64Digits =
    std::numeric_limits<uint64_t>::digits10 + 1;
constexpr std::size_t kBodyTextBytes =
    kBodyTitle.size() + kBodyRevision.size() + kBodyToken.size();
constexpr std::size_t kBodyHeaderMax = kBodyTextBytes + 3 * kMaxU64Digits;

}  // namespace

SimulatedWeb::SimulatedWeb(const WebConfig& config)
    : config_(config), rng_(config.seed) {
  if (Status st = config_.Validate(); !st.ok()) {
    const std::string why = st.ToString();
    std::fprintf(stderr, "SimulatedWeb: invalid WebConfig: %s\n", why.c_str());
    std::abort();
  }

  // Lay out sites domain by domain, then shuffle so site index (which
  // Zipf popularity keys on) is not correlated with domain order.
  std::vector<Domain> domains;
  for (int d = 0; d < kNumDomains; ++d) {
    for (int i = 0; i < config_.sites_per_domain[static_cast<size_t>(d)];
         ++i) {
      domains.push_back(static_cast<Domain>(d));
    }
  }
  rng_.Shuffle(domains);

  // A site's record holds its mutex, so the records are built in place.
  sites_ = std::vector<SiteState>(domains.size());
  const double log_lo = std::log(static_cast<double>(config_.min_site_size));
  const double log_hi = std::log(static_cast<double>(config_.max_site_size));
  std::vector<uint32_t> sizes(sites_.size());
  for (uint32_t s = 0; s < sites_.size(); ++s) {
    sites_[s].domain = domains[s];
    uint32_t size;
    if (config_.adv_heavy_tail_zipf > 0.0) {
      // Heavy-tailed sizes: a Zipf law over the configured range,
      // rank-ordered by site index (site 0 is the giant).
      const double span = static_cast<double>(config_.max_site_size -
                                              config_.min_site_size);
      size = config_.min_site_size +
             static_cast<uint32_t>(std::lround(
                 span * std::pow(static_cast<double>(s) + 1.0,
                                 -config_.adv_heavy_tail_zipf)));
    } else {
      size = static_cast<uint32_t>(
          std::lround(std::exp(rng_.Uniform(log_lo, log_hi))));
    }
    if (size < config_.min_site_size) size = config_.min_site_size;
    if (size > config_.max_site_size) size = config_.max_site_size;
    sizes[s] = size;
  }
  // Mirror followers copy their leader's size so the groups' slot
  // spaces align URL for URL.
  for (uint32_t s = 0; s < sites_.size(); ++s) {
    const uint32_t leader = MirrorLeaderOf(s);
    if (leader != s) sizes[s] = sizes[leader];
  }
  for (uint32_t s = 0; s < sites_.size(); ++s) {
    sites_[s].slots.resize(sizes[s]);
    total_slots_ += sizes[s];
  }
  // Populate every slot with a stationary-age initial page. Serial, so
  // no locking; every draw comes from the slot's own incarnation-0
  // stream, keeping the standing population independent of site order.
  for (uint32_t s = 0; s < sites_.size(); ++s) {
    for (uint32_t j = 0; j < sites_[s].slots.size(); ++j) {
      CreatePageLocked(s, j, 0.0, /*stationary=*/true);
    }
  }
}

Rng SimulatedWeb::PageStream(PageId id) const {
  return Rng(HashCombine(config_.seed ^ kPageStreamSalt, id));
}

bool SimulatedWeb::IsTrapSite(uint32_t site) const {
  if (config_.adv_trap_site_prob <= 0.0 ||
      config_.adv_trap_links_per_fetch == 0) {
    return false;
  }
  // A migration twin's virtual slots belong to its resurrected source;
  // it can't double as a trap.
  if (TwinSourceOf(site) < num_sites()) return false;
  Rng draw(HashCombine(config_.seed ^ kTrapSalt, site));
  return draw.Bernoulli(config_.adv_trap_site_prob);
}

bool SimulatedWeb::IsMirroredSite(uint32_t site) const {
  if (config_.adv_mirror_group_size < 2 || config_.adv_mirror_groups < 1) {
    return false;
  }
  const uint64_t span = static_cast<uint64_t>(config_.adv_mirror_group_size) *
                        config_.adv_mirror_groups;
  return site < span && site < sites_.size();
}

uint32_t SimulatedWeb::MirrorLeaderOf(uint32_t site) const {
  if (!IsMirroredSite(site)) return site;
  return site - site % config_.adv_mirror_group_size;
}

double SimulatedWeb::MigrationDayOf(uint32_t site) const {
  if (config_.adv_migration_prob <= 0.0) return kInfinity;
  // Only even sites migrate; the odd neighbor is the twin that
  // resurrects them (so a source is never itself a twin).
  if (site % 2 != 0 || site + 1 >= sites_.size()) return kInfinity;
  Rng draw(HashCombine(config_.seed ^ kMigrationSalt, site));
  if (!draw.Bernoulli(config_.adv_migration_prob)) return kInfinity;
  return draw.NextDouble() * 2.0 * config_.adv_migration_mean_day;
}

uint32_t SimulatedWeb::TwinSourceOf(uint32_t site) const {
  if (config_.adv_migration_prob <= 0.0 || site % 2 != 1) {
    return num_sites();
  }
  const uint32_t source = site - 1;
  return MigrationDayOf(source) < kInfinity ? source : num_sites();
}

void SimulatedWeb::MintTrapLinksLocked(uint32_t site,
                                       std::vector<Url>* links) {
  SiteAdvState& adv = sites_[site].adv;
  const auto real = static_cast<uint64_t>(sites_[site].slots.size());
  const uint64_t span = kMaxSlotsPerSite - real;
  for (uint32_t k = 0; k < config_.adv_trap_links_per_fetch; ++k) {
    const auto slot = static_cast<uint32_t>(real + adv.trap_minted % span);
    ++adv.trap_minted;
    links->push_back(Url{site, slot, 0});
  }
}

void SimulatedWeb::EmitTwinLinksLocked(uint32_t site, uint32_t source,
                                       std::vector<Url>* links) {
  SiteAdvState& adv = sites_[site].adv;
  const auto real = static_cast<uint64_t>(sites_[site].slots.size());
  const auto source_size =
      static_cast<uint64_t>(sites_[source].slots.size());
  for (uint32_t k = 0; k < config_.adv_migration_links_per_fetch &&
                       adv.twin_emitted < source_size;
       ++k) {
    links->push_back(
        Url{site, static_cast<uint32_t>(real + adv.twin_emitted), 0});
    ++adv.twin_emitted;
  }
}

SimulatedWeb::PageRecord& SimulatedWeb::CreatePageLocked(uint32_t site,
                                                         uint32_t slot,
                                                         double birth,
                                                         bool stationary) {
  SlotState& slot_state = sites_[site].slots[slot];
  auto incarnation = static_cast<uint32_t>(slot_state.history.size());
  assert(incarnation < kMaxIncarnationsPerSlot);

  PageRecord page;
  page.url = Url{site, slot, incarnation};
  page.rng = PageStream(MakePageId(site, slot, incarnation));

  const DomainProfile& profile =
      DomainProfile::Calibrated(sites_[site].domain);
  DomainProfile::PageDraw draw =
      profile.SamplePage(page.rng, config_.rate_lifespan_coupling);
  if (stationary && config_.uniform_lifespan_days <= 0.0 && slot != 0) {
    // A snapshot at a random instant sees a slot's occupant with
    // probability proportional to its lifespan (length-biased renewal
    // sampling), not with the birth distribution — long-lived stable
    // pages dominate the standing population even when births are
    // dominated by short-lived churners. Rejection-sample accordingly.
    double max_lifespan = 0.0;
    for (const auto& bucket : profile.lifespan_mixture()) {
      max_lifespan = std::max(max_lifespan, bucket.max_value);
    }
    while (page.rng.NextDouble() * max_lifespan > draw.lifespan_days) {
      draw = profile.SamplePage(page.rng, config_.rate_lifespan_coupling);
    }
  }
  if (config_.uniform_change_interval_days > 0.0) {
    page.change_rate = 1.0 / config_.uniform_change_interval_days;
  } else if (!config_.custom_change_interval_mix.empty()) {
    page.change_rate =
        1.0 / DomainProfile::MixtureQuantile(
                  config_.custom_change_interval_mix, page.rng.NextDouble());
  } else {
    page.change_rate = 1.0 / draw.change_interval_days;
  }
  if (IsMirroredSite(site) || MigrationDayOf(site) < kInfinity) {
    // Mirror members and migration sources are static (version stays
    // 0): their checksums alias across sites and incarnations (see
    // Fetch), and aliased *live* content would couple one page's
    // observation times to another's — breaking the per-page-stream
    // independence the shard-count invariant rests on.
    page.change_rate = 0.0;
  }
  double lifespan = config_.uniform_lifespan_days > 0.0
                        ? config_.uniform_lifespan_days
                        : draw.lifespan_days;
  if (slot == 0) {
    // Site roots are immortal: the paper's monitored sites persist for
    // the whole study, and killing a root would orphan the site.
    page.birth_time = birth;
    page.death_time = kInfinity;
  } else if (stationary) {
    // Draw the page mid-life so the initial population is in steady
    // state: age uniform in [0, lifespan).
    double age = page.rng.NextDouble() * lifespan;
    page.birth_time = birth - age;
    page.death_time = page.birth_time + lifespan;
  } else {
    page.birth_time = birth;
    page.death_time = birth + lifespan;
  }
  page.state_time = std::max(page.birth_time, 0.0);
  page.last_change_time = page.state_time;

  for (int k = 0; k < config_.cross_links_per_page; ++k) {
    uint32_t target_site = site;
    if (sites_.size() > 1 &&
        page.rng.Bernoulli(config_.cross_site_link_prob)) {
      // Popular (low-index) sites attract more links.
      target_site = static_cast<uint32_t>(
          page.rng.Zipf(sites_.size(), config_.site_popularity_zipf) - 1);
    }
    // Slot counts are immutable after construction, so reading another
    // site's size here needs no lock.
    uint32_t target_slot = static_cast<uint32_t>(
        page.rng.NextBounded(sites_[target_site].slots.size()));
    page.cross_links.emplace_back(target_site, target_slot);
  }

  slot_state.history.push_back(std::move(page));
  return slot_state.history.back();
}

void SimulatedWeb::EnsureCoverageLocked(uint32_t site, uint32_t slot,
                                        double t) {
  SlotState& slot_state = sites_[site].slots[slot];
  while (slot_state.history.back().death_time <= t) {
    double death = slot_state.history.back().death_time;
    CreatePageLocked(site, slot, death, /*stationary=*/false);
  }
}

SimulatedWeb::PageRecord& SimulatedWeb::OccupantAtLocked(uint32_t site,
                                                         uint32_t slot,
                                                         double t) {
  std::vector<PageRecord>& history = sites_[site].slots[slot].history;
  // Occupant lifetimes partition time, so the occupant at `t` is the
  // first record whose death lies beyond `t`. Indexing by time instead
  // of a mutable "current occupant" pointer keeps lookups at earlier
  // times correct even after another shard has observed the slot at a
  // later time.
  auto it = std::upper_bound(
      history.begin(), history.end(), t,
      [](double value, const PageRecord& r) { return value < r.death_time; });
  assert(it != history.end());
  return *it;
}

SimulatedWeb::PageRecord& SimulatedWeb::RecordOf(PageId id) {
  assert(PageIdSite(id) < sites_.size());
  assert(PageIdSlot(id) < sites_[PageIdSite(id)].slots.size());
  assert(PageIdIncarnation(id) <
         sites_[PageIdSite(id)].slots[PageIdSlot(id)].history.size());
  return sites_[PageIdSite(id)]
      .slots[PageIdSlot(id)]
      .history[PageIdIncarnation(id)];
}

const SimulatedWeb::PageRecord& SimulatedWeb::RecordOf(PageId id) const {
  assert(PageIdSite(id) < sites_.size());
  assert(PageIdSlot(id) < sites_[PageIdSite(id)].slots.size());
  assert(PageIdIncarnation(id) <
         sites_[PageIdSite(id)].slots[PageIdSlot(id)].history.size());
  return sites_[PageIdSite(id)]
      .slots[PageIdSlot(id)]
      .history[PageIdIncarnation(id)];
}

void SimulatedWeb::AdvancePage(PageRecord& page, double t) {
  if (t <= page.state_time) return;
  double dt = t - page.state_time;
  if (page.change_rate > 0.0) {
    uint64_t k = page.rng.Poisson(page.change_rate * dt);
    if (k > 0) {
      page.version += k;
      // Conditioned on k Poisson events in (state_time, t], the latest
      // event is distributed as state_time + dt * max(U_1..U_k), and
      // max of k uniforms is U^(1/k).
      double u = page.rng.NextDouble();
      page.last_change_time =
          page.state_time + dt * std::pow(u, 1.0 / static_cast<double>(k));
    }
  }
  page.state_time = t;
}

void SimulatedWeb::BumpNow(double t) {
  double observed = now_.load(std::memory_order_relaxed);
  while (t > observed &&
         !now_.compare_exchange_weak(observed, t,
                                     std::memory_order_relaxed)) {
  }
}

double SimulatedWeb::TimeFloor() const {
  return concurrent_batch_ ? batch_floor_
                           : now_.load(std::memory_order_relaxed);
}

void SimulatedWeb::BeginConcurrentBatch(double floor) {
  assert(!concurrent_batch_);
  concurrent_batch_ = true;
  batch_floor_ = floor;
}

void SimulatedWeb::EndConcurrentBatch() {
  assert(concurrent_batch_);
  concurrent_batch_ = false;
}

Url SimulatedWeb::ResolveOccupantUrl(uint32_t site, uint32_t slot,
                                     double t) {
  std::lock_guard<std::mutex> lock(sites_[site].mu);
  EnsureCoverageLocked(site, slot, t);
  return OccupantAtLocked(site, slot, t).url;
}

SimulatedWeb::FaultOutcome SimulatedWeb::EvalFaultLocked(
    uint32_t site, double t, double* latency_days) {
  SiteFaultState& f = sites_[site].fault;
  if (!f.init) {
    f.init = true;
    f.draw = Rng(HashCombine(config_.seed ^ kFaultDrawSalt, site));
    f.outage = Rng(HashCombine(config_.seed ^ kFaultOutageSalt, site));
    if (config_.fault_site_death_prob > 0.0) {
      // Death is a pure per-site hash draw: whether and when the site
      // dies never depends on observation order.
      Rng death(HashCombine(config_.seed ^ kSiteDeathSalt, site));
      if (death.Bernoulli(config_.fault_site_death_prob)) {
        f.death_day = death.NextDouble() * 2.0 *
                      config_.fault_site_death_mean_day;
      }
    }
  }
  if (t >= f.death_day) return FaultOutcome::kTransient;
  if (config_.fault_outage_rate_per_day > 0.0) {
    // Materialize outage windows lazily up to t; per-site fetch times
    // are non-decreasing, so the renewal walk never rewinds.
    while (f.outage_end <= t) {
      f.outage_start =
          f.outage_end +
          f.outage.Exponential(config_.fault_outage_rate_per_day);
      f.outage_end = f.outage_start + config_.fault_outage_duration_days;
    }
    if (f.outage_start <= t) return FaultOutcome::kTransient;
  }
  double transient_p = config_.fault_transient_prob;
  if (config_.fault_flash_crowd_threshold > 0 &&
      config_.fault_flash_crowd_window_days > 0.0) {
    auto bucket = static_cast<int64_t>(
        std::floor(t / config_.fault_flash_crowd_window_days));
    if (bucket != f.flash_bucket) {
      f.flash_bucket = bucket;
      f.flash_count = 0;
    }
    ++f.flash_count;
    if (f.flash_count > config_.fault_flash_crowd_threshold) {
      transient_p = std::min(
          1.0, transient_p + config_.fault_flash_crowd_error_prob);
    }
  }
  const double u = f.draw.NextDouble();
  if (u < transient_p) return FaultOutcome::kTransient;
  if (u < transient_p + config_.fault_timeout_prob) {
    *latency_days = config_.fault_timeout_latency_days;
    return FaultOutcome::kTimeout;
  }
  if (u < transient_p + config_.fault_timeout_prob +
              config_.fault_slow_prob) {
    *latency_days = config_.fault_slow_latency_days;
    return FaultOutcome::kSlow;
  }
  return FaultOutcome::kNone;
}

Status SimulatedWeb::StrayFetch(const Url& url) {
  stray_fetches_.fetch_add(1, std::memory_order_relaxed);
  stray_not_found_.fetch_add(1, std::memory_order_relaxed);
  return Status::NotFound("no such site/slot: " + url.ToString());
}

uint64_t SimulatedWeb::fetch_count() const {
  uint64_t total = stray_fetches_.load(std::memory_order_relaxed);
  for (const SiteState& site : sites_) {
    total += site.fetches.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t SimulatedWeb::not_found_count() const {
  uint64_t total = stray_not_found_.load(std::memory_order_relaxed);
  for (const SiteState& site : sites_) {
    total += site.not_found.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t SimulatedWeb::OracleTotalPagesCreated() const {
  uint64_t total = 0;
  for (const SiteState& site : sites_) {
    std::lock_guard<std::mutex> lock(site.mu);
    for (const SlotState& slot : site.slots) total += slot.history.size();
  }
  return total;
}

StatusOr<FetchResult> SimulatedWeb::Fetch(const Url& url, double t,
                                          double* latency_days,
                                          LinkScope scope) {
  if (latency_days != nullptr) *latency_days = 0.0;
  bool virtual_slot = false;
  if (url.site >= sites_.size()) return StrayFetch(url);
  if (url.slot >= sites_[url.site].slots.size()) {
    // Virtual slots (past a site's real size) exist only on spider
    // traps — which mint them without bound — and migration twins,
    // which use them to resurrect their source's pages.
    virtual_slot =
        url.incarnation == 0 &&
        (IsTrapSite(url.site) || TwinSourceOf(url.site) < num_sites());
    if (!virtual_slot) return StrayFetch(url);
  }
  if (t + kTimeSlack < TimeFloor()) {
    return Status::InvalidArgument("fetch time moved backwards");
  }
  BumpNow(t);
  SiteState& site = sites_[url.site];

  FetchResult result;
  // What body the checksum digests: usually the fetched page itself,
  // but mirror members and resurrected pages alias to their canonical
  // original, and trap URLs share one low-value body per site. Computed
  // outside the lock (pure).
  PageId checksum_page = 0;
  uint64_t checksum_version = 0;
  bool trap_body = false;
  // Cross-site link targets resolve after our own site's lock is
  // dropped: lock acquisition stays one-at-a-time (no nesting), so
  // shards can never deadlock on each other. Own-site targets — all
  // tree children and most cross links — resolve while the lock is
  // already held. `remote` records (index into links, target) pairs
  // so link order is preserved.
  std::vector<std::pair<std::size_t, std::pair<uint32_t, uint32_t>>> remote;
  {
    std::lock_guard<std::mutex> lock(site.mu);
    BumpLocked(site.fetches);
    if (config_.HasFaults()) {
      // Fault outcomes preempt the page entirely: a failed fetch counts
      // as traffic but never advances the page's change process, so a
      // crawler that retries later observes the same evolution it would
      // have seen without the failure.
      double latency = 0.0;
      FaultOutcome fault = EvalFaultLocked(url.site, t, &latency);
      if (fault == FaultOutcome::kTransient) {
        return Status::Unavailable("site unreachable: " + url.ToString());
      }
      if (fault == FaultOutcome::kTimeout) {
        if (latency_days != nullptr) *latency_days = latency;
        return Status::DeadlineExceeded("fetch timed out: " +
                                        url.ToString());
      }
      if (fault == FaultOutcome::kSlow && latency_days != nullptr) {
        *latency_days = latency;
      }
    }
    if (t >= MigrationDayOf(url.site)) {
      // The source site of a domain migration answers kUnavailable
      // forever after its migration day — like a site death, and pure
      // in (site, t). Its twin resurrects the content.
      return Status::Unavailable("site migrated away: " + url.ToString());
    }
    if (virtual_slot) {
      result.url = url;
      result.page = MakePageId(url.site, url.slot, 0);
      result.version = 0;
      result.fetched_at = t;
      const uint32_t source = TwinSourceOf(url.site);
      if (source < num_sites()) {
        // Twin-hosted resurrection of source slot j = slot - real size.
        const uint64_t j = url.slot - sites_[url.site].slots.size();
        if (j >= sites_[source].slots.size() ||
            t < MigrationDayOf(source)) {
          BumpLocked(site.not_found);
          return Status::NotFound("page gone: " + url.ToString());
        }
        result.last_modified = MigrationDayOf(source);
        checksum_page = MakePageId(source, static_cast<uint32_t>(j), 0);
        checksum_version = 0;
        EmitTwinLinksLocked(url.site, source, &result.links);
      } else {
        // A minted trap URL: fetches successfully, serves the site's
        // shared low-value body, and mints more.
        result.last_modified = 0.0;
        trap_body = true;
        MintTrapLinksLocked(url.site, &result.links);
      }
    } else {
      EnsureCoverageLocked(url.site, url.slot, t);
      SlotState& slot_state = site.slots[url.slot];
      if (url.incarnation >= slot_state.history.size()) {
        // Requested incarnation was never born by time t.
        BumpLocked(site.not_found);
        return Status::NotFound("page gone: " + url.ToString());
      }
      PageRecord& page = slot_state.history[url.incarnation];
      if (page.death_time <= t || page.birth_time > t) {
        // The requested incarnation is dead (or unborn) — a real
        // crawler would see 404.
        BumpLocked(site.not_found);
        return Status::NotFound("page gone: " + url.ToString());
      }
      AdvancePage(page, t);

      result.url = url;
      result.page = PageIdOf(url);
      result.version = page.version;
      result.fetched_at = t;
      result.last_modified = page.version > 0
                                 ? page.last_change_time
                                 : std::max(page.birth_time, 0.0);
      // Checksum aliasing: every mirror member serves its group
      // leader's bytes, and a migration source's pages keep one
      // fingerprint across incarnation churn (what the twin's
      // resurrections match). Both site classes are static, so the
      // alias never lies about a change.
      if (IsMirroredSite(url.site)) {
        checksum_page = MakePageId(MirrorLeaderOf(url.site), url.slot, 0);
      } else if (MigrationDayOf(url.site) < kInfinity) {
        checksum_page = MakePageId(url.site, url.slot, 0);
      } else {
        checksum_page = result.page;
        checksum_version = result.version;
      }

      // Navigation-tree children of this slot (own-site), then cross
      // links.
      const auto site_size = static_cast<uint64_t>(site.slots.size());
      uint64_t first_child =
          static_cast<uint64_t>(url.slot) *
              static_cast<uint64_t>(config_.tree_branching) +
          1;
      result.links.reserve(
          static_cast<std::size_t>(config_.tree_branching) +
          page.cross_links.size());
      for (int b = 0; b < config_.tree_branching; ++b) {
        uint64_t child = first_child + static_cast<uint64_t>(b);
        if (child >= site_size) break;
        auto child_slot = static_cast<uint32_t>(child);
        EnsureCoverageLocked(url.site, child_slot, t);
        result.links.push_back(
            OccupantAtLocked(url.site, child_slot, t).url);
      }
      // Resolving an own-site target can grow that slot's history, but
      // never this slot's (`page` is alive at t, so its slot already
      // covers t) — the `page` reference stays valid throughout.
      for (const auto& [target_site, target_slot] : page.cross_links) {
        if (target_site == url.site) {
          EnsureCoverageLocked(url.site, target_slot, t);
          result.links.push_back(
              OccupantAtLocked(url.site, target_slot, t).url);
        } else if (scope == LinkScope::kAll) {
          remote.emplace_back(result.links.size(),
                              std::make_pair(target_site, target_slot));
          result.links.push_back(Url{});  // placeholder, filled below
        }
      }
      // A successful fetch on a trap site mints fresh URLs; a
      // successful post-migration fetch on a twin announces the next
      // resurrected source pages.
      if (IsTrapSite(url.site)) {
        MintTrapLinksLocked(url.site, &result.links);
      }
      const uint32_t source = TwinSourceOf(url.site);
      if (source < num_sites() && t >= MigrationDayOf(source)) {
        EmitTwinLinksLocked(url.site, source, &result.links);
      }
    }
  }

  for (const auto& [index, target] : remote) {
    result.links[index] = ResolveOccupantUrl(target.first, target.second, t);
  }
  // The digest is pure; compute it outside the lock. The body streams
  // straight into it and is never built as a string.
  if (trap_body) {
    result.checksum = ChecksumOf(TrapBody(url.site));
  } else {
    ChecksumBuilder digest;
    EmitPageBody(checksum_page, checksum_version, digest);
    result.checksum = digest.Finish();
  }
  return result;
}

Url SimulatedWeb::RootUrl(uint32_t site) const {
  assert(site < sites_.size());
  return Url{site, 0, 0};
}

template <typename Sink>
void SimulatedWeb::EmitPageBody(PageId page, uint64_t version,
                                Sink& sink) const {
  // Deterministic pseudo-content: distinct per (page, version) so the
  // checksum changes exactly when the page changes.
  const uint64_t token = HashCombine(page, version);
  char header[kBodyHeaderMax];
  char* end = header;
  const auto put = [&end](std::string_view text, uint64_t number) {
    end = std::copy(text.begin(), text.end(), end);
    end = std::to_chars(end, end + kMaxU64Digits, number).ptr;
  };
  put(kBodyTitle, page);
  put(kBodyRevision, version);
  put(kBodyToken, token);
  sink.Append(
      std::string_view(header, static_cast<std::size_t>(end - header)));

  // Deterministic filler stream so per-fetch work scales with the
  // configured body size; each word is keyed on its byte offset in the
  // body.
  std::size_t offset = static_cast<std::size_t>(end - header);
  const std::size_t filler_end = offset + config_.page_body_bytes;
  uint64_t x = HashCombine(token, 0x626f6479ull);
  while (offset < filler_end) {
    x = HashCombine(x, offset);
    const std::size_t n = std::min(sizeof(x), filler_end - offset);
    sink.AppendWord(x, n);
    offset += n;
  }
  sink.Append(kBodyEnd);
}

std::string SimulatedWeb::PageBody(PageId page, uint64_t version) const {
  struct StringSink {
    std::string body;
    void Append(std::string_view piece) { body += piece; }
    void AppendWord(uint64_t word, std::size_t n) {
      char bytes[sizeof(word)];
      std::memcpy(bytes, &word, sizeof(word));
      body.append(bytes, n);
    }
  } sink;
  EmitPageBody(page, version, sink);
  return std::move(sink.body);
}

StatusOr<PageId> SimulatedWeb::OracleLookup(const Url& url) const {
  if (url.site >= sites_.size() ||
      url.slot >= sites_[url.site].slots.size()) {
    return Status::NotFound("no such site/slot");
  }
  std::lock_guard<std::mutex> lock(sites_[url.site].mu);
  const auto& history = sites_[url.site].slots[url.slot].history;
  if (url.incarnation >= history.size()) {
    return Status::NotFound("incarnation never created");
  }
  return PageIdOf(url);
}

StatusOr<uint64_t> SimulatedWeb::OracleVersion(const Url& url, double t) {
  if (url.site >= sites_.size()) {
    return Status::NotFound("no such site/slot");
  }
  if (url.slot >= sites_[url.site].slots.size()) {
    // Virtual URLs: a twin's resurrected pages are truly alive at
    // version 0 from the migration day on; minted trap URLs are never
    // real content (a stored copy of one is permanently unfresh).
    const uint32_t source = TwinSourceOf(url.site);
    if (source < num_sites() && url.incarnation == 0) {
      const uint64_t j = url.slot - sites_[url.site].slots.size();
      if (j < sites_[source].slots.size() && t >= MigrationDayOf(source)) {
        BumpNow(t);
        return uint64_t{0};
      }
    }
    return Status::NotFound("no such site/slot");
  }
  if (t >= MigrationDayOf(url.site)) {
    // The page moved to the twin; the copy under this URL is gone.
    return Status::NotFound("page migrated away");
  }
  BumpNow(t);
  std::lock_guard<std::mutex> lock(sites_[url.site].mu);
  auto& history = sites_[url.site].slots[url.slot].history;
  if (url.incarnation >= history.size()) {
    return Status::NotFound("incarnation never created");
  }
  PageRecord& page = history[url.incarnation];
  if (page.death_time <= t || page.birth_time > t) {
    return Status::NotFound("page not alive");
  }
  AdvancePage(page, t);
  return page.version;
}

bool SimulatedWeb::OracleAlive(const Url& url, double t) const {
  if (url.site >= sites_.size()) return false;
  if (url.slot >= sites_[url.site].slots.size()) {
    const uint32_t source = TwinSourceOf(url.site);
    if (source < num_sites() && url.incarnation == 0) {
      const uint64_t j = url.slot - sites_[url.site].slots.size();
      return j < sites_[source].slots.size() &&
             t >= MigrationDayOf(source);
    }
    return false;
  }
  if (t >= MigrationDayOf(url.site)) return false;
  std::lock_guard<std::mutex> lock(sites_[url.site].mu);
  const auto& history = sites_[url.site].slots[url.slot].history;
  if (url.incarnation >= history.size()) return false;
  const PageRecord& page = history[url.incarnation];
  return page.birth_time <= t && t < page.death_time;
}

bool SimulatedWeb::OracleIsFresh(const Url& url, uint64_t stored_version,
                                 double t) {
  auto version = OracleVersion(url, t);
  return version.ok() && *version == stored_version;
}

Url SimulatedWeb::OracleCurrentUrl(uint32_t site, uint32_t slot, double t) {
  assert(site < sites_.size() && slot < sites_[site].slots.size());
  BumpNow(t);
  return ResolveOccupantUrl(site, slot, t);
}

StatusOr<double> SimulatedWeb::OracleLastChangeTime(const Url& url,
                                                    double t) {
  if (url.site >= sites_.size() ||
      url.slot >= sites_[url.site].slots.size()) {
    // Twin-virtual pages never change after their resurrection.
    const uint32_t source =
        url.site < sites_.size() ? TwinSourceOf(url.site) : num_sites();
    if (source < num_sites() && url.incarnation == 0 &&
        url.slot >= sites_[url.site].slots.size()) {
      const uint64_t j = url.slot - sites_[url.site].slots.size();
      if (j < sites_[source].slots.size() && t >= MigrationDayOf(source)) {
        return MigrationDayOf(source);
      }
    }
    return Status::NotFound("no such site/slot");
  }
  if (t >= MigrationDayOf(url.site)) {
    return Status::NotFound("page migrated away");
  }
  BumpNow(t);
  std::lock_guard<std::mutex> lock(sites_[url.site].mu);
  auto& history = sites_[url.site].slots[url.slot].history;
  if (url.incarnation >= history.size()) {
    return Status::NotFound("incarnation never created");
  }
  PageRecord& page = history[url.incarnation];
  if (page.death_time <= t || page.birth_time > t) {
    return Status::NotFound("page not alive");
  }
  AdvancePage(page, t);
  return page.last_change_time;
}

double SimulatedWeb::OracleChangeRate(PageId page) const {
  std::lock_guard<std::mutex> lock(sites_[PageIdSite(page)].mu);
  return RecordOf(page).change_rate;
}

double SimulatedWeb::OracleBirthTime(PageId page) const {
  std::lock_guard<std::mutex> lock(sites_[PageIdSite(page)].mu);
  return RecordOf(page).birth_time;
}

double SimulatedWeb::OracleDeathTime(PageId page) const {
  std::lock_guard<std::mutex> lock(sites_[PageIdSite(page)].mu);
  return RecordOf(page).death_time;
}

std::vector<SimulatedWeb::SiteLink> SimulatedWeb::OracleSiteLinks(double t) {
  BumpNow(t);
  // Dense accumulation per source site keeps this O(slots + edges).
  std::vector<SiteLink> out;
  std::vector<uint64_t> row(sites_.size(), 0);
  for (uint32_t s = 0; s < sites_.size(); ++s) {
    std::vector<uint32_t> touched;
    std::lock_guard<std::mutex> lock(sites_[s].mu);
    for (uint32_t j = 0; j < sites_[s].slots.size(); ++j) {
      EnsureCoverageLocked(s, j, t);
      const PageRecord& page = OccupantAtLocked(s, j, t);
      for (const auto& [ts, tslot] : page.cross_links) {
        (void)tslot;
        if (ts == s) continue;
        if (row[ts] == 0) touched.push_back(ts);
        ++row[ts];
      }
    }
    for (uint32_t ts : touched) {
      out.push_back(SiteLink{s, ts, row[ts]});
      row[ts] = 0;
    }
  }
  return out;
}

}  // namespace webevo::simweb
