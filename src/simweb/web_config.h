#ifndef WEBEVO_SIMWEB_WEB_CONFIG_H_
#define WEBEVO_SIMWEB_WEB_CONFIG_H_

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "simweb/domain.h"
#include "simweb/domain_profile.h"
#include "simweb/page.h"
#include "util/status.h"

namespace webevo::simweb {

/// Parameters of the synthetic web.
///
/// Defaults model the paper's study population: 270 sites with the
/// Table 1 domain mix (com 132, edu 78, netorg 30, gov 30). Site sizes
/// are drawn log-uniformly in [min_site_size, max_site_size]; the paper
/// crawled a 3,000-page window per site, which our experiment layer
/// reproduces with a configurable window.
struct WebConfig {
  /// Master seed; all web randomness derives from it deterministically.
  uint64_t seed = 19990217;  // the experiment's start date

  /// Sites per domain, Table 1 order: com, edu, netorg, gov.
  std::array<int, kNumDomains> sites_per_domain = {132, 78, 30, 30};

  /// Page-slot count per site, drawn log-uniformly in this range.
  uint32_t min_site_size = 50;
  uint32_t max_site_size = 400;

  /// Fan-out of the intra-site navigation tree (slot j's children are
  /// slots j*b+1 ... j*b+b).
  int tree_branching = 5;

  /// Extra random out-links per page, on top of the navigation tree.
  int cross_links_per_page = 3;

  /// Probability that a cross link points to another site (otherwise it
  /// stays within the page's own site).
  double cross_site_link_prob = 0.3;

  /// Zipf exponent for choosing the target site of cross-site links;
  /// produces the skewed popularity that site-level PageRank relies on.
  double site_popularity_zipf = 1.05;

  /// Probability that a new page's lifespan shares its change-interval
  /// quantile (fast pages die young). See DomainProfile::SamplePage —
  /// this is what lets the ever-seen population be churn-heavy (Fig 2)
  /// while the day-0 snapshot decays slowly (Fig 5).
  double rate_lifespan_coupling = 0.5;

  /// If > 0, every page gets exactly this mean change interval (days)
  /// instead of its domain's calibrated mixture. Used by the Table 2
  /// policy-matrix simulation, which the paper computes under "all
  /// pages change with an average 4 month interval".
  double uniform_change_interval_days = 0.0;

  /// If non-empty, page change intervals for *all* domains are drawn
  /// from this mixture instead of the calibrated per-domain profiles
  /// (lifespans still follow the domain profiles). Lets experiments
  /// construct webs with specific rate structure, e.g. the bimodal mix
  /// where variable-frequency crawling shines. Ignored when
  /// uniform_change_interval_days > 0.
  std::vector<MixtureBucket> custom_change_interval_mix;

  /// If > 0, every non-root page gets exactly this lifespan (days)
  /// instead of its domain's calibrated mixture. Set it far beyond the
  /// simulation horizon to disable page birth/death.
  double uniform_lifespan_days = 0.0;

  /// Extra deterministic filler in every synthetic page body, in
  /// bytes. 0 keeps bodies minimal (fast unit tests); scaling benches
  /// set a few KiB so the per-fetch digest work resembles digesting a
  /// real page. Fetch streams each body into its checksum in one pass,
  /// so the cost is that digest, not building or storing the body.
  uint32_t page_body_bytes = 0;

  // ------------------------------------------------------ fault model
  // All off by default: with every knob at zero the web behaves exactly
  // as before (instant success or NotFound) and carries no fault state.
  // Outcomes are drawn from per-site RNG lanes — a pure function of
  // (seed, site) plus the site's own fetch sequence, which is itself
  // deterministic at every shard count — following the per-page stream
  // idiom, so fault injection preserves the N=1 == N=8 invariant.

  /// Per-fetch probability of a transient error (kUnavailable).
  double fault_transient_prob = 0.0;

  /// Per-fetch probability of a timeout (kDeadlineExceeded); the
  /// caller is charged `fault_timeout_latency_days` of polite-window
  /// stall before the failure surfaces.
  double fault_timeout_prob = 0.0;
  double fault_timeout_latency_days = 0.02;

  /// Per-fetch probability of a slow-but-successful response; the
  /// latency widens the caller's polite window.
  double fault_slow_prob = 0.0;
  double fault_slow_latency_days = 0.01;

  /// Site outage windows: each site independently goes dark as a
  /// renewal process (exponential gaps at this rate, fixed duration);
  /// every fetch inside a window fails kUnavailable.
  double fault_outage_rate_per_day = 0.0;
  double fault_outage_duration_days = 0.5;

  /// Permanent site death: each site dies with this probability, at a
  /// time drawn uniformly in [0, 2 * fault_site_death_mean_day]. A
  /// dead site answers kUnavailable forever.
  double fault_site_death_prob = 0.0;
  double fault_site_death_mean_day = 30.0;

  /// Flash-crowd overload: once a site has served more than
  /// `fault_flash_crowd_threshold` fetches within one
  /// `fault_flash_crowd_window_days` window, further fetches in that
  /// window fail kUnavailable with `fault_flash_crowd_error_prob`
  /// (added to the base transient probability).
  uint32_t fault_flash_crowd_threshold = 0;
  double fault_flash_crowd_window_days = 0.25;
  double fault_flash_crowd_error_prob = 0.0;

  // ------------------------------------------------ adversarial model
  // All off by default, like the fault model: every knob at zero leaves
  // the web's content exactly as before and carries no adversarial
  // state. Which sites are traps / mirrors / migrators is a pure
  // per-site hash draw of (seed, site) — no RNG stream is consumed — so
  // the adversarial shape is identical at every shard count; the only
  // evolving state (per-site mint counters) advances under the site
  // mutex in per-site fetch order, which is itself deterministic.

  /// Spider traps: each site becomes a trap with this probability.
  /// Every successful fetch on a trap site mints
  /// `adv_trap_links_per_fetch` fresh never-before-seen same-site URLs
  /// (virtual slots past the site's real size), each of which fetches
  /// successfully — serving one shared low-value body per trap site —
  /// and mints more. An undefended crawler's frontier grows without
  /// bound inside the trap.
  double adv_trap_site_prob = 0.0;
  uint32_t adv_trap_links_per_fetch = 0;

  /// Mirror farms: the first `adv_mirror_group_size * adv_mirror_groups`
  /// sites are partitioned into groups of `adv_mirror_group_size`; every
  /// member serves byte-identical content (the group leader's checksums)
  /// under its own distinct URLs. Active when group size >= 2 and
  /// groups >= 1.
  uint32_t adv_mirror_group_size = 0;
  uint32_t adv_mirror_groups = 0;

  /// Domain migrations: each even-numbered site migrates with this
  /// probability at a day drawn uniformly in
  /// [0, 2 * adv_migration_mean_day]. After the migration day the
  /// source site answers kUnavailable forever while its twin (site+1)
  /// resurrects the source's pages under new URLs — twin fetches emit
  /// up to `adv_migration_links_per_fetch` fresh twin-hosted links per
  /// fetch until the whole source collection has been re-announced.
  double adv_migration_prob = 0.0;
  double adv_migration_mean_day = 30.0;
  uint32_t adv_migration_links_per_fetch = 4;

  /// Heavy-tailed site sizes: when > 0, site page counts follow a Zipf
  /// law with this exponent over [min_site_size, max_site_size]
  /// (rank-ordered by site index) instead of the log-uniform draw.
  double adv_heavy_tail_zipf = 0.0;

  /// True when any fault knob is active; the web keeps per-site fault
  /// state (and emits fault records into its snapshot) only then.
  bool HasFaults() const {
    return fault_transient_prob > 0.0 || fault_timeout_prob > 0.0 ||
           fault_slow_prob > 0.0 || fault_outage_rate_per_day > 0.0 ||
           fault_site_death_prob > 0.0 ||
           (fault_flash_crowd_threshold > 0 &&
            fault_flash_crowd_error_prob > 0.0);
  }

  /// True when any adversarial knob is active.
  bool HasAdversarial() const {
    return (adv_trap_site_prob > 0.0 && adv_trap_links_per_fetch > 0) ||
           (adv_mirror_group_size >= 2 && adv_mirror_groups >= 1) ||
           adv_migration_prob > 0.0 || adv_heavy_tail_zipf > 0.0;
  }

  /// True when the web must keep evolving per-site adversarial state
  /// (trap/twin mint counters) — and emit Y records into its snapshot.
  /// Mirror farms and heavy-tail sizes are stateless shape changes.
  bool HasAdvState() const {
    return (adv_trap_site_prob > 0.0 && adv_trap_links_per_fetch > 0) ||
           adv_migration_prob > 0.0;
  }

  /// Returns a copy with sites_per_domain scaled by `factor` (minimum
  /// one site per domain), for quick tests and scaled-down benches. A
  /// count past INT_MAX (or a NaN factor) saturates at INT_MAX, which
  /// Validate() rejects, instead of overflowing the int conversion.
  WebConfig Scaled(double factor) const {
    constexpr int kMaxCount = std::numeric_limits<int>::max();
    WebConfig c = *this;
    for (auto& n : c.sites_per_domain) {
      const double scaled = n > 0 ? n * factor : 0.0;
      if (!(scaled < kMaxCount)) {
        n = kMaxCount;
      } else {
        n = scaled < 1.0 ? 1 : static_cast<int>(scaled);
      }
    }
    return c;
  }

  /// Validates ranges; construction of SimulatedWeb requires OK.
  Status Validate() const {
    for (int n : sites_per_domain) {
      if (n < 0) return Status::InvalidArgument("negative site count");
    }
    int64_t total = 0;
    for (int n : sites_per_domain) total += n;
    if (total == 0) return Status::InvalidArgument("no sites configured");
    if (total > static_cast<int64_t>(kMaxSites)) {
      return Status::InvalidArgument("site count exceeds PageId site cap");
    }
    if (min_site_size < 1 || max_site_size < min_site_size) {
      return Status::InvalidArgument("bad site size range");
    }
    if (max_site_size > kMaxSlotsPerSite) {
      return Status::InvalidArgument("max_site_size exceeds PageId slot cap");
    }
    if (tree_branching < 1) {
      return Status::InvalidArgument("tree_branching must be >= 1");
    }
    if (cross_links_per_page < 0) {
      return Status::InvalidArgument("cross_links_per_page must be >= 0");
    }
    if (cross_site_link_prob < 0.0 || cross_site_link_prob > 1.0) {
      return Status::InvalidArgument("cross_site_link_prob not in [0,1]");
    }
    if (site_popularity_zipf < 0.0) {
      return Status::InvalidArgument("site_popularity_zipf must be >= 0");
    }
    if (rate_lifespan_coupling < 0.0 || rate_lifespan_coupling > 1.0) {
      return Status::InvalidArgument(
          "rate_lifespan_coupling not in [0,1]");
    }
    for (double p : {fault_transient_prob, fault_timeout_prob,
                     fault_slow_prob, fault_site_death_prob,
                     fault_flash_crowd_error_prob}) {
      if (p < 0.0 || p > 1.0) {
        return Status::InvalidArgument("fault probability not in [0,1]");
      }
    }
    if (fault_transient_prob + fault_timeout_prob + fault_slow_prob >
        1.0) {
      return Status::InvalidArgument(
          "transient + timeout + slow probabilities exceed 1");
    }
    for (double d :
         {fault_timeout_latency_days, fault_slow_latency_days,
          fault_outage_rate_per_day, fault_outage_duration_days,
          fault_site_death_mean_day, fault_flash_crowd_window_days}) {
      if (d < 0.0) {
        return Status::InvalidArgument("negative fault parameter");
      }
    }
    if (fault_outage_rate_per_day > 0.0 &&
        fault_outage_duration_days <= 0.0) {
      return Status::InvalidArgument(
          "outage windows need a positive duration");
    }
    if (fault_flash_crowd_threshold > 0 &&
        fault_flash_crowd_window_days <= 0.0) {
      return Status::InvalidArgument(
          "flash-crowd throttling needs a positive window");
    }
    for (double p : {adv_trap_site_prob, adv_migration_prob}) {
      if (p < 0.0 || p > 1.0) {
        return Status::InvalidArgument(
            "adversarial probability not in [0,1]");
      }
    }
    if (adv_trap_site_prob > 0.0 && adv_trap_links_per_fetch == 0) {
      return Status::InvalidArgument(
          "spider traps need adv_trap_links_per_fetch >= 1");
    }
    if (adv_mirror_group_size == 1) {
      return Status::InvalidArgument(
          "mirror groups need adv_mirror_group_size >= 2");
    }
    if (adv_migration_mean_day < 0.0 || adv_heavy_tail_zipf < 0.0) {
      return Status::InvalidArgument("negative adversarial parameter");
    }
    if (adv_migration_prob > 0.0 && adv_migration_links_per_fetch == 0) {
      return Status::InvalidArgument(
          "migrations need adv_migration_links_per_fetch >= 1");
    }
    return Status::Ok();
  }
};

/// Applies one of the named fault scenarios: the fault axis of
/// bench_scenarios' matrix and `--faults=...` on the tools.
/// "none"/"baseline" clears every fault knob.
inline Status ApplyFaultScenario(const std::string& scenario,
                                 WebConfig* config) {
  WebConfig clean = *config;
  clean.fault_transient_prob = 0.0;
  clean.fault_timeout_prob = 0.0;
  clean.fault_slow_prob = 0.0;
  clean.fault_outage_rate_per_day = 0.0;
  clean.fault_site_death_prob = 0.0;
  clean.fault_flash_crowd_threshold = 0;
  clean.fault_flash_crowd_error_prob = 0.0;
  *config = clean;
  if (scenario == "none" || scenario == "baseline") return Status::Ok();
  if (scenario == "transient10") {
    config->fault_transient_prob = 0.08;
    config->fault_timeout_prob = 0.02;
    return Status::Ok();
  }
  if (scenario == "outage-storm") {
    config->fault_outage_rate_per_day = 0.25;
    config->fault_outage_duration_days = 0.5;
    config->fault_transient_prob = 0.02;
    return Status::Ok();
  }
  if (scenario == "site-death") {
    config->fault_site_death_prob = 0.2;
    config->fault_site_death_mean_day = 6.0;
    config->fault_transient_prob = 0.02;
    return Status::Ok();
  }
  if (scenario == "flash-crowd") {
    config->fault_flash_crowd_threshold = 8;
    config->fault_flash_crowd_window_days = 0.25;
    config->fault_flash_crowd_error_prob = 0.5;
    config->fault_slow_prob = 0.1;
    return Status::Ok();
  }
  return Status::InvalidArgument(
      "unknown fault scenario '" + scenario +
      "' (valid: none, baseline, transient10, outage-storm, site-death, "
      "flash-crowd)");
}

/// Applies one of the named adversarial scenarios: the adversarial
/// axis of bench_scenarios' matrix and `--adversarial=...` on the
/// tools. "none"/"baseline" clears every adversarial knob.
inline Status ApplyAdversarialScenario(const std::string& scenario,
                                       WebConfig* config) {
  config->adv_trap_site_prob = 0.0;
  config->adv_trap_links_per_fetch = 0;
  config->adv_mirror_group_size = 0;
  config->adv_mirror_groups = 0;
  config->adv_migration_prob = 0.0;
  config->adv_heavy_tail_zipf = 0.0;
  if (scenario == "none" || scenario == "baseline") return Status::Ok();
  if (scenario == "spider-trap") {
    config->adv_trap_site_prob = 0.3;
    config->adv_trap_links_per_fetch = 3;
    return Status::Ok();
  }
  if (scenario == "mirror-farm") {
    config->adv_mirror_group_size = 4;
    config->adv_mirror_groups = 64;
    return Status::Ok();
  }
  if (scenario == "domain-migration") {
    config->adv_migration_prob = 0.5;
    config->adv_migration_mean_day = 4.0;
    config->adv_migration_links_per_fetch = 6;
    return Status::Ok();
  }
  if (scenario == "heavy-tail") {
    config->adv_heavy_tail_zipf = 1.3;
    return Status::Ok();
  }
  return Status::InvalidArgument(
      "unknown adversarial scenario '" + scenario +
      "' (valid: none, baseline, spider-trap, mirror-farm, "
      "domain-migration, heavy-tail)");
}

}  // namespace webevo::simweb

#endif  // WEBEVO_SIMWEB_WEB_CONFIG_H_
