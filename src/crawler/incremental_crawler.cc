#include "crawler/incremental_crawler.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crawler/snapshot.h"
#include "serving/view_builder.h"
#include "util/hash.h"

namespace webevo::crawler {

IncrementalCrawler::IncrementalCrawler(
    simweb::SimulatedWeb* web, const IncrementalCrawlerConfig& config)
    : web_(web),
      config_(config),
      collection_(config.collection_capacity, config.crawl_parallelism,
                  config.store),
      all_urls_(config.crawl_parallelism, config.store, "allurls"),
      coll_urls_(config.crawl_parallelism),
      engine_(web, config.crawl, config.crawl_parallelism,
              config.retained_views),
      update_module_([&] {
        UpdateModuleConfig u = config.update;
        u.crawl_budget_pages_per_day = config.crawl_rate_pages_per_day;
        // The module's state shards must match the engine's ownership
        // mapping: the apply passes call OnCrawled/Forget
        // concurrently, one worker per engine shard.
        u.num_shards = config.crawl_parallelism;
        return u;
      }()),
      ranking_module_(config.ranking) {
  pending_shards_.resize(
      static_cast<std::size_t>(collection_.num_shards()));
  site_failure_shards_.resize(
      static_cast<std::size_t>(collection_.num_shards()));
  url_failure_shards_.resize(
      static_cast<std::size_t>(collection_.num_shards()));
  site_defense_shards_.resize(
      static_cast<std::size_t>(collection_.num_shards()));
  if (config_.checkpoint_incremental) EnableDeltaTracking();
}

void IncrementalCrawler::EnableDeltaTracking() {
  delta_tracking_ = true;
  collection_.EnableDirtyTracking();
  all_urls_.EnableDirtyTracking();
  update_module_.EnableDirtyTracking();
  if (web_ != nullptr) web_->EnableDirtyTracking();
}

Status IncrementalCrawler::Bootstrap(double t) {
  if (bootstrapped_) {
    return Status::FailedPrecondition("already bootstrapped");
  }
  if (config_.crawl_rate_pages_per_day <= 0.0) {
    return Status::InvalidArgument("crawl rate must be positive");
  }
  now_ = t;
  next_refine_ = t + config_.refine_interval_days;
  next_rebalance_ = t + config_.rebalance_interval_days;
  next_sample_ = t;
  for (uint32_t s = 0; s < web_->num_sites(); ++s) {
    simweb::Url root = web_->RootUrl(s);
    all_urls_.Add(root, t);
    coll_urls_.Schedule(root, t);
    MarkFrontierDirty(root);
  }
  bootstrapped_ = true;
  return Status::Ok();
}

std::size_t IncrementalCrawler::PendingTotal() const {
  std::size_t total = 0;
  for (const auto& shard : pending_shards_) total += shard.size();
  return total;
}

void IncrementalCrawler::RunRefinement() {
  RefinementResult refinement =
      ranking_module_.Refine(all_urls_, collection_);
  std::size_t pending = PendingTotal();
  for (const simweb::Url& url : refinement.admissions) {
    // The RankingModule only knows collection occupancy; respect the
    // in-flight admissions too so the collection never over-admits.
    if (collection_.size() + pending >= collection_.capacity()) {
      break;
    }
    if (!coll_urls_.Contains(url)) {
      coll_urls_.ScheduleFront(url);
      PendingInsert(url);
      MarkFrontierDirty(url);
      ++pending;
    }
  }
  for (const Replacement& r : refinement.replacements) {
    Status st = collection_.Remove(r.discard);
    if (st.ok()) {
      Status unqueue = coll_urls_.Remove(r.discard);
      (void)unqueue;  // may already be popped
      update_module_.Forget(r.discard);
      coll_urls_.ScheduleFront(r.crawl);
      MarkFrontierDirty(r.discard);
      MarkFrontierDirty(r.crawl);
      ++stats_.replacements_executed;
    }
  }
  // Refresh the importance hints the UpdateModule may weigh.
  collection_.ForEach([&](const CollectionEntry& entry) {
    update_module_.SetImportance(entry.url, entry.importance);
  });
}

void IncrementalCrawler::ApplyBatch(
    const std::vector<PlannedFetch>& plan,
    std::vector<StatusOr<simweb::FetchResult>>& outcomes,
    const std::vector<double>& retry_at, double batch_end,
    std::vector<PendingRetry>& retries) {
  if (plan.empty()) return;
  auto apply_begin = std::chrono::steady_clock::now();

  // ---- Lease grant (serial coordinator). Every shard's lease carries
  // the batch's whole frozen admission budget R = capacity - size -
  // pending as an optimistic ceiling: a shard's local greedy fill then
  // admits a superset of what the serial frozen-budget greedy would
  // admit from its stream, so the settle only ever revokes (in global
  // stream order), never retro-admits. Inserts may overdraw capacity
  // (bounded by the shard's slot count); the settle evicts the
  // canonical victims.
  const std::size_t size_at_entry = collection_.size();
  const std::size_t occupied = size_at_entry + PendingTotal();
  const std::size_t admit_budget =
      occupied < collection_.capacity() ? collection_.capacity() - occupied
                                        : 0;

  // ---- Outcome pass: shard-local, parallel. Each worker walks its
  // own shard's outcomes in slot order and mutates only the state its
  // sites own: in-place collection updates, checksum compares, dead
  // purges + AllUrls tombstones, OnCrawled visit records (global
  // budget quantities are frozen between barriers). Everything the
  // admission stream needs is queued as effects.
  const auto shards = static_cast<std::size_t>(collection_.num_shards());
  std::vector<std::vector<std::size_t>> by_shard(shards);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    by_shard[plan[i].shard].push_back(i);
  }
  std::vector<ShardApplyResult> deltas(shards);
  auto outcome_pass = [&](std::size_t s) {
    auto begin = std::chrono::steady_clock::now();
    ShardApplyResult& out = deltas[s];
    out.effects.reserve(by_shard[s].size());
    for (std::size_t i : by_shard[s]) {
      const simweb::Url& url = plan[i].url;
      const double at = plan[i].at;
      ++out.crawls;
      ApplyEffect effect;
      effect.slot = i;
      effect.url = url;
      effect.at = at;
      StatusOr<simweb::FetchResult>& result = outcomes[i];
      if (!result.ok()) {
        const StatusCode code = result.status().code();
        if (code == StatusCode::kFailedPrecondition) {
          // Politeness rejection: the page is fine, the site just
          // needs a breather. The per-shard retry lane captured the
          // earliest polite time at the attempt itself; the admission
          // pass decides whether that window reopens inside this
          // batch.
          ++out.politeness_retries;
          effect.kind = ApplyEffect::Kind::kRetry;
          effect.when = retry_at[i];
        } else if (code == StatusCode::kUnavailable ||
                   code == StatusCode::kDeadlineExceeded) {
          // Classified failure (transient error or timeout): never
          // change evidence — an unreachable page is not an unchanged
          // page — so the estimators and last_visit stay untouched.
          ++out.fetch_failures;
          if (code == StatusCode::kUnavailable) {
            ++out.transient_errors;
          } else {
            ++out.timeout_errors;
          }
          update_module_.OnFetchFailed(url, at);
          auto& url_fails = url_failure_shards_[s];
          const uint32_t fails = ++url_fails[url];
          SiteFailureState& site_state =
              site_failure_shards_[s][url.site];
          if (!site_state.rng_init) {
            site_state.backoff =
                Rng(HashCombine(config_.fault_backoff_seed, url.site));
            site_state.rng_init = true;
          }
          ++site_state.consecutive;
          if (fails >= config_.fault_url_retire_failures) {
            // Dead-after-K retirement: the crawler gives up on this
            // URL through the dead-page path (purge + tombstone), but
            // the ledger keeps it distinct from genuine 404 removals.
            url_fails.erase(url);
            if (collection_.shard(s).Remove(url).ok()) {
              update_module_.Forget(url);
              effect.purged = true;
            }
            Status mark = all_urls_.MarkDead(url);
            (void)mark;
            ++out.urls_retired;
            effect.kind = ApplyEffect::Kind::kDead;
          } else {
            // Bounded exponential backoff with jitter from the site's
            // own lane; the quarantine floor (set when the breaker
            // trips, here or on an earlier failure) dominates.
            ++out.failure_retries;
            const uint32_t exponent =
                std::min(site_state.consecutive, 16u) - 1;
            const double delay =
                config_.fault_backoff_base_days *
                static_cast<double>(uint64_t{1} << exponent) *
                (1.0 + config_.fault_backoff_jitter *
                           site_state.backoff.NextDouble());
            effect.kind = ApplyEffect::Kind::kFailed;
            effect.backoff_delay = delay;
            effect.when = at + delay;
            if (config_.fault_quarantine_threshold > 0 &&
                site_state.consecutive >=
                    config_.fault_quarantine_threshold) {
              site_state.quarantined_until =
                  at + config_.fault_quarantine_days;
              site_state.consecutive = 0;
              effect.quarantine = true;
              effect.quarantine_until = site_state.quarantined_until;
              ++out.sites_quarantined;
            }
            if (effect.when < site_state.quarantined_until) {
              effect.when = site_state.quarantined_until;
            }
          }
        } else {
          // Dead page (Section 5.1 goal 2: pages are constantly
          // removed; the collection must track that). Purge and
          // tombstone right here — both live in this shard — so the
          // admission stream sees the death before any later link to
          // the URL. A 404 is successful *contact* with the server, so
          // it also resets the site's circuit breaker.
          auto site_it = site_failure_shards_[s].find(url.site);
          if (site_it != site_failure_shards_[s].end()) {
            site_it->second.consecutive = 0;
          }
          url_failure_shards_[s].erase(url);
          if (collection_.shard(s).Remove(url).ok()) {
            update_module_.Forget(url);
            ++out.dead_pages_removed;
            effect.purged = true;
          }
          Status mark = all_urls_.MarkDead(url);
          (void)mark;
          effect.kind = ApplyEffect::Kind::kDead;
        }
        out.effects.push_back(std::move(effect));
        continue;
      }

      // Successful contact resets the site's circuit breaker and the
      // URL's retirement count. The backoff RNG lane stays where it is
      // (its position is part of the deterministic failure history).
      {
        auto site_it = site_failure_shards_[s].find(url.site);
        if (site_it != site_failure_shards_[s].end()) {
          site_it->second.consecutive = 0;
        }
        url_failure_shards_[s].erase(url);
      }

      CollectionEntry* existing = collection_.shard(s).FindMutable(url);
      bool changed = false;
      const bool first_visit = existing == nullptr;
      if (existing != nullptr) {
        changed = !(existing->checksum == result->checksum);
        if (changed) ++out.changes_detected;
        existing->version = result->version;
        existing->checksum = result->checksum;
        existing->crawled_at = at;
        existing->links = result->links;
        ++out.in_place_updates;
        effect.kind = ApplyEffect::Kind::kReschedule;
      } else {
        // New page: the insert draws on the shard's capacity lease in
        // the admission pass; the visit record does not.
        effect.kind = ApplyEffect::Kind::kInsert;
      }
      effect.page = result->page;
      effect.version = result->version;
      effect.checksum = result->checksum;
      effect.when = update_module_.OnCrawled(
          url, at, changed, first_visit,
          /*quiet_days=*/at - result->last_modified);
      effect.links = std::move(result->links);
      out.effects.push_back(std::move(effect));
    }
    out.seconds = SecondsSince(begin);
  };
  std::vector<std::size_t> busy;
  for (std::size_t s = 0; s < shards; ++s) {
    if (!by_shard[s].empty()) busy.push_back(s);
  }
  engine_.threads().RunForIndices(busy, outcome_pass);

  // ---- Serial scatter: reassemble the global slot order (each slot
  // yields exactly one effect), grant the seq lanes — slot i's lane is
  // [lane_base[i], lane_base[i] + 1 + nlinks(i)), a pure function of
  // slot order — and bucket the discovered links by the *target*
  // site's owner shard, (slot, position) order within each bucket,
  // each link carrying its lane seq.
  std::vector<ApplyEffect*> ordered(plan.size(), nullptr);
  for (ShardApplyResult& delta : deltas) {
    for (ApplyEffect& e : delta.effects) ordered[e.slot] = &e;
  }
  const uint64_t seq_base = coll_urls_.next_seq();
  std::vector<uint64_t> lane_base(plan.size(), 0);
  struct LinkItem {
    const simweb::Url* url;
    double at;
    uint32_t slot;
    uint32_t pos;
    uint64_t seq;
  };
  std::vector<std::vector<LinkItem>> links_of(shards);
  uint64_t lane = seq_base;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    lane_base[i] = lane;
    const ApplyEffect& e = *ordered[i];
    lane += 1 + static_cast<uint64_t>(e.links.size());
    for (std::size_t p = 0; p < e.links.size(); ++p) {
      const simweb::Url& link = e.links[p];
      links_of[collection_.ShardOf(link.site)].push_back(
          LinkItem{&link, e.at, static_cast<uint32_t>(i),
                   static_cast<uint32_t>(p), lane_base[i] + 1 + p});
    }
  }
  const uint64_t seq_width = lane - seq_base;

  // ---- Admission pass: owner-shard, parallel. Each shard walks the
  // global-slot-ordered merge of its own slots' effects and the link
  // items targeting its sites — every per-URL structure (collection
  // shard, frontier shard, AllUrls shard, pending set, politeness
  // clock) is owned by this shard, so the walk reproduces the serial
  // admission stream for its URLs exactly, and the lease gates the
  // only global quantity (the admission budget).
  std::vector<ShardAdmitResult> admits(shards);
  auto admission_pass = [&](std::size_t t) {
    auto begin = std::chrono::steady_clock::now();
    ShardAdmitResult& out = admits[t];
    auto& pending = pending_shards_[t];
    Collection& coll = collection_.shard(t);
    const std::vector<std::size_t>& slots = by_shard[t];
    const std::vector<LinkItem>& links = links_of[t];
    std::size_t admitted_count = 0;
    std::size_t si = 0, li = 0;
    while (si < slots.size() || li < links.size()) {
      // Stream order: the effect of slot i precedes the links of slot
      // i (an insert precedes its own page's discoveries), and both
      // precede everything of slot i+1.
      if (li >= links.size() ||
          (si < slots.size() && slots[si] <= links[li].slot)) {
        ApplyEffect& e = *ordered[slots[si]];
        const auto slot = static_cast<uint32_t>(slots[si]);
        ++si;
        // Settle this slot's in-flight admission exactly at its own
        // slot, before any re-admission below.
        pending.erase(e.url);
        switch (e.kind) {
          case ApplyEffect::Kind::kRetry: {
            if (!coll.Contains(e.url)) pending.insert(e.url);
            const double polite =
                engine_.pool().NextAllowedTime(e.url.site);
            if (polite < batch_end) {
              // The polite window reopens inside this batch: retire
              // the retry now (RunUntil's retry rounds) instead of
              // deferring a whole batch.
              out.retries.push_back(
                  PendingRetry{e.url, static_cast<uint32_t>(t), slot});
            } else {
              coll_urls_.ScheduleLane(t, e.url, e.when, lane_base[slot]);
            }
            break;
          }
          case ApplyEffect::Kind::kDead:
            break;  // purged + tombstoned in the outcome pass
          case ApplyEffect::Kind::kFailed: {
            // Backoff reschedule: the URL keeps its place (and its
            // in-flight reservation when not yet in the collection —
            // same accounting as a politeness retry). A tripped
            // breaker then floors *every* frontier entry of the site
            // at the quarantine horizon; this shard owns the site, so
            // the walk is race-free and stream-deterministic.
            if (!coll.Contains(e.url)) pending.insert(e.url);
            coll_urls_.ScheduleLane(t, e.url, e.when, lane_base[slot]);
            if (e.quarantine) {
              coll_urls_.RescheduleSiteNotBefore(e.url.site,
                                                e.quarantine_until);
            }
            break;
          }
          case ApplyEffect::Kind::kReschedule: {
            coll_urls_.ScheduleLane(t, e.url, e.when, lane_base[slot]);
            break;
          }
          case ApplyEffect::Kind::kInsert: {
            CollectionEntry entry;
            entry.url = e.url;
            entry.page = e.page;
            entry.version = e.version;
            entry.checksum = e.checksum;
            entry.crawled_at = e.at;
            entry.links = e.links;
            collection_.InsertOverdraft(t, std::move(entry));
            e.inserted = true;
            if (const AllUrls::UrlInfo* info = all_urls_.Find(e.url)) {
              e.first_seen_valid = true;
              e.first_seen = info->first_seen;
            }
            out.insert_slots.push_back(slot);
            coll_urls_.ScheduleLane(t, e.url, e.when, lane_base[slot]);
            break;
          }
        }
        continue;
      }
      const LinkItem& item = links[li];
      ++li;
      // Discovery note and admission dedup off one hash probe. Links
      // to URLs purged or tombstoned this batch (outcome pass) are
      // never re-admitted.
      const AllUrls::UrlInfo& info =
          all_urls_.NoteInLink(*item.url, item.at);
      if (admitted_count >= admit_budget || info.dead) continue;
      if (config_.defense_enabled) {
        // Diminishing-returns gate: links into a throttled or
        // quarantined site are noted (the in-link count above) but
        // never admitted — a collapsed-yield site does not get to
        // grow the frontier (that is exactly a spider trap's attack),
        // until a healthy window resets its throttle level. The
        // defense state is owned by this shard and mutated only at
        // the serial settle, so the read sees the previous batch's
        // verdicts — frozen, race-free, shard-count independent.
        auto defense_it = site_defense_shards_[t].find(item.url->site);
        if (defense_it != site_defense_shards_[t].end() &&
            (defense_it->second.quarantined ||
             defense_it->second.throttle_level > 0 ||
             defense_it->second.suppressed_total >=
                 config_.defense_link_spam_threshold)) {
          continue;
        }
      }
      if (coll.Contains(*item.url) || coll_urls_.Contains(*item.url)) {
        continue;
      }
      coll_urls_.ScheduleLane(t, *item.url, item.at, item.seq);
      const bool fresh_pending = pending.insert(*item.url).second;
      out.admitted.push_back(AdmissionRef{item.slot, item.pos});
      out.admitted_urls.push_back(item.url);
      out.admitted_seqs.push_back(item.seq);
      out.admitted_fresh_pending.push_back(fresh_pending ? 1 : 0);
      ++admitted_count;
    }
    out.seconds = SecondsSince(begin);
  };
  std::vector<std::size_t> admit_busy;
  for (std::size_t t = 0; t < shards; ++t) {
    if (!by_shard[t].empty() || !links_of[t].empty()) {
      admit_busy.push_back(t);
    }
  }
  engine_.threads().RunForIndices(admit_busy, admission_pass);

  // ---- Settle: the shrunken serial barrier. Re-sync the cached
  // global size, reconcile the leases, evict the capacity overdraft
  // canonically, advance the seq counter past the lane grant, and
  // replay the insert ledger in slot order.
  auto barrier_begin = std::chrono::steady_clock::now();
  collection_.ReconcileSize();

  // Lease settlement: the first `admit_budget` admissions in global
  // (slot, pos) order stand; the optimistic overdraft is revoked.
  std::vector<std::vector<AdmissionRef>> admitted_refs(shards);
  std::size_t total_admitted = 0;
  for (std::size_t t = 0; t < shards; ++t) {
    admitted_refs[t] = std::move(admits[t].admitted);
    total_admitted += admitted_refs[t].size();
  }
  std::vector<RevokedAdmission> revoked =
      SettleAdmissionLease(admitted_refs, admit_budget);
  if (!revoked.empty()) {
    // Undo only what each admission still owns: a later effect for
    // the same URL in the stream (a slot reschedule, a retry's
    // reservation) supersedes it, and the serial reference — which
    // never admitted past the budget — keeps that later state. The
    // frontier entry carries its lane seq as the ownership token; for
    // the pending reservation, ownership passed to any later slot of
    // the same URL (its settle-and-reinsert is definitive).
    std::unordered_map<simweb::Url, std::size_t, simweb::UrlHash> slot_of;
    slot_of.reserve(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
      slot_of.emplace(plan[i].url, i);
    }
    for (const RevokedAdmission& r : revoked) {
      const ShardAdmitResult& a = admits[r.shard];
      const simweb::Url& url = *a.admitted_urls[r.index];
      Status unqueue =
          coll_urls_.RemoveIfSeq(url, a.admitted_seqs[r.index]);
      (void)unqueue;
      if (a.admitted_fresh_pending[r.index] == 0) continue;
      auto it = slot_of.find(url);
      const bool later_effect =
          it != slot_of.end() &&
          it->second > admitted_refs[r.shard][r.index].slot;
      if (!later_effect) pending_shards_[r.shard].erase(url);
    }
  }
  const std::size_t kept_admissions = total_admitted - revoked.size();
  stats_.lease_budget_granted += admit_budget;
  stats_.lease_admissions += kept_admissions;

  // Capacity settle: the insert overdraft evicts the globally worst
  // entries, per-shard nominations merged in canonical
  // BetterEvictionVictim order (Algorithm 5.1 steps [7]-[8], batched).
  const std::size_t overdraft =
      collection_.size() > collection_.capacity()
          ? collection_.size() - collection_.capacity()
          : 0;
  if (overdraft > 0) {
    std::vector<simweb::Url> victims =
        collection_.CollectOverdraftVictims(&engine_.threads());
    for (const simweb::Url& victim : victims) {
      Status unqueue = coll_urls_.Remove(victim);
      (void)unqueue;
      update_module_.Forget(victim);
      Status removed = collection_.Remove(victim);
      (void)removed;
      MarkFrontierDirty(victim);
      ++stats_.pages_evicted;
    }
  }

  // ---- Defense settle (serial): the adversarial-web layer. Walk the
  // batch's successful fetches in slot order, claiming each content
  // fingerprint in the AllUrls registry — the first fetch of a body in
  // global slot order is its canonical URL, a pure function of the
  // simulation, so N=1 and N=8 crown the same winner. A fetch whose
  // fingerprint another URL already owns is a wasted fetch (counted
  // with the defense on or off); with the defense on it is also acted
  // upon: re-homed when the owner is a retained page on a presumed-dead
  // site (migration-following, estimator carried over), suppressed
  // otherwise (mirror dedup — duplicate content indexed at most once).
  // Then the per-site diminishing-returns windows are evaluated in
  // ascending site order: a site whose fetches are almost all
  // duplicate content is frontier-throttled with an exponential floor
  // and eventually trap-quarantined (sticky; its links stop being
  // admitted). Sites serving their own content — changed or not —
  // never trip the throttle; spacing unchanged revisits is the revisit
  // scheduler's job, not the defense's.
  {
    const double batch_time = ordered.back()->at;
    std::set<uint32_t> defense_touched;
    // Cuts a convicted site's flood backlog: every queued URL of the
    // site that is not a retained collection entry was admitted on the
    // trap's own say-so and would only ever fetch duplicate content —
    // drop it now rather than paying one wasted fetch apiece to find
    // out. Serial settle, canonical order: shard-count free.
    auto purge_unretained = [&](uint32_t site) {
      std::set<simweb::Url, simweb::UrlIdentityLess> site_urls;
      coll_urls_.AppendSiteUrls(site, &site_urls);
      auto& site_pending = pending_shards_[collection_.ShardOf(site)];
      for (const simweb::Url& u : site_urls) {
        if (collection_.Contains(u)) continue;
        Status dropped = coll_urls_.Remove(u);
        (void)dropped;
        site_pending.erase(u);
        MarkFrontierDirty(u);
      }
    };
    for (ApplyEffect* pe : ordered) {
      const ApplyEffect& e = *pe;
      if (e.kind != ApplyEffect::Kind::kReschedule &&
          e.kind != ApplyEffect::Kind::kInsert) {
        continue;
      }
      all_urls_.ClaimFingerprint(e.checksum, e.url);
      const simweb::Url owner = *all_urls_.FingerprintOwner(e.checksum);
      // Fresh = the fetched content is this URL's own (it owns the
      // fingerprint). Unchanged revisits still count as fresh: the
      // yield window measures the duplicate-content share, so honest
      // sites never trip the throttle no matter how static they are.
      bool fresh = owner == e.url;
      if (!fresh) {
        ++stats_.wasted_fetches;
        if (config_.defense_enabled) {
          // Presumed-dead test, from the failure pipeline's own state:
          // the owner's site tripped its circuit breaker and has not
          // re-established contact (still quarantined, or failing
          // again since). Pure observation of PR 7 state — never the
          // web's oracle.
          const auto& fail_shard =
              site_failure_shards_[collection_.ShardOf(owner.site)];
          auto fit = fail_shard.find(owner.site);
          const bool presumed_dead =
              fit != fail_shard.end() &&
              fit->second.quarantined_until > 0.0 &&
              (fit->second.quarantined_until >= e.at ||
               fit->second.consecutive > 0);
          if (presumed_dead && collection_.Contains(owner)) {
            // Migration-following: the content moved here; re-home the
            // retained entry instead of relearning its change rate.
            Status removed = collection_.Remove(owner);
            (void)removed;
            Status unqueue = coll_urls_.Remove(owner);
            (void)unqueue;
            update_module_.CarryEstimator(owner, e.url);
            Status tomb = all_urls_.MarkDead(owner);
            (void)tomb;
            all_urls_.ReassignFingerprint(e.checksum, e.url);
            MarkFrontierDirty(owner);
            ++stats_.pages_migrated;
            fresh = true;
          } else if (presumed_dead) {
            // The dead site's copy was already retired: adopt the new
            // home without a move.
            all_urls_.ReassignFingerprint(e.checksum, e.url);
            fresh = true;
          } else {
            // Mirror dedup: the canonical copy is alive elsewhere;
            // suppress this URL (tombstoned so stale links cannot
            // resurrect it).
            Status removed = collection_.Remove(e.url);
            (void)removed;
            Status unqueue = coll_urls_.Remove(e.url);
            (void)unqueue;
            update_module_.Forget(e.url);
            Status tomb = all_urls_.MarkDead(e.url);
            (void)tomb;
            MarkFrontierDirty(e.url);
            ++stats_.duplicate_urls_suppressed;
            SiteDefenseState& sd =
                site_defense_shards_[collection_.ShardOf(e.url.site)]
                                    [e.url.site];
            ++sd.suppressed_total;
            // Crossing the link-spam bar is a throttle event in the
            // ledger (the site just lost admission for good) and also
            // forfeits the flood already in the queue. suppressed_total
            // only ever grows, so the crossing fires exactly once.
            if (sd.suppressed_total ==
                config_.defense_link_spam_threshold) {
              ++stats_.trap_sites_throttled;
              purge_unretained(e.url.site);
            }
          }
        }
      }
      if (config_.defense_enabled) {
        SiteDefenseState& d =
            site_defense_shards_[collection_.ShardOf(e.url.site)]
                                [e.url.site];
        ++d.window_fetches;
        if (fresh) ++d.window_fresh;
        defense_touched.insert(e.url.site);
      }
    }
    for (uint32_t site : defense_touched) {
      SiteDefenseState& d =
          site_defense_shards_[collection_.ShardOf(site)][site];
      if (d.window_fetches <
          static_cast<uint64_t>(config_.defense_yield_window)) {
        continue;
      }
      const double yield = static_cast<double>(d.window_fresh) /
                           static_cast<double>(d.window_fetches);
      d.window_fetches = 0;
      d.window_fresh = 0;
      if (yield >= config_.defense_min_yield) {
        // Healthy windows decay the level one step rather than
        // resetting it: a trap that alternates flooding with draining
        // its backlog ratchets up to quarantine instead of oscillating
        // (each reset would re-open link admission for another flood).
        if (d.throttle_level > 0) --d.throttle_level;
        continue;
      }
      ++d.throttle_level;
      if (d.throttle_level == 1) ++stats_.trap_sites_throttled;
      const uint32_t exponent = std::min(d.throttle_level, 16u) - 1;
      double floor = batch_time +
                     config_.defense_throttle_base_days *
                         static_cast<double>(uint64_t{1} << exponent);
      if (!d.quarantined &&
          d.throttle_level >= config_.defense_quarantine_level) {
        d.quarantined = true;
        d.quarantined_until = batch_time + config_.defense_quarantine_days;
        purge_unretained(site);
      }
      if (d.quarantined && d.quarantined_until > floor) {
        floor = d.quarantined_until;
      }
      coll_urls_.RescheduleSiteNotBefore(site, floor);
      // The floor walk moves entries no effect names; the post-settle
      // site content is shard-count independent, so record it whole
      // (frontier-ledger rule (5)).
      if (delta_tracking_) {
        coll_urls_.AppendSiteUrls(site, &frontier_dirty_);
      }
    }
  }

  // Incremental-checkpoint frontier ledger: record, at the serial
  // barrier, every URL whose frontier position this batch may have
  // moved. The marked *set* must be a pure function of the simulation
  // (segments are byte-compared across shard counts), so the rules
  // are: (1) every effect's URL — its entry was popped by the plan and
  // possibly rescheduled; (2) admissions that *stood* — revoked ones
  // are N-layout artifacts the serial reference never made, and their
  // post-settle frontier state needs no record unless another rule
  // already names them; (3) the whole current frontier of a
  // quarantined site — the floor walk moves entries no effect names,
  // and the post-settle site content is shard-count independent;
  // (4) eviction victims (marked in the loop above); (5) URLs the
  // defense settle suppressed or re-homed, and the whole frontier of a
  // defense-throttled site (marked in the defense settle above).
  if (delta_tracking_) {
    for (const ApplyEffect* pe : ordered) {
      frontier_dirty_.insert(pe->url);
    }
    std::vector<std::vector<uint8_t>> revoked_mask(shards);
    for (std::size_t t = 0; t < shards; ++t) {
      revoked_mask[t].assign(admits[t].admitted_urls.size(), 0);
    }
    for (const RevokedAdmission& r : revoked) {
      revoked_mask[r.shard][r.index] = 1;
    }
    for (std::size_t t = 0; t < shards; ++t) {
      for (std::size_t i = 0; i < admits[t].admitted_urls.size(); ++i) {
        if (revoked_mask[t][i] == 0) {
          frontier_dirty_.insert(*admits[t].admitted_urls[i]);
        }
      }
    }
    for (const ApplyEffect* pe : ordered) {
      if (pe->quarantine) {
        coll_urls_.AppendSiteUrls(pe->url.site, &frontier_dirty_);
      }
    }
  }

  // Seq-lane settle: the counter jumps past the granted range (unused
  // lane slots stay as deterministic gaps).
  coll_urls_.SettleSeqLease(seq_base + seq_width);

  // Insert ledger replay, in slot order: pages_added, the capacity
  // milestone, and the new-page timeliness metric — the only stat
  // whose accumulation order is observable (RunningStat state is
  // checkpointed), so it is fed serially, never shard-merged.
  if (!reached_capacity_once_) {
    // Fill phase: replay the full effect stream, so dead purges free
    // occupancy at their own slots and the capacity milestone fires
    // exactly where the stream crossed it.
    std::size_t running = size_at_entry;
    for (ApplyEffect* pe : ordered) {
      const ApplyEffect& e = *pe;
      if (e.purged) {
        --running;
        continue;
      }
      if (!e.inserted) continue;
      ++stats_.pages_added;
      if (reached_capacity_once_ && e.first_seen_valid &&
          e.first_seen >= steady_since_) {
        stats_.new_page_latency_days.Add(e.at - e.first_seen);
      }
      ++running;
      if (!reached_capacity_once_ && running >= collection_.capacity()) {
        reached_capacity_once_ = true;
        steady_since_ = e.at;
      }
    }
  } else {
    // Steady state: only the inserts matter; walk just those.
    std::vector<uint32_t> insert_slots;
    for (const ShardAdmitResult& a : admits) {
      insert_slots.insert(insert_slots.end(), a.insert_slots.begin(),
                          a.insert_slots.end());
    }
    std::sort(insert_slots.begin(), insert_slots.end());
    for (uint32_t slot : insert_slots) {
      const ApplyEffect& e = *ordered[slot];
      ++stats_.pages_added;
      if (e.first_seen_valid && e.first_seen >= steady_since_) {
        stats_.new_page_latency_days.Add(e.at - e.first_seen);
      }
    }
  }

  // In-batch retries merge across shards in slot order.
  for (ShardAdmitResult& a : admits) {
    retries.insert(retries.end(), a.retries.begin(), a.retries.end());
  }
  std::sort(retries.begin(), retries.end(),
            [](const PendingRetry& a, const PendingRetry& b) {
              return a.slot < b.slot;
            });

  now_ = ordered.back()->at;
  const double barrier_seconds = SecondsSince(barrier_begin);

  // Backoff ledger replay, in slot order: like the new-page latency
  // stat, the RunningStat's accumulation order is observable through
  // the checkpoint, so it is fed serially, never shard-merged.
  for (const ApplyEffect* pe : ordered) {
    if (pe->kind == ApplyEffect::Kind::kFailed) {
      stats_.backoff_days.Add(pe->backoff_delay);
    }
  }

  // Counter deltas merge in shard index order; shard wall-clocks are
  // merged the same way (values are wall-clock, the structure is not).
  uint64_t batch_failures = 0;
  for (const ShardApplyResult& delta : deltas) {
    stats_.crawls += delta.crawls;
    stats_.in_place_updates += delta.in_place_updates;
    stats_.changes_detected += delta.changes_detected;
    stats_.politeness_retries += delta.politeness_retries;
    stats_.dead_pages_removed += delta.dead_pages_removed;
    stats_.fetch_failures += delta.fetch_failures;
    stats_.transient_errors += delta.transient_errors;
    stats_.timeout_errors += delta.timeout_errors;
    stats_.failure_retries += delta.failure_retries;
    stats_.sites_quarantined += delta.sites_quarantined;
    stats_.urls_retired += delta.urls_retired;
    batch_failures += delta.fetch_failures;
  }
  if (batch_failures > 0) engine_.RecordFetchFailures(batch_failures);
  for (std::size_t s : busy) {
    engine_.RecordApplyShardSeconds(deltas[s].seconds);
  }
  for (std::size_t t : admit_busy) {
    engine_.RecordApplyShardSeconds(admits[t].seconds);
  }
  engine_.RecordLeaseSettle(static_cast<double>(admit_budget),
                            static_cast<double>(kept_admissions),
                            static_cast<double>(revoked.size()),
                            static_cast<double>(overdraft));
  engine_.RecordApplyBarrierSeconds(barrier_seconds);
  engine_.RecordApplySeconds(SecondsSince(apply_begin));
}

Status IncrementalCrawler::RunUntil(double until) {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("call Bootstrap first");
  }
  const double step = 1.0 / config_.crawl_rate_pages_per_day;
  while (now_ < until) {
    // Housekeeping due at the current time. All next_* end up > now_.
    // A due freshness sample is *deferred* on the pipelined path: the
    // serial bucket step runs here (the collection is exactly batch
    // B-1's applied state), the oracle walks fuse into this batch's
    // fetch workers, and the tracker sample settles at the apply
    // barrier — bit-identical to sampling inline, because each page's
    // oracle observation at the sample time still precedes that page's
    // fetch (same site => same shard worker, walk before fetches).
    // Except when refinement fires this same iteration: it can Remove
    // collection entries between here and the batch, which would both
    // dangle the bucketed entry pointers and change the measured set —
    // the sample must see the pre-refinement collection, so it runs
    // inline on those (rare) coinciding boundaries.
    bool measure_deferred = false;
    double sample_time = 0.0;
    StagedMeasure staged_measure;
    double measure_serial_seconds = 0.0;
    if (now_ >= next_sample_) {
      if (config_.pipeline && now_ < next_refine_) {
        auto measure_begin = std::chrono::steady_clock::now();
        sample_time = now_;
        staged_measure.Prepare(*web_, collection_, sample_time,
                               engine_.num_shards());
        measure_deferred = true;
        measure_serial_seconds = SecondsSince(measure_begin);
      } else {
        tracker_.AddSample(now_, MeasureNow().freshness);
      }
      while (next_sample_ <= now_) {
        next_sample_ += config_.freshness_sample_interval_days;
      }
    }
    if (now_ >= next_refine_) {
      RunRefinement();
      while (next_refine_ <= now_) {
        next_refine_ += config_.refine_interval_days;
      }
    }
    if (now_ >= next_rebalance_) {
      update_module_.Rebalance();
      while (next_rebalance_ <= now_) {
        next_rebalance_ += config_.rebalance_interval_days;
      }
    }

    // Re-freeze the budget-spreading page count at the serial plan
    // step, *after* housekeeping: refinement and rebalance may just
    // have forgotten or admitted pages, and the upcoming batch's
    // scheduling fallbacks should see that truth instead of a count
    // captured at the previous batch's barrier. The plan step is
    // serial, so the freeze stays a pure function of history at every
    // shard count. This is also the pipeline's page-count stage
    // boundary: the frozen count feeds only the *apply* stage's
    // scheduling (OnCrawled), so freezing between apply(B-1) and
    // apply(B) is exactly the sequential freeze point.
    update_module_.RefreshSchedulingPageCount();

    // Plan one engine batch of crawl slots, bounded by the next
    // housekeeping event so refinement/rebalance/sampling always see a
    // fully applied collection. The frontier extracts candidates
    // shard-parallel on the engine's worker pool and merges them
    // deterministically into slot order.
    const double horizon =
        std::min({next_sample_, next_refine_, next_rebalance_, until});
    auto plan_begin = std::chrono::steady_clock::now();
    ShardedFrontier::SlotPlan slot_plan =
        coll_urls_.PlanSlots(now_, horizon, step, &engine_.threads());
    std::vector<PlannedFetch> plan;
    plan.reserve(slot_plan.slots.size());
    for (std::size_t i = 0; i < slot_plan.slots.size(); ++i) {
      plan.push_back(PlannedFetch{slot_plan.slots[i].url,
                                  slot_plan.slots[i].when,
                                  slot_plan.owner[i]});
    }
    // Only batches the engine also counts, so per-batch phase ratios
    // divide like for like (idle planning passes are ~free anyway).
    if (!plan.empty()) engine_.RecordPlanSeconds(SecondsSince(plan_begin));

    // Fuse the deferred measure into this batch's fetch workers. An
    // empty plan has no fetch stage to ride on; Finish then runs the
    // walks serially below.
    ShardedCrawlEngine::StageHook before_fetch;
    if (measure_deferred) {
      before_fetch = [&staged_measure](std::size_t s) {
        staged_measure.RunShard(s);
      };
    }

    std::vector<double> retry_at;
    std::vector<StatusOr<simweb::FetchResult>> outcomes =
        engine_.ExecuteBatch(plan, &retry_at, before_fetch);

    // Settle the deferred sample before the apply barrier: remaining
    // shard walks run serially (all done already when the hook rode a
    // batch), the canonical ascending-site reduction is serial either
    // way, and the tracker receives exactly the sample the inline path
    // would have recorded.
    if (measure_deferred) {
      auto measure_begin = std::chrono::steady_clock::now();
      tracker_.AddSample(sample_time, staged_measure.Finish().freshness);
      engine_.RecordMeasureSeconds(measure_serial_seconds +
                                   SecondsSince(measure_begin));
    }

    std::vector<PendingRetry> retries;
    ApplyBatch(plan, outcomes, retry_at, slot_plan.end_time, retries);

    // In-batch retry rounds: rejected fetches whose polite window
    // reopens before the batch window closes are refetched now,
    // reusing their wasted slots, instead of waiting a whole batch.
    // A site may receive several polite slots per round, spaced one
    // polite delay apart — a batch dominated by one hot site retires
    // in a single round instead of spinning one-URL rounds. Retries
    // the spacing pushes past the window hand their URL to the next
    // batch at the spaced polite time; every planned retry advances
    // its site's polite clock, so the loop terminates.
    uint64_t retry_rounds = 0;
    const double delay = config_.crawl.per_site_delay_days;
    while (!retries.empty()) {
      auto round_begin = std::chrono::steady_clock::now();
      std::vector<PlannedFetch> round;
      std::unordered_map<uint32_t, uint64_t> admitted;
      for (PendingRetry& r : retries) {
        const double polite = engine_.pool().NextAllowedTime(r.url.site);
        // Intra-round spacing: the site's k-th retry this round runs k
        // polite delays after its first — exactly the cadence the
        // engine's per-site plan-order fetches keep polite.
        uint64_t& k = admitted[r.url.site];
        const double at = polite + static_cast<double>(k) * delay;
        if (at >= slot_plan.end_time) {
          // The spaced slot lands past the window: hand the URL to the
          // next batch at that (estimated) earliest polite time.
          coll_urls_.Schedule(r.url, at);
          MarkFrontierDirty(r.url);
          continue;
        }
        ++k;
        round.push_back(PlannedFetch{r.url, at, r.shard});
      }
      if (round.empty()) break;
      ++retry_rounds;
      // Each retry round is a (small) engine batch of its own; record
      // a plan sample for it so the per-phase sample counts stay one
      // per engine batch.
      engine_.RecordPlanSeconds(SecondsSince(round_begin));
      stats_.in_batch_retries += round.size();
      std::vector<double> round_retry_at;
      std::vector<StatusOr<simweb::FetchResult>> round_outcomes =
          engine_.ExecuteBatch(round, &round_retry_at);
      std::vector<PendingRetry> rejected;
      ApplyBatch(round, round_outcomes, round_retry_at,
                 slot_plan.end_time, rejected);
      retries = std::move(rejected);
    }
    // Advance the crawl clock to the batch boundary *before* any
    // checkpoint: a checkpoint must capture the post-batch clock, or a
    // resumed run would re-plan the next batch from a mid-batch slot
    // time the uninterrupted run never used.
    now_ = slot_plan.end_time;
    if (!plan.empty()) {
      // Store barrier: per-shard compaction of the paged backends
      // (no-op on memory), at the quiesced boundary where no entry
      // pointers are outstanding.
      collection_.Flush();
      all_urls_.Flush();
      // One ledger sample per planned batch: how many retry rounds it
      // took to retire the batch's politeness rejections.
      engine_.RecordRetryRounds(static_cast<double>(retry_rounds));
      ++batches_completed_;
      if (config_.publish_view_every_batches > 0 &&
          batches_completed_ % config_.publish_view_every_batches == 0) {
        // MVCC publish at the apply barrier: readers acquire the new
        // view lock-free while the next batch plans and fetches.
        PublishViewNow();
      }
      if (config_.checkpoint_every_batches > 0 &&
          batches_completed_ % config_.checkpoint_every_batches == 0) {
        // Auto-checkpoint at the batch boundary. The deferred measure
        // settled before this batch's apply, so nothing is in flight
        // and the bytes equal the non-pipelined run's.
        CrawlerCheckpointOptions options;
        options.include_web = config_.checkpoint_include_web;
        options.module_traffic = config_.checkpoint_module_traffic;
        Status saved =
            config_.checkpoint_incremental
                ? CheckpointIncremental(this, config_.checkpoint_path,
                                        options)
                : SaveCrawlerToFile(*this, config_.checkpoint_path,
                                    options);
        if (!saved.ok()) return saved;
      }
    }
  }
  return Status::Ok();
}

void IncrementalCrawler::PublishViewNow() {
  engine_.PublishView(serving::BuildBatchView(*this));
}

CollectionQuality IncrementalCrawler::MeasureNow() {
  auto measure_begin = std::chrono::steady_clock::now();
  CollectionQuality q = MeasureCollectionSharded(
      *web_, collection_, now_, engine_.threads(), engine_.num_shards());
  engine_.RecordMeasureSeconds(SecondsSince(measure_begin));
  return q;
}

}  // namespace webevo::crawler
