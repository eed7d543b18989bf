#ifndef WEBEVO_CRAWLER_SHARDED_FRONTIER_H_
#define WEBEVO_CRAWLER_SHARDED_FRONTIER_H_

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "crawler/coll_urls.h"
#include "simweb/url.h"
#include "util/status.h"

namespace webevo::crawler {

/// A CollUrls frontier split into N shard-local heaps (mithril-style
/// per-shard UrlFrontier), one per CrawlModule shard, with sites
/// partitioned site % N — the same ownership mapping the
/// ShardedCrawlEngine fetches under and the Collection and AllUrls keep
/// their per-shard stores under.
///
/// Behavioural contract: *bit-identical to a single CollUrls* at every
/// shard count. Sequence numbers (the FIFO tie-break) and the
/// front-of-queue key both come from counters global to the frontier,
/// so the earliest shard head — earliest `when`, ties broken by global
/// sequence number — is always the head the one-heap queue would pop.
/// Schedule/Remove route to the owning shard (O(log(n/N))).
///
/// The point of the split is the apply pass: its shard workers
/// schedule, revoke and re-floor their own sites' URLs concurrently
/// (ScheduleLane, RescheduleSiteNotBefore), each touching only the
/// heap of the shard it owns. Reading the frontier is serial: PlanSlots
/// plans a batch on the calling thread, and Pop/Peek (the tests' scan)
/// take the same earliest head.
class ShardedFrontier {
 public:
  /// Creates `num_shards` shard heaps (>= 1; clamped, matching
  /// CrawlModulePool).
  explicit ShardedFrontier(int num_shards);

  /// Inserts `url` or moves it to position `when` if already present.
  void Schedule(const simweb::Url& url, double when);

  /// Schedules in front of everything currently queued, FIFO among
  /// front-inserts across all shards.
  void ScheduleFront(const simweb::Url& url);

  /// Removes a URL from the frontier; NotFound if absent.
  Status Remove(const simweb::Url& url);

  /// Lease-lane scheduling: inserts directly into shard `s` (which
  /// must own `url.site`) with an externally granted (when, seq) key.
  /// The apply pass's shard workers call this concurrently — each for
  /// its own shard — with sequence numbers from per-slot lanes the
  /// serial coordinator granted out of [next_seq(), next_seq() +
  /// width); the global counter itself is untouched until
  /// SettleSeqLease. Lane seqs are assigned by global slot order, so
  /// the FIFO tie-break stays a pure function of the batch at every
  /// shard count (unused lane slots leave harmless gaps).
  void ScheduleLane(std::size_t s, const simweb::Url& url, double when,
                    uint64_t seq) {
    shards_[s].ScheduleAt(url, when, seq);
  }

  /// Lease-revocation removal: drops `url` only if its live entry
  /// still carries `seq` (a later reschedule supersedes the admission
  /// and must keep standing). NotFound when absent or superseded.
  Status RemoveIfSeq(const simweb::Url& url, uint64_t seq);

  /// Quarantine reschedule: pushes every frontier entry of `site`
  /// scheduled before `floor` out to `floor`, keeping each entry's
  /// sequence number (entries are deferred, never dropped). Same
  /// concurrency contract as ScheduleLane: the apply pass's shard
  /// workers may call this concurrently because shard ShardOf(site)
  /// owns the site and only that worker touches it. Returns how many
  /// entries moved.
  std::size_t RescheduleSiteNotBefore(uint32_t site, double floor) {
    return shards_[ShardOf(site)].RescheduleSiteNotBefore(site, floor);
  }

  /// First unissued sequence number — the base of the next lane grant.
  uint64_t next_seq() const { return next_seq_; }

  /// Serial settle of a lane grant: advances the global counter past
  /// the granted range. `next` must be >= next_seq().
  void SettleSeqLease(uint64_t next) { next_seq_ = next; }

  /// Pops the globally earliest-scheduled URL; nullopt if empty.
  std::optional<ScheduledUrl> Pop();

  /// Globally earliest entry without removing it; nullopt if empty.
  std::optional<ScheduledUrl> Peek();

  bool Contains(const simweb::Url& url) const {
    return shards_[ShardOf(url.site)].Contains(url);
  }

  /// The live global (when, seq) entry of `url`; nullopt if absent.
  std::optional<CollUrls::Entry> LookupEntry(const simweb::Url& url) const {
    return shards_[ShardOf(url.site)].LookupEntry(url);
  }

  /// Inserts every live URL of `site` into `out` (see
  /// CollUrls::AppendSiteUrls).
  void AppendSiteUrls(uint32_t site,
                      std::set<simweb::Url, simweb::UrlIdentityLess>* out)
      const {
    shards_[ShardOf(site)].AppendSiteUrls(site, out);
  }

  /// The global front-of-queue key offset, paired with next_seq() in
  /// incremental checkpoint segments.
  double front_when() const { return front_when_; }

  /// Restores both global counters from a checkpoint segment. The
  /// shard-local CollUrls counters are untouched — in sharded mode
  /// every insert routes through ScheduleAt with globally assigned
  /// keys, so the per-shard counters are never consulted.
  void RestoreCounters(uint64_t next_seq, double front_when) {
    next_seq_ = next_seq;
    front_when_ = front_when;
  }

  std::size_t size() const;
  bool empty() const { return size() == 0; }

  int num_shards() const { return static_cast<int>(shards_.size()); }
  std::size_t ShardOf(uint32_t site) const { return site % shards_.size(); }
  const CollUrls& shard(std::size_t i) const { return shards_[i]; }

  /// One batch of crawl slots planned at a constant crawl speed.
  struct SlotPlan {
    /// Planned fetches in slot order; `when` is the assigned slot time.
    std::vector<ScheduledUrl> slots;
    /// The crawl clock after the batch: `horizon` unless planning
    /// stopped early (never happens at a constant rate — idle periods
    /// also advance to the horizon).
    double end_time = 0.0;
  };

  /// Plans one engine batch: starting the slot clock at `start`, pops
  /// due URLs one per crawl slot (one slot every `step` days), idling
  /// forward when the next URL is due later, until the clock reaches
  /// `horizon` — the serial CollUrls plan loop, bit for bit. It holds
  /// each shard's head and takes the earliest; after a pop only that
  /// shard's head is re-read, so a planned slot costs two hash probes
  /// of that shard: the pop re-verifies its head and erases through
  /// the iterator it found, and the next head is verified once.
  SlotPlan PlanSlots(double start, double horizon, double step);

 private:
  std::vector<CollUrls> shards_;
  // Global counters shared by all shards: the FIFO tie-break sequence
  // and the front-of-queue key offset. Keeping them global is what
  // makes the earliest shard head the single-heap queue's head.
  uint64_t next_seq_ = 0;
  double front_when_ = 0.0;
};

}  // namespace webevo::crawler

#endif  // WEBEVO_CRAWLER_SHARDED_FRONTIER_H_
