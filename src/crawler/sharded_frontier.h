#ifndef WEBEVO_CRAWLER_SHARDED_FRONTIER_H_
#define WEBEVO_CRAWLER_SHARDED_FRONTIER_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <set>
#include <vector>

#include "crawler/coll_urls.h"
#include "simweb/url.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace webevo::crawler {

class ShardedFrontier;
Status SaveFrontier(const ShardedFrontier& frontier, std::ostream& out);
StatusOr<ShardedFrontier> LoadFrontier(std::istream& in, int num_shards);

/// A CollUrls frontier split into N shard-local heaps (mithril-style
/// per-shard UrlFrontier), one per CrawlModule shard, with sites
/// partitioned site % N — the same ownership mapping the
/// ShardedCrawlEngine fetches under.
///
/// Behavioural contract: *bit-identical to a single CollUrls* at every
/// shard count. Sequence numbers (the FIFO tie-break) and the
/// front-of-queue key both come from counters global to the frontier,
/// so the merge order over shard heads — earliest `when`, ties broken
/// by global sequence number — is exactly the pop order the one-heap
/// queue would produce. Pop/Peek merge the N shard heads through a
/// tournament tree rebuilt lazily along dirtied leaf-to-root paths, so
/// a pop costs O(log N + log(n/N)) rather than a linear scan of shard
/// heads; Schedule/Remove route to the owning shard (O(log(n/N))).
///
/// The point of the split is PlanSlots: each shard extracts its own
/// due-before-horizon candidates in parallel on the engine's
/// ThreadPool — the heap work that used to serialise the plan phase —
/// and a cheap serial merge then assigns crawl slots deterministically.
/// Push-back rescheduling between batches (Schedule from the apply
/// barrier) lands directly in the owning shard's heap.
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
    head_dirty_[s] = 1;
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
    const std::size_t s = ShardOf(site);
    const std::size_t moved = shards_[s].RescheduleSiteNotBefore(site, floor);
    if (moved > 0) head_dirty_[s] = 1;
    return moved;
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
    /// owner[i] is the shard that owns slots[i].url.site — stamped
    /// once here at plan time (the merge knows the winning shard), so
    /// the fetch/apply passes reuse it instead of recomputing
    /// site % num_shards per touch.
    std::vector<uint32_t> owner;
    /// The crawl clock after the batch: `horizon` unless planning
    /// stopped early (never happens at a constant rate — idle periods
    /// also advance to the horizon).
    double end_time = 0.0;
  };

  /// Plans one engine batch: starting the slot clock at `start`, pops
  /// due URLs one per crawl slot (one slot every `step` days), idling
  /// forward when the next URL is due later, until the clock reaches
  /// `horizon`. Reproduces the serial CollUrls plan loop bit for bit:
  ///
  ///   1. *extract* (parallel over `threads` when > 1 shard has work):
  ///      each shard pops its own due-before-horizon candidates, at
  ///      most the batch's slot capacity, into a sorted per-shard list;
  ///   2. *merge* (serial, cheap): a deterministic tournament-tree
  ///      merge over the per-shard lists — earliest `when`, ties by
  ///      global sequence number — drives the slot clock and assigns
  ///      slot times;
  ///   3. *restore*: candidates the clock never reached go back to
  ///      their shard heaps with their original (when, seq) keys.
  ///
  /// `threads` may be null (serial extraction); results are identical.
  SlotPlan PlanSlots(double start, double horizon, double step,
                     ThreadPool* threads);

  /// Snapshot/restore of the frontier's scheduled times (entries with
  /// their global (when, seq) keys plus the global counters), in
  /// crawler/snapshot.cc — what makes a restarted crawler pop in
  /// exactly the order the checkpointed one would have.
  friend Status SaveFrontier(const ShardedFrontier& frontier,
                             std::ostream& out);
  friend StatusOr<ShardedFrontier> LoadFrontier(std::istream& in,
                                                int num_shards);

 private:
  /// Refreshes dirty shard heads and replays their tournament paths;
  /// returns the winning shard index, or shards_.size() when every
  /// shard is empty.
  std::size_t RepairAndWinner();

  std::vector<CollUrls> shards_;
  // Global counters shared by all shards: the FIFO tie-break sequence
  // and the front-of-queue key offset. Keeping them global is what
  // makes the tournament merge order equal to the single-heap pop
  // order.
  uint64_t next_seq_ = 0;
  double front_when_ = 0.0;

  // Tournament tree over the shard heads. leaves_ is the smallest
  // power of two >= num_shards; node i has children 2i and 2i+1, shard
  // s sits at leaf leaves_ + s, and winner_[1] holds the shard with
  // the globally earliest head (kNoShard for an empty subtree). Heads
  // are cached per shard; any operation that may move a shard's head
  // only sets that shard's dirty byte — one byte per shard, so
  // PlanSlots' parallel extraction can mark its own shard without
  // touching shared state — and Pop/Peek replay the dirty leaf-to-root
  // paths on the serial path, O(log N) per dirty shard.
  static constexpr uint32_t kNoShard = ~0u;
  std::size_t leaves_ = 1;
  std::vector<uint32_t> winner_;
  std::vector<CollUrls::Entry> head_;
  std::vector<uint8_t> head_live_;
  std::vector<uint8_t> head_dirty_;
};

}  // namespace webevo::crawler

#endif  // WEBEVO_CRAWLER_SHARDED_FRONTIER_H_
