#ifndef WEBEVO_CRAWLER_COLL_URLS_H_
#define WEBEVO_CRAWLER_COLL_URLS_H_

#include <cstdint>
#include <optional>
#include <queue>
#include <set>
#include <unordered_map>
#include <vector>

#include "simweb/url.h"
#include "util/status.h"

namespace webevo::crawler {

/// A URL scheduled for crawling at (or after) a given time.
struct ScheduledUrl {
  simweb::Url url;
  double when = 0.0;
};

/// The `CollUrls` priority queue of Figure 12: URLs that are (or will
/// be) in the collection, ordered so "the URLs to be crawled early are
/// placed in the front". The UpdateModule pops the head, crawls it, and
/// pushes it back with a position derived from the page's estimated
/// change frequency; the RankingModule inserts replacement pages at the
/// very front so they are crawled immediately.
///
/// Implemented as a binary min-heap on the scheduled time with lazy
/// deletion: rescheduling or removing a URL invalidates its previous
/// heap entry via a sequence number, so all operations are O(log n)
/// amortised — the property that lets the UpdateModule sustain the
/// paper's "40 pages/second" style throughput independent of collection
/// size.
///
/// The sequence number doubles as the FIFO tie-break among equal
/// scheduled times. ShardedFrontier splits one logical queue across
/// per-shard CollUrls instances by assigning sequence numbers from a
/// single global counter via ScheduleAt, which is what makes the
/// earliest of its shard heads this class's next pop exactly.
class CollUrls {
 public:
  /// One live queue position: the scheduled time plus the sequence
  /// number that tie-breaks equal times (smaller pops first) and tokens
  /// lazy deletion.
  struct Entry {
    double when = 0.0;
    uint64_t seq = 0;
    simweb::Url url;
  };

  /// Base key for front-of-queue inserts; far below any realistic
  /// simulation time, so front entries always precede scheduled ones.
  static constexpr double kFrontBase = -1e18;

  /// Inserts `url` or moves it to position `when` if already present.
  void Schedule(const simweb::Url& url, double when) {
    ScheduleAt(url, when, next_seq_++);
  }

  /// Schedules in front of everything currently queued (the
  /// RankingModule's "crawl this new page immediately").
  void ScheduleFront(const simweb::Url& url);

  /// Schedule with an externally assigned sequence number — the
  /// ShardedFrontier's primitive for keeping one global FIFO order
  /// across shard-local heaps, and the checkpoint restore's for
  /// re-inserting saved entries. Callers must never mix external
  /// sequence numbers with this instance's own counter.
  void ScheduleAt(const simweb::Url& url, double when, uint64_t seq);

  /// Removes a URL from the queue; NotFound if absent.
  Status Remove(const simweb::Url& url);

  /// Removes the URL only if its live entry still carries `seq` — the
  /// lease-settlement revocation guard: an admission whose entry was
  /// since superseded by a reschedule must leave the newer entry
  /// standing. NotFound when absent or superseded.
  Status RemoveIfSeq(const simweb::Url& url, uint64_t seq);

  /// Pushes every live entry of `site` scheduled before `floor` out to
  /// `floor`, keeping each entry's sequence number (so lease tokens and
  /// FIFO order among the site's entries survive) — the quarantine
  /// primitive: a tripped circuit breaker reschedules a site's frontier
  /// entries rather than dropping them. Returns how many moved. The
  /// result is independent of internal iteration order: each moved
  /// entry's new key (floor, seq) is a pure function of its old state.
  std::size_t RescheduleSiteNotBefore(uint32_t site, double floor);

  /// Pops the earliest-scheduled URL; nullopt if empty.
  std::optional<ScheduledUrl> Pop();

  /// Earliest entry without removing it; nullopt if empty.
  std::optional<ScheduledUrl> Peek();

  /// Pop/Peek variants exposing the tie-break sequence number, which
  /// the ShardedFrontier compares across its shard heads.
  std::optional<Entry> PopEntry();
  std::optional<Entry> PeekEntry();

  bool Contains(const simweb::Url& url) const {
    return live_.count(url) > 0;
  }

  /// The live (when, seq) entry of `url`, without disturbing the heap;
  /// nullopt if absent. Incremental checkpoints record frontier
  /// positions through this.
  std::optional<Entry> LookupEntry(const simweb::Url& url) const {
    auto it = live_.find(url);
    if (it == live_.end()) return std::nullopt;
    return Entry{it->second.when, it->second.seq, url};
  }

  /// Appends every live entry to `out`, in unspecified order.
  void AppendEntries(std::vector<Entry>* out) const {
    for (const auto& [url, ref] : live_) {
      out->push_back(Entry{ref.when, ref.seq, url});
    }
  }

  /// Inserts every live URL of `site` into `out` — the quarantine walk
  /// of the incremental checkpoint's dirty marking (a site-wide
  /// reschedule touches entries no per-effect record names).
  void AppendSiteUrls(uint32_t site,
                      std::set<simweb::Url, simweb::UrlIdentityLess>* out)
      const {
    for (const auto& [url, ref] : live_) {
      if (url.site == site) out->insert(url);
    }
  }

  /// Number of live (non-superseded) entries.
  std::size_t size() const { return live_.size(); }
  bool empty() const { return live_.empty(); }

 private:
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;  // FIFO among equal times
    }
  };

  /// The (seq, when) key of a url's single live heap entry. Staleness
  /// is tokened on *both* fields: RescheduleSiteNotBefore moves an
  /// entry to a later time while keeping its seq, so seq alone would
  /// leave the superseded earlier-time heap entry looking live.
  struct LiveRef {
    uint64_t seq = 0;
    double when = 0.0;
  };
  using LiveMap = std::unordered_map<simweb::Url, LiveRef, simweb::UrlHash>;

  /// Discards superseded heap heads; returns the live_ entry of the
  /// head it verified (live_.end() when the heap is empty), so a pop
  /// erases through it instead of probing again.
  LiveMap::iterator SkipStale();

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  LiveMap live_;
  uint64_t next_seq_ = 0;
  double front_when_ = 0.0;  // increasing offset above kFrontBase
};

}  // namespace webevo::crawler

#endif  // WEBEVO_CRAWLER_COLL_URLS_H_
