#include "crawler/sharded_frontier.h"

#include <algorithm>
#include <limits>

namespace webevo::crawler {
namespace {

// The one definition of the global pop order — earliest `when`, ties
// broken by the global sequence number (the inverse of CollUrls::Later)
// — shared by the Pop/Peek scan and the PlanSlots merge so the two can
// never drift apart and break the bit-identical contract.
bool Earlier(const CollUrls::Entry& a, const CollUrls::Entry& b) {
  if (a.when != b.when) return a.when < b.when;
  return a.seq < b.seq;
}

// Tournament tree over the per-shard candidate lists extracted by
// PlanSlots: winner() is the list with the earliest head, advance()
// consumes that head and replays its leaf-to-root path — O(log N) per
// consumed candidate instead of a linear scan over shard heads.
class MergeTree {
 public:
  static constexpr uint32_t kNone = ~0u;

  explicit MergeTree(
      const std::vector<std::vector<CollUrls::Entry>>& lists)
      : lists_(lists), next_(lists.size(), 0) {
    while (leaves_ < lists.size()) leaves_ *= 2;
    winner_.assign(2 * leaves_, kNone);
    for (std::size_t s = 0; s < lists.size(); ++s) Replay(s);
  }

  /// Index of the list holding the globally earliest head, or kNone.
  uint32_t winner() const { return winner_[1]; }

  const CollUrls::Entry& head(std::size_t s) const {
    return lists_[s][next_[s]];
  }

  std::size_t cursor(std::size_t s) const { return next_[s]; }

  void advance(std::size_t s) {
    ++next_[s];
    Replay(s);
  }

 private:
  // Re-derives the winners along list s's leaf-to-root path. Node i's
  // children are 2i and 2i+1, and list s sits at leaf leaves_ + s.
  void Replay(std::size_t s) {
    std::size_t node = leaves_ + s;
    winner_[node] =
        next_[s] < lists_[s].size() ? static_cast<uint32_t>(s) : kNone;
    for (node /= 2; node >= 1; node /= 2) {
      const uint32_t a = winner_[2 * node];
      const uint32_t b = winner_[2 * node + 1];
      if (a == kNone) {
        winner_[node] = b;
      } else if (b == kNone) {
        winner_[node] = a;
      } else {
        winner_[node] = Earlier(head(a), head(b)) ? a : b;
      }
    }
  }

  const std::vector<std::vector<CollUrls::Entry>>& lists_;
  std::vector<std::size_t> next_;
  std::size_t leaves_ = 1;
  std::vector<uint32_t> winner_;
};

}  // namespace

ShardedFrontier::ShardedFrontier(int num_shards)
    : shards_(static_cast<std::size_t>(std::max(1, num_shards))) {}

void ShardedFrontier::Schedule(const simweb::Url& url, double when) {
  ScheduleLane(ShardOf(url.site), url, when, next_seq_++);
}

void ShardedFrontier::ScheduleFront(const simweb::Url& url) {
  // Identical arithmetic to CollUrls::ScheduleFront, with the offset
  // global to the frontier so front-inserts stay FIFO across shards.
  front_when_ += 1e-6;
  shards_[ShardOf(url.site)].ScheduleAt(
      url, CollUrls::kFrontBase + front_when_, next_seq_++);
}

Status ShardedFrontier::Remove(const simweb::Url& url) {
  return shards_[ShardOf(url.site)].Remove(url);
}

Status ShardedFrontier::RemoveIfSeq(const simweb::Url& url,
                                    uint64_t seq) {
  return shards_[ShardOf(url.site)].RemoveIfSeq(url, seq);
}

std::optional<ScheduledUrl> ShardedFrontier::Pop() {
  std::optional<ScheduledUrl> head = Peek();
  if (head.has_value()) shards_[ShardOf(head->url.site)].PopEntry();
  return head;
}

std::optional<ScheduledUrl> ShardedFrontier::Peek() {
  std::optional<CollUrls::Entry> best;
  for (CollUrls& shard : shards_) {
    std::optional<CollUrls::Entry> head = shard.PeekEntry();
    if (head.has_value() && (!best.has_value() || Earlier(*head, *best))) {
      best = head;
    }
  }
  if (!best.has_value()) return std::nullopt;
  return ScheduledUrl{best->url, best->when};
}

std::size_t ShardedFrontier::size() const {
  std::size_t total = 0;
  for (const CollUrls& shard : shards_) total += shard.size();
  return total;
}

ShardedFrontier::SlotPlan ShardedFrontier::PlanSlots(double start,
                                                     double horizon,
                                                     double step,
                                                     ThreadPool* threads) {
  SlotPlan plan;
  plan.end_time = start;
  if (!(step > 0.0) || start >= horizon) return plan;

  // Each consumed candidate advances the slot clock by `step`, so a
  // batch can never hold more than this many fetches — the per-shard
  // extraction bound.
  const double cap = (horizon - start) / step + 2.0;
  const std::size_t max_slots =
      cap < 1e18 ? static_cast<std::size_t>(cap)
                 : std::numeric_limits<std::size_t>::max();

  // Stage 1: per-shard candidate extraction, shard-parallel. Each task
  // touches only its own heap and its own output vector; the pops come
  // out sorted by (when, seq) because each shard heap is one CollUrls.
  const std::size_t num_shards = shards_.size();
  std::vector<std::vector<CollUrls::Entry>> extracted(num_shards);
  auto extract = [this, horizon, max_slots, &extracted](std::size_t s) {
    std::vector<CollUrls::Entry>& out = extracted[s];
    while (out.size() < max_slots) {
      auto head = shards_[s].PeekEntry();
      if (!head.has_value() || head->when >= horizon) break;
      out.push_back(*shards_[s].PopEntry());
    }
  };
  std::vector<std::size_t> busy;
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (!shards_[s].empty()) busy.push_back(s);
  }
  if (threads != nullptr) {
    threads->RunForIndices(busy, extract);
  } else {
    for (std::size_t s : busy) extract(s);
  }

  // Stage 2: deterministic tournament merge driving the slot clock —
  // the serial CollUrls plan loop, with the global (when, seq) order
  // reassembled from the shard heads in O(log N) per slot.
  double t = start;
  MergeTree merge(extracted);
  while (t < horizon) {
    const uint32_t best = merge.winner();
    if (best == MergeTree::kNone) {
      t = horizon;  // nothing scheduled before the horizon: idle to it
      break;
    }
    const CollUrls::Entry& head = merge.head(best);
    if (head.when > t) {
      t = head.when;  // idle to the next due URL (spare capacity)
      continue;
    }
    plan.slots.push_back(ScheduledUrl{head.url, t});
    plan.owner.push_back(best);
    merge.advance(best);
    t += step;  // constant crawl speed: one fetch per slot
  }
  plan.end_time = t;

  // Stage 3: restore extracted-but-unplanned candidates with their
  // original keys, so the frontier state equals "only the planned URLs
  // were popped".
  for (std::size_t s = 0; s < num_shards; ++s) {
    for (std::size_t i = merge.cursor(s); i < extracted[s].size(); ++i) {
      const CollUrls::Entry& e = extracted[s][i];
      shards_[s].ScheduleAt(e.url, e.when, e.seq);
    }
  }
  return plan;
}

}  // namespace webevo::crawler
