#include "crawler/sharded_frontier.h"

#include <algorithm>

namespace webevo::crawler {
namespace {

// The one definition of the global pop order — earliest `when`, ties
// broken by the global sequence number (the inverse of CollUrls::Later)
// — shared by Pop/Peek and PlanSlots so the two can never drift apart
// and break the bit-identical contract.
bool Earlier(const CollUrls::Entry& a, const CollUrls::Entry& b) {
  if (a.when != b.when) return a.when < b.when;
  return a.seq < b.seq;
}

// Every shard's head entry, nullopt for an empty shard.
std::vector<std::optional<CollUrls::Entry>> Heads(
    std::vector<CollUrls>& shards) {
  std::vector<std::optional<CollUrls::Entry>> heads;
  heads.reserve(shards.size());
  for (CollUrls& shard : shards) heads.push_back(shard.PeekEntry());
  return heads;
}

// Index of the earliest of the shard heads, or heads.size() when every
// shard is empty.
std::size_t EarliestHead(
    const std::vector<std::optional<CollUrls::Entry>>& heads) {
  std::size_t best = heads.size();
  for (std::size_t s = 0; s < heads.size(); ++s) {
    if (heads[s].has_value() &&
        (best == heads.size() || Earlier(*heads[s], *heads[best]))) {
      best = s;
    }
  }
  return best;
}

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
  const std::vector<std::optional<CollUrls::Entry>> heads = Heads(shards_);
  const std::size_t best = EarliestHead(heads);
  if (best == heads.size()) return std::nullopt;
  return ScheduledUrl{heads[best]->url, heads[best]->when};
}

std::size_t ShardedFrontier::size() const {
  std::size_t total = 0;
  for (const CollUrls& shard : shards_) total += shard.size();
  return total;
}

ShardedFrontier::SlotPlan ShardedFrontier::PlanSlots(double start,
                                                     double horizon,
                                                     double step) {
  SlotPlan plan;
  plan.end_time = start;
  if (!(step > 0.0) || start >= horizon) return plan;

  // The serial CollUrls plan loop over the global (when, seq) order:
  // the earliest shard head either idles the clock forward or takes
  // the slot, and only the shard it came from re-reads its head.
  std::vector<std::optional<CollUrls::Entry>> heads = Heads(shards_);
  double t = start;
  while (t < horizon) {
    const std::size_t best = EarliestHead(heads);
    if (best == heads.size() || heads[best]->when >= horizon) {
      t = horizon;  // nothing due before the horizon: idle to it
      break;
    }
    const CollUrls::Entry& head = *heads[best];
    if (head.when > t) {
      t = head.when;  // idle to the next due URL
      continue;
    }
    plan.slots.push_back(ScheduledUrl{head.url, t});
    shards_[best].PopEntry();
    heads[best] = shards_[best].PeekEntry();
    t += step;  // constant crawl speed: one fetch per slot
  }
  plan.end_time = t;
  return plan;
}

}  // namespace webevo::crawler
