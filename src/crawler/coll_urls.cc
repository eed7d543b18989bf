#include "crawler/coll_urls.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace webevo::crawler {

void CollUrls::ScheduleAt(const simweb::Url& url, double when,
                          uint64_t seq) {
  live_[url] = LiveRef{seq, when};  // supersedes any previous entry
  heap_.push(Entry{when, seq, url});
}

void CollUrls::ScheduleFront(const simweb::Url& url) {
  // Front keys live far below any simulation time and *increase* per
  // insert, so successive front-inserts pop in FIFO order while still
  // preceding everything scheduled normally.
  front_when_ += 1e-6;
  Schedule(url, kFrontBase + front_when_);
}

Status CollUrls::Remove(const simweb::Url& url) {
  if (live_.erase(url) == 0) return Status::NotFound("url not queued");
  return Status::Ok();  // heap entry expires lazily
}

Status CollUrls::RemoveIfSeq(const simweb::Url& url, uint64_t seq) {
  auto it = live_.find(url);
  if (it == live_.end() || it->second.seq != seq) {
    return Status::NotFound("url not queued at that seq");
  }
  live_.erase(it);
  return Status::Ok();  // heap entry expires lazily
}

std::size_t CollUrls::RescheduleSiteNotBefore(uint32_t site,
                                              double floor) {
  std::vector<std::pair<simweb::Url, uint64_t>> moved;
  for (const auto& [url, ref] : live_) {
    if (url.site == site && ref.when < floor) {
      moved.emplace_back(url, ref.seq);
    }
  }
  for (const auto& [url, seq] : moved) ScheduleAt(url, floor, seq);
  return moved.size();
}

CollUrls::LiveMap::iterator CollUrls::SkipStale() {
  while (!heap_.empty()) {
    const Entry& top = heap_.top();
    auto it = live_.find(top.url);
    if (it != live_.end() && it->second.seq == top.seq &&
        it->second.when == top.when) {
      return it;
    }
    heap_.pop();
  }
  return live_.end();
}

std::optional<CollUrls::Entry> CollUrls::PopEntry() {
  const auto live = SkipStale();
  if (heap_.empty()) return std::nullopt;
  Entry top = heap_.top();
  heap_.pop();
  live_.erase(live);
  return top;
}

std::optional<CollUrls::Entry> CollUrls::PeekEntry() {
  SkipStale();
  if (heap_.empty()) return std::nullopt;
  return heap_.top();
}

std::optional<ScheduledUrl> CollUrls::Pop() {
  auto entry = PopEntry();
  if (!entry.has_value()) return std::nullopt;
  return ScheduledUrl{entry->url, entry->when};
}

std::optional<ScheduledUrl> CollUrls::Peek() {
  auto entry = PeekEntry();
  if (!entry.has_value()) return std::nullopt;
  return ScheduledUrl{entry->url, entry->when};
}

}  // namespace webevo::crawler
