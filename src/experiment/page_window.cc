#include "experiment/page_window.h"

#include <algorithm>

namespace webevo::experiment {

WindowVisit PageWindow::Visit(simweb::SimulatedWeb& web, double t) {
  return Visit(
      web.site_size(site_),
      [&web, t](const simweb::Url& url) {
        return web.Fetch(url, t, /*latency_days=*/nullptr,
                         simweb::SimulatedWeb::LinkScope::kOwnSite);
      });
}

WindowVisit PageWindow::Visit(uint32_t site_size, const FetchFn& fetch) {
  WindowVisit visit;
  if (marks_.size() < site_size) marks_.resize(site_size);
  ++stamp_;
  extra_queued_.clear();

  // The BFS queue: frontier[head] is the next URL to fetch.
  std::vector<simweb::Url> frontier;
  frontier.reserve(site_size);
  visit.pages.reserve(std::min<std::size_t>(window_size_, site_size));
  const simweb::Url root{site_, 0, 0};
  Enqueue(root);
  frontier.push_back(root);

  for (std::size_t head = 0;
       head < frontier.size() && visit.pages.size() < window_size_; ++head) {
    const simweb::Url url = frontier[head];
    ++total_fetches_;
    auto result = fetch(url);
    if (!result.ok()) continue;  // vanished between discovery and fetch

    Observation obs;
    obs.url = url;
    obs.page = result->page;
    Sight(url, result->checksum, &obs);
    visit.pages.push_back(obs);

    for (const simweb::Url& link : result->links) {
      // Windows are per-site: the paper crawled each selected site's own
      // pages; cross-site links were used only for site selection.
      if (link.site != site_) continue;
      if (Enqueue(link)) frontier.push_back(link);
    }
  }
  return visit;
}

bool PageWindow::Enqueue(const simweb::Url& url) {
  if (url.slot < marks_.size()) {
    SlotMark& mark = marks_[url.slot];
    if (mark.queued != stamp_) {
      mark.queued = stamp_;
      mark.queued_incarnation = url.incarnation;
      return true;
    }
    if (mark.queued_incarnation == url.incarnation) return false;
  }
  return extra_queued_.insert(url).second;
}

void PageWindow::Sight(const simweb::Url& url, const Checksum128& sum,
                       Observation* obs) {
  if (url.slot < marks_.size() &&
      marks_[url.slot].queued_incarnation == url.incarnation) {
    SlotMark& mark = marks_[url.slot];
    const bool known = mark.sighted && mark.incarnation == url.incarnation;
    obs->first_sighting = !known;
    obs->changed = known && !(mark.checksum == sum);
    mark.sighted = true;
    mark.incarnation = url.incarnation;
    mark.checksum = sum;
    return;
  }
  auto [it, first] = extra_checksums_.try_emplace(url, sum);
  obs->first_sighting = first;
  obs->changed = !first && !(it->second == sum);
  it->second = sum;
}

}  // namespace webevo::experiment
