#ifndef WEBEVO_UTIL_SORTED_RUNS_H_
#define WEBEVO_UTIL_SORTED_RUNS_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace webevo {

/// Merges the consecutive sorted runs of `items` into one range sorted
/// by `less`. Run i spans [bounds[i], bounds[i + 1]); `bounds` starts at
/// 0 and ends at items.size(). Neighbouring runs merge pairwise, so k
/// runs take ceil(log2(k)) passes. The housekeeping walks sort each
/// shard's records on that shard's worker and merge them here, on the
/// calling thread, into the canonical order their sums run in.
template <typename T, typename Less>
void MergeSortedRuns(std::vector<T>& items, std::vector<std::size_t> bounds,
                     Less less) {
  while (bounds.size() > 2) {
    std::vector<std::size_t> merged;
    for (std::size_t i = 0; i + 1 < bounds.size(); i += 2) {
      merged.push_back(bounds[i]);
      if (i + 2 < bounds.size()) {
        std::inplace_merge(items.begin() + bounds[i],
                           items.begin() + bounds[i + 1],
                           items.begin() + bounds[i + 2], less);
      }
    }
    merged.push_back(bounds.back());
    bounds = std::move(merged);
  }
}

}  // namespace webevo

#endif  // WEBEVO_UTIL_SORTED_RUNS_H_
