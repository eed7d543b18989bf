#ifndef WEBEVO_SIMWEB_URL_H_
#define WEBEVO_SIMWEB_URL_H_

#include <cstdint>
#include <functional>
#include <string>

#include "util/hash.h"

namespace webevo::simweb {

/// Address of a page in the simulated web.
///
/// A site is a fixed set of page *slots* arranged as a navigation tree
/// (slot 0 is the root). When the page occupying a slot dies, a new page
/// with a fresh URL is created in the same slot; `incarnation` counts
/// these generations, so a URL uniquely identifies one page for its whole
/// life and fetching a stale URL yields NotFound — exactly the behaviour
/// a real crawler sees when a page disappears and a new one replaces it.
struct Url {
  uint32_t site = 0;
  uint32_t slot = 0;
  uint32_t incarnation = 0;

  bool operator==(const Url&) const = default;

  /// Renders e.g. "site42/p7_v3" for logs and examples.
  std::string ToString() const {
    return "site" + std::to_string(site) + "/p" + std::to_string(slot) +
           "_v" + std::to_string(incarnation);
  }
};

/// Hash functor so Url can key unordered containers.
struct UrlHash {
  size_t operator()(const Url& u) const {
    uint64_t h = HashCombine(u.site, u.slot);
    return static_cast<size_t>(HashCombine(h, u.incarnation));
  }
};

/// The one canonical URL order — ascending (site, slot, incarnation).
/// Everything that must be bit-identical across shard counts (eviction
/// tie-breaks, snapshot record order, ranking walks, rebalance sums)
/// sorts with this single definition.
struct UrlIdentityLess {
  bool operator()(const Url& a, const Url& b) const {
    if (a.site != b.site) return a.site < b.site;
    if (a.slot != b.slot) return a.slot < b.slot;
    return a.incarnation < b.incarnation;
  }
};

/// An exact integer key over all 96 bits of a URL, ordered as
/// UrlIdentityLess orders URLs: site, then slot, then incarnation.
/// Sorting, merging and searching flat arrays of keys replaces hash
/// maps and field-by-field comparisons on the housekeeping paths.
using UrlKey = unsigned __int128;

inline UrlKey KeyOf(const Url& url) {
  return static_cast<UrlKey>(url.site) << 64 |
         static_cast<UrlKey>(url.slot) << 32 | url.incarnation;
}

inline Url UrlOf(UrlKey key) {
  return Url{static_cast<uint32_t>(key >> 64),
             static_cast<uint32_t>(key >> 32), static_cast<uint32_t>(key)};
}

}  // namespace webevo::simweb

#endif  // WEBEVO_SIMWEB_URL_H_
