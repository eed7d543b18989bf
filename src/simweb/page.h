#ifndef WEBEVO_SIMWEB_PAGE_H_
#define WEBEVO_SIMWEB_PAGE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "simweb/url.h"
#include "util/hash.h"

namespace webevo::simweb {

/// Stable identifier of one page for its whole life. PageIds are never
/// reused; a slot's successive occupants get fresh ids (and fresh URLs).
///
/// A PageId packs the page's identity (site, slot, incarnation) into 64
/// bits, so it is a pure function of the URL rather than of creation
/// order. That makes ids — and everything derived from them, such as
/// synthetic page bodies and checksums — bit-identical no matter how
/// many crawl shards observe the web concurrently or in what order
/// pages happen to be materialised.
using PageId = uint64_t;

inline constexpr PageId kInvalidPage = std::numeric_limits<PageId>::max();

inline constexpr int kPageIdSiteBits = 24;
inline constexpr int kPageIdSlotBits = 20;
inline constexpr int kPageIdIncarnationBits = 20;
/// Hard structural caps implied by the packing (~16M sites, ~1M slots
/// per site, ~1M successive occupants per slot); WebConfig::Validate
/// enforces the site and slot caps, and a simulated page dying every
/// day would take ~2,800 years of virtual time to overflow the
/// incarnation field.
inline constexpr uint32_t kMaxSites = 1u << kPageIdSiteBits;
inline constexpr uint32_t kMaxSlotsPerSite = 1u << kPageIdSlotBits;
inline constexpr uint32_t kMaxIncarnationsPerSlot = 1u
                                                    << kPageIdIncarnationBits;

constexpr PageId MakePageId(uint32_t site, uint32_t slot,
                            uint32_t incarnation) {
  return (static_cast<PageId>(site)
          << (kPageIdSlotBits + kPageIdIncarnationBits)) |
         (static_cast<PageId>(slot) << kPageIdIncarnationBits) |
         static_cast<PageId>(incarnation);
}

constexpr uint32_t PageIdSite(PageId id) {
  return static_cast<uint32_t>(id >>
                               (kPageIdSlotBits + kPageIdIncarnationBits));
}

constexpr uint32_t PageIdSlot(PageId id) {
  return static_cast<uint32_t>(id >> kPageIdIncarnationBits) &
         (kMaxSlotsPerSite - 1);
}

constexpr uint32_t PageIdIncarnation(PageId id) {
  return static_cast<uint32_t>(id) & (kMaxIncarnationsPerSlot - 1);
}

constexpr PageId PageIdOf(const Url& url) {
  return MakePageId(url.site, url.slot, url.incarnation);
}

/// What a crawler gets back from a successful fetch: the page content
/// digest (what the paper's UpdateModule records to detect changes) and
/// the out-links (what feeds AllUrls).
struct FetchResult {
  Url url;
  PageId page = kInvalidPage;
  /// Content version; bumps by one on every change event of the page's
  /// Poisson change process. The crawler must not peek at this directly
  /// (a real crawler can't); it is used by tests and oracle-based
  /// evaluation. Change detection uses `checksum`.
  uint64_t version = 0;
  /// The body `checksum` digests, named when the fetch resolves
  /// (SimulatedWeb::Resolve): PageBody(body_page, body_version), or
  /// with `trap_body` the shared body every minted trap URL of
  /// url.site serves. Usually the fetched page itself, but mirror
  /// members and resurrected pages alias to their canonical original.
  PageId body_page = kInvalidPage;
  uint64_t body_version = 0;
  bool trap_body = false;
  /// The digest of that body. A resolved fetch leaves it zero until
  /// SimulatedWeb::DigestBodies fills it; Fetch returns it filled.
  Checksum128 checksum;
  double fetched_at = 0.0;
  /// Time of the page's most recent change (its birth time if it has
  /// never changed) — the Last-Modified header most 1999-era servers
  /// sent, which the richer estimators of [CGM99a] exploit.
  double last_modified = 0.0;
  std::vector<Url> links;
};

}  // namespace webevo::simweb

#endif  // WEBEVO_SIMWEB_PAGE_H_
