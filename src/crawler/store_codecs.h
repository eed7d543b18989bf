#ifndef WEBEVO_CRAWLER_STORE_CODECS_H_
#define WEBEVO_CRAWLER_STORE_CODECS_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

#include "crawler/all_urls.h"
#include "crawler/collection.h"

namespace webevo::crawler {

/// Record codecs for the paged RecordStore backend. A record is its
/// fields' in-memory bytes, copied with std::memcpy at fixed widths in
/// a fixed order: the page file is process-private scratch that no
/// other process or build reads (docs/STORAGE.md), so it needs neither
/// a text form nor a byte order, and a double's bits (NaN payloads,
/// -0.0, subnormals) survive as they are. Decode returns false unless
/// a record's length matches what its fields declare: a UrlInfo's
/// fixed size, or a collection entry's link count.
///
/// These encodings are a private storage detail — the checkpoint wire
/// formats in snapshot.cc remain the sole durable contract.

namespace codec_internal {

template <typename T>
char* Put(char* p, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(p, &v, sizeof(T));
  return p + sizeof(T);
}

template <typename T>
const char* Get(const char* p, T* v) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(v, p, sizeof(T));
  return p + sizeof(T);
}

}  // namespace codec_internal

struct CollectionEntryCodec {
  // Links are copied as one array of (site, slot, incarnation) triples.
  static_assert(std::is_trivially_copyable_v<simweb::Url> &&
                sizeof(simweb::Url) == 3 * sizeof(uint32_t));
  /// url, page, version, checksum, crawled_at, importance, link count.
  static constexpr std::size_t kFixedBytes =
      sizeof(simweb::Url) + 4 * sizeof(uint64_t) + 2 * sizeof(double) +
      sizeof(uint32_t);

  static void Encode(const CollectionEntry& e, std::string* out) {
    using codec_internal::Put;
    const auto nlinks = static_cast<uint32_t>(e.links.size());
    out->resize(kFixedBytes + sizeof(simweb::Url) * nlinks);
    char* p = out->data();
    p = Put(p, e.url);
    p = Put(p, e.page);
    p = Put(p, e.version);
    p = Put(p, e.checksum.lo);
    p = Put(p, e.checksum.hi);
    p = Put(p, e.crawled_at);
    p = Put(p, e.importance);
    p = Put(p, nlinks);
    if (nlinks > 0) {
      std::memcpy(p, e.links.data(), sizeof(simweb::Url) * nlinks);
    }
  }

  static bool Decode(std::string_view bytes, CollectionEntry* e) {
    using codec_internal::Get;
    if (bytes.size() < kFixedBytes) return false;
    const char* p = bytes.data();
    p = Get(p, &e->url);
    p = Get(p, &e->page);
    p = Get(p, &e->version);
    p = Get(p, &e->checksum.lo);
    p = Get(p, &e->checksum.hi);
    p = Get(p, &e->crawled_at);
    p = Get(p, &e->importance);
    uint32_t nlinks = 0;
    p = Get(p, &nlinks);
    if (bytes.size() - kFixedBytes != uint64_t{sizeof(simweb::Url)} * nlinks) {
      return false;
    }
    e->links.resize(nlinks);
    if (nlinks > 0) {
      std::memcpy(e->links.data(), p, sizeof(simweb::Url) * nlinks);
    }
    return true;
  }
};

struct UrlInfoCodec {
  /// first_seen, in_links, dead.
  static constexpr std::size_t kBytes =
      sizeof(double) + sizeof(uint64_t) + sizeof(uint8_t);

  static void Encode(const AllUrls::UrlInfo& info, std::string* out) {
    using codec_internal::Put;
    out->resize(kBytes);
    char* p = out->data();
    p = Put(p, info.first_seen);
    p = Put(p, info.in_links);
    Put(p, static_cast<uint8_t>(info.dead ? 1 : 0));
  }

  static bool Decode(std::string_view bytes, AllUrls::UrlInfo* info) {
    using codec_internal::Get;
    if (bytes.size() != kBytes) return false;
    const char* p = bytes.data();
    p = Get(p, &info->first_seen);
    p = Get(p, &info->in_links);
    uint8_t dead = 0;
    Get(p, &dead);
    info->dead = dead != 0;
    return true;
  }
};

}  // namespace webevo::crawler

#endif  // WEBEVO_CRAWLER_STORE_CODECS_H_
