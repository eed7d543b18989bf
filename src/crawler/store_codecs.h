#ifndef WEBEVO_CRAWLER_STORE_CODECS_H_
#define WEBEVO_CRAWLER_STORE_CODECS_H_

#include <cassert>
#include <charconv>
#include <string>
#include <string_view>
#include <system_error>

#include "crawler/all_urls.h"
#include "crawler/collection.h"
#include "util/record_line.h"

namespace webevo::crawler {

/// Record codecs for the paged RecordStore backend: each record type
/// round-trips through a compact text form written by the one record
/// formatter (util/record_line.h), doubles as "%.17g" like every
/// checkpoint format, so the paged store's record bytes carry exactly
/// the state the checkpoint would. Decoding reads only bytes this
/// codec wrote, so it parses them with std::from_chars instead of the
/// checkpoint readers' istreams.
///
/// These encodings are a private storage detail — the checkpoint wire
/// formats in snapshot.cc remain the sole durable contract.

namespace codec_internal {

/// Walks the space-separated fields of an encoded record.
class FieldReader {
 public:
  explicit FieldReader(std::string_view bytes)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  template <typename T>
  T Next() {
    if (p_ != end_ && *p_ == ' ') ++p_;
    T v{};
    const std::from_chars_result r = std::from_chars(p_, end_, v);
    ok_ = ok_ && r.ec == std::errc();
    p_ = r.ptr;
    return v;
  }

  /// Every field parsed and nothing left over.
  bool ok() const { return ok_ && p_ == end_; }

 private:
  const char* p_;
  const char* end_;
  bool ok_ = true;
};

}  // namespace codec_internal

struct CollectionEntryCodec {
  static std::string Encode(const CollectionEntry& e) {
    RecordLine line;
    line.Start(e.url.site, e.url.slot, e.url.incarnation, e.page, e.version,
               e.checksum.lo, e.checksum.hi, e.crawled_at, e.importance,
               e.links.size());
    for (const simweb::Url& link : e.links) {
      line.Add(link.site, link.slot, link.incarnation);
    }
    return std::string(line.view());
  }

  static CollectionEntry Decode(const std::string& bytes) {
    codec_internal::FieldReader in(bytes);
    CollectionEntry e;
    e.url.site = in.Next<uint32_t>();
    e.url.slot = in.Next<uint32_t>();
    e.url.incarnation = in.Next<uint32_t>();
    e.page = in.Next<simweb::PageId>();
    e.version = in.Next<uint64_t>();
    e.checksum.lo = in.Next<uint64_t>();
    e.checksum.hi = in.Next<uint64_t>();
    e.crawled_at = in.Next<double>();
    e.importance = in.Next<double>();
    e.links.resize(in.Next<std::size_t>());
    for (simweb::Url& link : e.links) {
      link.site = in.Next<uint32_t>();
      link.slot = in.Next<uint32_t>();
      link.incarnation = in.Next<uint32_t>();
    }
    assert(in.ok() && "corrupt paged CollectionEntry record");
    return e;
  }
};

struct UrlInfoCodec {
  static std::string Encode(const AllUrls::UrlInfo& info) {
    RecordLine line;
    line.Start(info.first_seen, info.in_links, info.dead);
    return std::string(line.view());
  }

  static AllUrls::UrlInfo Decode(const std::string& bytes) {
    codec_internal::FieldReader in(bytes);
    AllUrls::UrlInfo info;
    info.first_seen = in.Next<double>();
    info.in_links = in.Next<uint64_t>();
    info.dead = in.Next<int>() != 0;
    assert(in.ok() && "corrupt paged UrlInfo record");
    return info;
  }
};

}  // namespace webevo::crawler

#endif  // WEBEVO_CRAWLER_STORE_CODECS_H_
