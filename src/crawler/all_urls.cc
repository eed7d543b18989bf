#include "crawler/all_urls.h"

#include <algorithm>
#include <utility>

#include "crawler/store_codecs.h"
#include "storage/paged_record_store.h"

namespace webevo::crawler {

AllUrls::AllUrls(int num_shards, const storage::StoreOptions& options,
                 const std::string& name) {
  const std::size_t n = static_cast<std::size_t>(std::max(1, num_shards));
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (options.backend == storage::StoreOptions::Backend::kPaged) {
      shards_.push_back(
          std::make_unique<
              storage::PagedRecordStore<UrlInfo, UrlInfoCodec>>(
              options, name + "-shard" + std::to_string(i)));
    } else {
      shards_.push_back(
          std::make_unique<storage::MapRecordStore<UrlInfo>>());
    }
  }
}

bool AllUrls::Add(const simweb::Url& url, double time) {
  auto& shard = *shards_[ShardOf(url.site)];
  if (shard.Contains(url)) return false;
  UrlInfo info;
  info.first_seen = time;
  shard.Put(url, std::move(info));
  return true;
}

const AllUrls::UrlInfo& AllUrls::NoteInLink(const simweb::Url& url,
                                            double time) {
  auto& shard = *shards_[ShardOf(url.site)];
  UrlInfo* info = shard.FindMutable(url);
  if (info == nullptr) {
    UrlInfo fresh;
    fresh.first_seen = time;
    fresh.in_links = 1;
    return *shard.Put(url, std::move(fresh));
  }
  ++info->in_links;
  return *info;
}

Status AllUrls::MarkDead(const simweb::Url& url) {
  UrlInfo* info = shards_[ShardOf(url.site)]->FindMutable(url);
  if (info == nullptr) return Status::NotFound("unknown url");
  info->dead = true;
  return Status::Ok();
}

const AllUrls::UrlInfo* AllUrls::Find(const simweb::Url& url) const {
  return shards_[ShardOf(url.site)]->Find(url);
}

std::size_t AllUrls::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->size();
  return total;
}

const simweb::Url* AllUrls::FingerprintOwner(const Checksum128& fp) const {
  auto it = fingerprints_.find(fp);
  return it == fingerprints_.end() ? nullptr : &it->second;
}

bool AllUrls::ClaimFingerprint(const Checksum128& fp,
                               const simweb::Url& url) {
  return fingerprints_.emplace(fp, url).second;
}

void AllUrls::ReassignFingerprint(const Checksum128& fp,
                                  const simweb::Url& url) {
  fingerprints_[fp] = url;
}

std::vector<std::pair<Checksum128, simweb::Url>>
AllUrls::SortedFingerprints() const {
  std::vector<std::pair<Checksum128, simweb::Url>> out(
      fingerprints_.begin(), fingerprints_.end());
  std::sort(out.begin(), out.end(),
            [](const std::pair<Checksum128, simweb::Url>& a,
               const std::pair<Checksum128, simweb::Url>& b) {
              if (a.first.hi != b.first.hi) return a.first.hi < b.first.hi;
              return a.first.lo < b.first.lo;
            });
  return out;
}

void AllUrls::Restore(const simweb::Url& url, const UrlInfo& info) {
  shards_[ShardOf(url.site)]->Put(url, UrlInfo(info));
}

void AllUrls::Clear() {
  for (auto& shard : shards_) shard->Clear();
  fingerprints_.clear();
}

void AllUrls::Flush() {
  for (auto& shard : shards_) shard->Flush();
}

void AllUrls::EnableDirtyTracking() {
  for (auto& shard : shards_) shard->EnableDirtyTracking();
}

void AllUrls::AppendDirty(DirtySet* out) const {
  for (const auto& shard : shards_) {
    out->insert(shard->dirty().begin(), shard->dirty().end());
  }
}

void AllUrls::ClearDirty() {
  for (auto& shard : shards_) shard->ClearDirty();
}

}  // namespace webevo::crawler
