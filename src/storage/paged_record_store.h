#ifndef WEBEVO_STORAGE_PAGED_RECORD_STORE_H_
#define WEBEVO_STORAGE_PAGED_RECORD_STORE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/page_file.h"
#include "storage/record_store.h"

namespace webevo::storage {

/// The disk-backed RecordStore: encoded records live in a PageFile, an
/// in-memory canonical index maps every key to its page location, and
/// a decoded-record *overlay* (an unordered_map, so node-stable)
/// materialises records on access, giving callers the same
/// reference-stability contract as the memory backend.
///
/// Mutations (Put, FindMutable writes) land in the overlay, and a
/// record that turns dirty joins the *flush list*. Flush() — the
/// barrier hook — writes back exactly the records on that list, in
/// canonical key order, so page contents are deterministic for a
/// deterministic mutation stream and a barrier costs what its batch
/// changed. Full-table walks (ForEach*) materialise every record into
/// the overlay; the overlay is trimmed back to `overlay_entries` clean
/// records at the next Flush(). Oversized records (beyond a page's cell
/// capacity) are kept pinned, and dirty, in the overlay rather than
/// paged.
///
/// `Codec` must provide:
///     static void Encode(const Record&, std::string* out);  // overwrites
///     static bool Decode(std::string_view bytes, Record* out);
/// Decode returns false on bytes Encode cannot have written; the store
/// then stops the process (PageFile::Fail), as for any other lost page.
template <typename Record, typename Codec>
class PagedRecordStore final : public RecordStore<Record> {
 public:
  using typename RecordStore<Record>::ForEachFn;

  PagedRecordStore(const StoreOptions& options, const std::string& name)
      : file_(PageFile::UniquePath(options.dir, name),
              options.page_bytes, options.cache_pages),
        clean_cap_(options.overlay_entries) {}

  Record* Put(const simweb::Url& url, Record&& record) override {
    this->MarkDirty(url);
    index_.try_emplace(url);  // Placement::kUnplaced when new
    OverlayEntry& oe = overlay_[url];
    oe.record = std::move(record);
    oe.last_use = ++use_clock_;
    ToFlush(url, oe);
    return &oe.record;
  }

  bool Erase(const simweb::Url& url) override {
    auto it = index_.find(url);
    if (it == index_.end()) return false;
    if (it->second.placement == Placement::kPaged) {
      file_.Erase(it->second.loc);
    }
    index_.erase(it);
    overlay_.erase(url);  // a flush-list entry for it is skipped
    this->MarkDirty(url);
    return true;
  }

  const Record* Find(const simweb::Url& url) const override {
    OverlayEntry* oe = Materialise(url);
    return oe == nullptr ? nullptr : &oe->record;
  }

  Record* FindMutable(const simweb::Url& url) override {
    OverlayEntry* oe = Materialise(url);
    if (oe == nullptr) return nullptr;
    this->MarkDirty(url);
    ToFlush(url, *oe);
    return &oe->record;
  }

  bool Contains(const simweb::Url& url) const override {
    return index_.count(url) > 0;
  }

  std::size_t size() const override { return index_.size(); }

  void Clear() override {
    index_.clear();
    overlay_.clear();
    flush_list_.clear();
    file_.Clear();
  }

  /// Writes the flush list back to pages, then trims the clean overlay
  /// down to `overlay_entries` records (least recently used first).
  /// Every listed record's old cell is released before any is placed,
  /// so first-fit compacts a page at most once per Flush; each record
  /// is encoded only as it is placed.
  void Flush() override {
    std::sort(flush_list_.begin(), flush_list_.end(),
              simweb::UrlIdentityLess{});
    flush_list_.erase(std::unique(flush_list_.begin(), flush_list_.end()),
                      flush_list_.end());
    for (const simweb::Url& url : flush_list_) {
      auto it = index_.find(url);
      if (it == index_.end()) continue;  // erased since it turned dirty
      OverlayEntry& oe = overlay_.find(url)->second;  // dirty, so resident
      IndexEntry& ie = it->second;
      if (ie.placement == Placement::kPaged) file_.Erase(ie.loc);
      ie.placement = Placement::kUnplaced;
      placing_.push_back({&it->first, &ie, &oe});
    }
    flush_list_.clear();
    for (const Placing& p : placing_) {
      Codec::Encode(p.overlay->record, &encoded_);
      if (encoded_.size() > PageFile::MaxRecordBytes(file_.page_bytes())) {
        // Stays pinned in the overlay, and on the list until it fits.
        p.index->placement = Placement::kOversize;
        flush_list_.push_back(*p.url);
        continue;
      }
      p.index->loc = file_.Insert(encoded_);
      p.index->placement = Placement::kPaged;
      p.overlay->dirty = false;
    }
    placing_.clear();
    TrimOverlay();
  }

  /// Walks the index, so the visit is in canonical (site, slot,
  /// incarnation) order: one order ForEach may visit in, and the
  /// cheapest here.
  void ForEach(const ForEachFn& fn) const override {
    for (const auto& [url, ie] : index_) fn(url, Resident(url, ie).record);
  }

  StoreStats store_stats() const override {
    StoreStats s;
    const PageFile::Stats fs = file_.stats();
    s.pages = fs.pages;
    s.cached_pages = fs.cached_pages;
    s.page_evictions = fs.page_evictions;
    s.page_reads = fs.page_reads;
    s.page_compactions = fs.page_compactions;
    s.overlay_records = overlay_.size();
    for (const auto& [url, oe] : overlay_) {
      (void)url;
      if (oe.dirty) ++s.dirty_records;
    }
    return s;
  }

 private:
  enum class Placement { kUnplaced, kPaged, kOversize };
  struct IndexEntry {
    PageFile::Loc loc;
    Placement placement = Placement::kUnplaced;
  };
  struct OverlayEntry {
    Record record;
    bool dirty = false;  // on the flush list
    uint64_t last_use = 0;
  };
  using Overlay =
      std::unordered_map<simweb::Url, OverlayEntry, simweb::UrlHash>;
  struct Placing {
    const simweb::Url* url;
    IndexEntry* index;
    OverlayEntry* overlay;
  };

  void ToFlush(const simweb::Url& url, OverlayEntry& oe) {
    if (oe.dirty) return;
    oe.dirty = true;
    flush_list_.push_back(url);
  }

  OverlayEntry* Materialise(const simweb::Url& url) const {
    auto oit = overlay_.find(url);
    if (oit != overlay_.end()) {
      oit->second.last_use = ++use_clock_;
      return &oit->second;
    }
    auto it = index_.find(url);
    return it == index_.end() ? nullptr : &Resident(url, it->second);
  }

  // The overlay entry of an indexed key, decoded from its page when it
  // is not resident.
  OverlayEntry& Resident(const simweb::Url& url, const IndexEntry& ie) const {
    auto [oit, absent] = overlay_.try_emplace(url);
    // kUnplaced / kOversize entries always have an overlay record, so
    // an absent one is paged.
    if (absent && !Codec::Decode(file_.Read(ie.loc), &oit->second.record)) {
      file_.Fail("corrupt record at page " + std::to_string(ie.loc.page) +
                 " slot " + std::to_string(ie.loc.slot));
    }
    oit->second.last_use = ++use_clock_;
    return oit->second;
  }

  void TrimOverlay() {
    if (overlay_.size() <= clean_cap_) return;
    std::vector<std::pair<uint64_t, typename Overlay::iterator>> clean;
    clean.reserve(overlay_.size());
    for (auto it = overlay_.begin(); it != overlay_.end(); ++it) {
      if (!it->second.dirty) clean.emplace_back(it->second.last_use, it);
    }
    // Every clean record goes when dirty and pinned ones alone fill the
    // cap; otherwise the `excess` least recently used (use stamps are
    // unique, so selecting them is the same set as sorting).
    std::size_t excess = clean.size();
    if (overlay_.size() - clean.size() < clean_cap_) {
      excess = overlay_.size() - clean_cap_;
      std::nth_element(
          clean.begin(), clean.begin() + static_cast<std::ptrdiff_t>(excess),
          clean.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
    }
    for (std::size_t i = 0; i < excess; ++i) overlay_.erase(clean[i].second);
  }

  std::map<simweb::Url, IndexEntry, simweb::UrlIdentityLess> index_;
  mutable Overlay overlay_;
  mutable uint64_t use_clock_ = 0;
  mutable PageFile file_;
  std::size_t clean_cap_;
  /// Keys whose overlay record turned dirty since the last Flush (a key
  /// may repeat, or have been erased since).
  std::vector<simweb::Url> flush_list_;
  std::vector<Placing> placing_;  // Flush's scratch, kept for capacity
  std::string encoded_;           // Flush's encode buffer
};

}  // namespace webevo::storage

#endif  // WEBEVO_STORAGE_PAGED_RECORD_STORE_H_
