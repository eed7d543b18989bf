#ifndef WEBEVO_STORAGE_PAGE_FILE_H_
#define WEBEVO_STORAGE_PAGE_FILE_H_

#include <cstdint>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace webevo::storage {

/// A scratch file of fixed-size slotted pages with an LRU write-back
/// page cache.
///
/// A page's bytes hold only its records' cells, packed from the page's
/// end downward. Each page's slot directory (offset and length per
/// slot) lives in memory: the file is never reopened, so nothing would
/// read an on-page copy. A slot is still charged kSlotBytes of its
/// page, as an on-page directory entry would be, which bounds a page's
/// slot count by its size. Erasing a record tombstones its slot without
/// touching the page; the slot index is reused by a later insert, and
/// the page is compacted in place when its contiguous gap is too small
/// for a fit that its total free bytes allow.
///
/// The file is *scratch* storage: the directories and free-space
/// accounting live in memory for the file's lifetime, records are
/// durable only through checkpoints, and the file is removed by the
/// destructor. There is deliberately no reopen path — recovery is the
/// checkpoint layer's job (docs/STORAGE.md).
///
/// I/O failures are not recoverable here: a file that cannot be
/// created, or a page read or write-back that fails or comes up short,
/// stops the process with a message naming the file (Fail), in every
/// build type. Carrying on would silently lose records.
///
/// Not thread-safe; callers serialise access (each crawler shard owns
/// its stores, and cross-shard use happens only in serial phases).
class PageFile {
 public:
  /// A record's address: page number + slot index within the page.
  struct Loc {
    uint64_t page = 0;
    uint16_t slot = 0;
  };

  struct Stats {
    std::size_t pages = 0;
    std::size_t cached_pages = 0;
    std::size_t page_evictions = 0;    ///< dirty pages written back
    std::size_t page_reads = 0;        ///< pages read back from the file
    std::size_t page_compactions = 0;  ///< in-place page compactions
    std::size_t live_records = 0;
    std::size_t live_bytes = 0;
  };

  /// Creates (truncates) the backing file. `cache_pages` is clamped to
  /// at least 1; `page_bytes` must lie in [64, 65534].
  PageFile(std::string path, std::size_t page_bytes,
           std::size_t cache_pages);
  ~PageFile();

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Largest record a page of `page_bytes` can hold.
  static std::size_t MaxRecordBytes(std::size_t page_bytes);

  /// Stores `bytes` in the first page that fits (first-fit over page
  /// numbers, allocating a new page at the end when none fits). The
  /// record must satisfy bytes.size() <= MaxRecordBytes(page_bytes).
  Loc Insert(std::string_view bytes);

  /// The record at `loc` (which must be live). The view points into
  /// the page cache and is valid until the next call on this file.
  std::string_view Read(const Loc& loc);

  /// Tombstones the record at `loc` (which must be live). Touches only
  /// the in-memory directory: the dead cell is reclaimed when its page
  /// is next compacted.
  void Erase(const Loc& loc);

  /// Drops every page and truncates the file.
  void Clear();

  /// Prints "PageFile <path>: <what>" to stderr and aborts.
  [[noreturn]] void Fail(const std::string& what) const;

  const std::string& path() const { return path_; }
  std::size_t page_bytes() const { return page_bytes_; }
  Stats stats() const;

  /// A collision-free scratch-file path under `dir` (or "." when
  /// empty): name + process-wide counter suffix.
  static std::string UniquePath(const std::string& dir,
                                const std::string& name);

 private:
  struct Slot {
    uint16_t off = 0xFFFF;  // 0xFFFF = tombstone / never used
    uint16_t len = 0;
  };
  struct PageMeta {
    std::vector<Slot> slots;
    uint16_t cell_floor = 0;   // lowest cell offset (cells end at page_bytes)
    uint32_t live_bytes = 0;   // sum of live cell lengths
    uint16_t live_slots = 0;
    bool on_disk = false;      // written back at least once
  };

  // Free bytes available to a *new* record on the page (accounts for
  // the directory entry a fresh slot would need).
  std::size_t FreeBytes(const PageMeta& meta) const;
  // Contiguous gap between the charged directory and the lowest cell.
  std::size_t Gap(const PageMeta& meta) const;

  std::vector<char>& PageBuffer(uint64_t page);  // faults in + pins via LRU
  void EvictIfNeeded(uint64_t except_page);
  void WriteBack(uint64_t page, const std::vector<char>& buf);
  void CompactPage(PageMeta& meta, std::vector<char>& buf);

  std::string path_;
  std::size_t page_bytes_;
  std::size_t cache_cap_;
  int fd_ = -1;

  std::vector<PageMeta> pages_;
  struct CacheEntry {
    std::vector<char> buf;
    bool dirty = false;
    std::list<uint64_t>::iterator lru_it;
  };
  std::unordered_map<uint64_t, CacheEntry> cache_;
  std::list<uint64_t> lru_;  // front = most recent
  std::vector<char> compact_buf_;  // CompactPage's scratch page
  std::size_t page_evictions_ = 0;
  std::size_t page_reads_ = 0;
  std::size_t page_compactions_ = 0;
};

}  // namespace webevo::storage

#endif  // WEBEVO_STORAGE_PAGE_FILE_H_
