#ifndef WEBEVO_CRAWLER_SNAPSHOT_H_
#define WEBEVO_CRAWLER_SNAPSHOT_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "crawler/all_urls.h"
#include "crawler/collection.h"
#include "crawler/sharded_frontier.h"
#include "crawler/update_module.h"
#include "storage/delta_log.h"
#include "util/status.h"

namespace webevo::crawler {

class IncrementalCrawler;
class PeriodicCrawler;

/// Durable snapshots of the crawler's local state.
///
/// A crawler restart should resume from its stored collection rather
/// than recrawl the web from scratch — the local collection is the
/// asset the whole architecture exists to maintain. The format is a
/// versioned, line-oriented text format with an FNV-1a integrity
/// trailer, so truncated or corrupted snapshots are rejected rather
/// than silently loaded.
///
/// Every writer emits records in canonical (site, slot, incarnation)
/// order — never hash-map or shard order — so equal logical state
/// produces equal bytes at every shard count: the N=1 and N=8 runs of
/// one simulation snapshot to identical files.
///
/// Format (one record per line, space-separated):
///   webevo-collection 1 <capacity> <count>
///   E <site> <slot> <incarnation> <page> <version> <checksum.lo>
///     <checksum.hi> <crawled_at> <importance> <nlinks> [<s> <p> <i>]*
///   ... (count entries)
///   webevo-checksum <fnv64 of everything above>
///
/// AllUrls snapshots are analogous with `U` records carrying
/// (first_seen, in_links, dead).
///
/// UpdateModule snapshots (version 2) carry the estimator kind and the
/// page / site / probe-stream counts in the header, one `G` record with
/// the global scheduling state (Lagrange multiplier, proportional
/// normaliser, mean importance, rebalance count, frozen page count),
/// one `P` record per tracked page (visit history, flags, flattened
/// estimator state), one `S` record per site aggregate (site-level
/// statistics mode), and one `R` record per materialised per-site
/// probe RNG stream (its four xoshiro lanes).
///
/// ShardedFrontier snapshots carry the global counters (next sequence
/// number, front-insert offset) in the header and one `F` record per
/// queued URL with its exact (when, seq) key, ordered by seq — so a
/// restored frontier pops in exactly the order the checkpointed one
/// would have, revisit timing included.
///
/// Each store has one format, written by one writer over the records
/// its caller passes in (every record here; the dirty ones in a delta
/// segment, see CheckpointIncremental) and read by one reader through
/// RecordReader (util/text_snapshot.h). Any format error — a
/// malformed, missing or surplus record, a bad trailer, more records
/// than the declared capacity — is InvalidArgument.

/// Writes `collection` to `out`.
Status SaveCollection(const Collection& collection, std::ostream& out);

/// Reads a collection snapshot into `num_shards` stores (the snapshot
/// itself is shard-count agnostic). Fails with InvalidArgument on
/// format or integrity errors; the returned collection carries the
/// capacity stored in the snapshot.
StatusOr<Collection> LoadCollection(std::istream& in, int num_shards = 1);

/// Writes `all_urls` to `out`.
Status SaveAllUrls(const AllUrls& all_urls, std::ostream& out);

/// Reads an AllUrls snapshot into `num_shards` internal shards.
StatusOr<AllUrls> LoadAllUrls(std::istream& in, int num_shards = 1);

/// Writes `module`'s learned state (estimator statistics, per-page
/// visit history, rebalance outputs, per-site probe RNG streams) to
/// `out`. The paper's change-rate estimates are the incremental
/// crawler's slowest-won asset — a restart that drops them recrawls
/// near-blind for weeks.
Status SaveUpdateModule(const UpdateModule& module, std::ostream& out);

/// Restores a SaveUpdateModule snapshot into `module`, replacing its
/// learned state. `module` must have been constructed with the same
/// configuration (its shard count may differ — records re-route); the
/// estimator kind is validated against the header.
Status LoadUpdateModule(std::istream& in, UpdateModule* module);

/// Writes the frontier's scheduled times to `out`.
Status SaveFrontier(const ShardedFrontier& frontier, std::ostream& out);

/// Restores a frontier snapshot into `num_shards` shard heaps; the pop
/// order is bit-identical to the saved frontier's at any shard count.
StatusOr<ShardedFrontier> LoadFrontier(std::istream& in, int num_shards);

/// Convenience file wrappers.
Status SaveCollectionToFile(const Collection& collection,
                            const std::string& path);
StatusOr<Collection> LoadCollectionFromFile(const std::string& path);

/// --- Whole-crawler checkpoints --------------------------------------
///
/// SaveCrawler bundles *everything* a restart needs into one versioned
/// container file, so a restored crawler is bit-identical to one that
/// never stopped — not just the four snapshot streams, but the crawl
/// clock, housekeeping timers, batch counter, politeness state,
/// pending admissions and counters that the individual Save* calls
/// cannot see.
///
/// Container format (text):
///   webevo-crawler 1 <incremental|periodic> <nsections>
///   S <name> <length-bytes> <fnv64-of-bytes>     (nsections records)
///   webevo-checksum <fnv64 of the header lines>
///   <section bytes, concatenated in table order>
/// Each section is itself a trailer-framed snapshot stream; the table's
/// per-section length + checksum framing detects truncation and
/// corruption *before* any section is parsed, and every section is
/// additionally verified by its own trailer. Nothing may follow the
/// last section's bytes.
///
/// Incremental sections: meta (clock, timers, batch counter, counters
/// including the capacity-lease, failure and defense ledgers — meta
/// format v4), collection, allurls, update, frontier, polite (per-site
/// last-access), tracker (freshness series), pending (the in-flight
/// lease state: URLs admitted toward collection slots but not yet
/// crawled, merged canonically across the owner shards and re-split
/// on load), failure (circuit breakers and per-URL failure counts),
/// defense (the throttle machines and the fingerprint registry), and
/// optionally traffic (below) and — with include_web — web (the
/// simulated web's evolution state; see simweb/simulated_web.h).
/// Periodic sections: meta, collection-current [, collection-shadow],
/// bfs (BFS frontier in queue order), seen (cycle seen-set), polite,
/// tracker, failure (the cycle's re-queue counts) [, traffic] [, web].
/// Every other section is required on load, and each is read only at
/// the version its writer writes.
///
/// Every section is canonical — equal logical state produces equal
/// bytes at every shard count — so a checkpoint saved at N = 8 loads
/// at N = 1 (and vice versa), and two runs in the same state write
/// byte-identical files. Wall-clock engine phase timings are
/// deliberately *not* checkpointed (they are not reproducible) and
/// restart at zero after a restore. Traffic accounting is optional
/// (options.module_traffic): the per-*module* split is shard-layout
/// dependent, so the "traffic" section carries the pool-level
/// *aggregate* — absolute-day fetch histogram plus global counters, a
/// pure function of the fetch stream and therefore canonical — and a
/// restore folds it in as a carried-over baseline (the live modules
/// restart their own ledgers at zero).
///
/// Restores are staged: LoadCrawler parses and checks the container
/// and every section into flat record lists before touching
/// `crawler`, so a corrupt checkpoint never leaves it half-loaded;
/// only then does it empty the live stores in place (a paged backend
/// keeps its page files) and apply the records. The crawler must be
/// constructed against the same configuration (its crawl_parallelism
/// may differ) and, when the checkpoint carries a web section, a web
/// built from the same WebConfig.
struct CrawlerCheckpointOptions {
  /// Bundle the simulated web's evolution state. Required for
  /// bit-identical resume in a fresh process; skip only when the
  /// resuming crawler shares the saving process's live web object.
  bool include_web = true;
  /// Bundle the crawl-module pool's aggregate traffic accounting (the
  /// "traffic" section) so a resumed run's traffic report covers the
  /// whole crawl, not just the post-resume tail.
  bool module_traffic = false;
};

/// Writes a whole-crawler checkpoint. Fails with FailedPrecondition if
/// the engine is mid-batch (checkpoints are only taken at batch
/// boundaries, where every shard-owned structure is at rest).
Status SaveCrawler(const IncrementalCrawler& crawler, std::ostream& out,
                   const CrawlerCheckpointOptions& options = {});
Status SaveCrawler(const PeriodicCrawler& crawler, std::ostream& out,
                   const CrawlerCheckpointOptions& options = {});

/// Restores a checkpoint into a freshly constructed crawler (same
/// config; shard count free). Rejects kind mismatches, unknown
/// versions, truncated or corrupted sections with InvalidArgument.
Status LoadCrawler(std::istream& in, IncrementalCrawler* crawler);
Status LoadCrawler(std::istream& in, PeriodicCrawler* crawler);

/// The container format version in the header line.
inline constexpr int kCrawlerFormatVersion = 1;

/// A verified container: its kind, its id and its sections in table
/// order (find one with storage::FindSection).
struct CheckpointContainer {
  std::string kind;
  /// The header's checksum. It covers every section's length and
  /// FNV-64, so it names this image: each delta segment carries the id
  /// of the base image it extends.
  uint64_t id = 0;
  std::vector<storage::Section> sections;
};

/// Reads and verifies a container without parsing any section: the
/// header and its trailer, then each section against its table length
/// and checksum, then end-of-stream (trailing bytes mean the file was
/// not written by SaveCrawler). InvalidArgument on any format or
/// integrity error. LoadCrawler reads through it and then checks the
/// kind; the webevo_checkpoint inspector prints what it returns.
StatusOr<CheckpointContainer> ReadCheckpointContainer(std::istream& in);

/// Crash-consistent file wrappers: the container's header and sections
/// are written straight to a temp file (no second copy of the image in
/// memory), fsync'd, and atomically renamed over `path` — a crash
/// leaves either the previous checkpoint or the new one, never a torn
/// file.
Status SaveCrawlerToFile(const IncrementalCrawler& crawler,
                         const std::string& path,
                         const CrawlerCheckpointOptions& options = {});
Status SaveCrawlerToFile(const PeriodicCrawler& crawler,
                         const std::string& path,
                         const CrawlerCheckpointOptions& options = {});
Status LoadCrawlerFromFile(const std::string& path,
                           IncrementalCrawler* crawler);
Status LoadCrawlerFromFile(const std::string& path,
                           PeriodicCrawler* crawler);

/// --- Incremental checkpoints ----------------------------------------
///
/// The O(dirty) checkpoint mode behind
/// IncrementalCrawlerConfig::checkpoint_incremental (docs/STORAGE.md):
/// a full base image at `path` plus a write-ahead delta log of sealed
/// per-batch segments at `path + ".deltas"` (storage/delta_log.h).
///
/// The first CheckpointIncremental of a process writes the base, a
/// full image, and truncates the delta log (rebase); every later call
/// appends one sealed segment, named after the base's container id,
/// whose crawler sections cost what changed since the previous
/// checkpoint. A segment carries the image's own sections:
///   meta, polite, tracker, pending, failure, defense [, traffic]
///              whole, as in the image
///   collection, allurls, update, frontier
///              each store's image section written over its dirty
///              keys that are still present (the frontier's dirty keys
///              are its marking ledger); the update section keeps its
///              G globals and the frontier section its counters
///   collection-removed, update-removed, frontier-removed
///              the dirty keys now gone, as a URL list (AllUrls never
///              erases a record, so it has no such list)
///   web        the simulated web's image section, whole, when
///              options.include_web: observation moves nearly every
///              site between two checkpoints (simweb/simulated_web.h)
/// Every record list is in canonical order over dirty sets that are
/// pure functions of the simulation, so segments — like full
/// checkpoints — are byte-identical at every shard count.
///
/// LoadCrawlerWithDeltasFromFile restores the base, then replays in
/// order every sealed segment that names it, through LoadCrawler's own
/// parse-then-apply path (records replace, removed keys tolerate
/// absence); a segment naming another image — a log left by an
/// earlier run, or by a crash between a rebase's rename and its
/// truncate — is stale and skipped. A missing log reads as empty; one
/// that exists but cannot be read fails the load. A torn tail after
/// the last seal — the crash-between-append-and-seal case — is
/// ignored, exactly as storage::ForEachDeltaSegment reports it. The
/// restored crawler is byte-identical to one restored from a full
/// checkpoint taken at the same batch.
///
/// The replay streams the log through storage::ForEachDeltaSegment: each
/// segment is applied and dropped before the next is read, so the load
/// holds the image plus one segment, never the whole log. A corrupt
/// sealed segment therefore fails the load (InvalidArgument) after the
/// segments before it have been applied. As with a segment that fails
/// to apply, the crawler is then unspecified and must not be used.
///
/// Only the incremental crawler has this mode: its workload is
/// in-place-update dominated, so dirty sets are small between
/// checkpoints. The periodic crawler rewrites its whole collection
/// every cycle — its "delta" is the collection — so it keeps full
/// checkpoints.
Status CheckpointIncremental(IncrementalCrawler* crawler,
                             const std::string& path,
                             const CrawlerCheckpointOptions& options = {});
Status LoadCrawlerWithDeltasFromFile(const std::string& path,
                                     IncrementalCrawler* crawler);

}  // namespace webevo::crawler

#endif  // WEBEVO_CRAWLER_SNAPSHOT_H_
