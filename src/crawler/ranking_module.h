#ifndef WEBEVO_CRAWLER_RANKING_MODULE_H_
#define WEBEVO_CRAWLER_RANKING_MODULE_H_

#include <cstdint>
#include <vector>

#include "crawler/all_urls.h"
#include "crawler/collection.h"
#include "simweb/url.h"
#include "util/status.h"

namespace webevo {
class ThreadPool;
}  // namespace webevo

namespace webevo::crawler {

/// Importance metric used for the refinement decision (Section 5.2
/// names PageRank [CGMP98, PB98] and Hub & Authority [Kle98]).
enum class ImportanceMetric {
  kPageRank,
  kHitsAuthority,
  kInLinks,  ///< raw in-link count; cheap baseline
};

const char* ImportanceMetricName(ImportanceMetric metric);

struct RankingModuleConfig {
  ImportanceMetric metric = ImportanceMetric::kPageRank;
  /// Damping for PageRank; the paper used 0.9.
  double damping = 0.9;
  /// Cap on replacements per refinement pass, bounding churn.
  std::size_t max_replacements = 64;
  /// A candidate must beat its victim's importance by this factor —
  /// hysteresis against thrashing on near-equal scores.
  double replacement_hysteresis = 1.25;
};

/// One refinement decision: discard a collection page, crawl a
/// replacement immediately (Algorithm 5.1 steps [7]-[10]).
struct Replacement {
  simweb::Url discard;
  simweb::Url crawl;
  double discard_score = 0.0;
  double crawl_score = 0.0;
};

/// Outcome of one refinement pass.
struct RefinementResult {
  std::vector<Replacement> replacements;
  /// Candidates to crawl into *free* space (only produced while the
  /// collection is below capacity), best-scoring first.
  std::vector<simweb::Url> admissions;
  std::size_t graph_nodes = 0;
  std::size_t graph_edges = 0;
  int iterations = 0;  ///< PageRank/HITS iterations used
};

/// The `RankingModule` of Figure 12: owns the refinement decision.
///
/// It rebuilds the link graph over the collection's stored out-links —
/// nodes are collection pages plus every known, live, uncollected URL
/// (whose importance is estimable from collection in-links alone,
/// footnote 2) — scores all nodes with the configured metric, writes
/// the scores back into the collection entries, and pairs the
/// highest-scoring candidates with the lowest-scoring collection pages
/// to produce replacement decisions.
///
/// Deliberately expensive and infrequent: the paper separates this scan
/// from the UpdateModule's per-page fast path so the crawler can keep
/// fetching at full speed while importance is re-evaluated.
class RankingModule {
 public:
  explicit RankingModule(const RankingModuleConfig& config);

  /// Scores everything and returns replacement decisions. Updates the
  /// `importance` field of collection entries in place. The caller
  /// executes the replacements (discard + schedule crawl). Members and
  /// candidates are numbered in canonical (site, slot, incarnation)
  /// order, so graph node numbering — and with it every score and tie
  /// resolution — is independent of store layout and shard count. With
  /// `threads`, each AllUrls shard is walked and sorted on the pool (one
  /// task per shard; the pool must be idle, as the crawl engine's is
  /// between batches); the result is the same bits either way.
  RefinementResult Refine(const AllUrls& all_urls, Collection& collection,
                          ThreadPool* threads = nullptr);

  const RankingModuleConfig& config() const { return config_; }
  int64_t refinement_count() const { return refinement_count_; }

  /// Checkpoint restore of the pass counter (accounting only; the
  /// module keeps no other state between passes).
  void RestoreRefinementCount(int64_t n) { refinement_count_ = n; }

 private:
  RankingModuleConfig config_;
  int64_t refinement_count_ = 0;
};

}  // namespace webevo::crawler

#endif  // WEBEVO_CRAWLER_RANKING_MODULE_H_
