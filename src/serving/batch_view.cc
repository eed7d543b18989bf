#include "serving/batch_view.h"

#include <ostream>

#include "util/hash.h"
#include "util/record_line.h"
#include "util/text_snapshot.h"

namespace webevo::serving {

namespace {

constexpr const char* kViewMagic = "webevo-batchview";
constexpr int kViewFormatVersion = 1;

// The one definition of a view's payload: passes each record line,
// without its newline, to `sink` in Serialize order.
template <typename Sink>
void EmitLines(const BatchView& v, Sink&& sink) {
  RecordLine line;
  sink(line.Start(kViewMagic, kViewFormatVersion, v.crawler, v.batch,
                  v.published_at, v.collection_size, v.collection_capacity,
                  v.frontier_depth, v.pages.size(), v.sites.size(),
                  v.freshness.size(), v.estimates.size(), v.summary.size()));
  for (const auto& [name, value] : v.summary) {
    sink(line.Start("K", name, value));
  }
  for (const PageRow& p : v.pages) {
    sink(line.Start("P", p.url.site, p.url.slot, p.url.incarnation, p.version,
                    p.crawled_at, p.importance, p.est_rate, p.out_links));
  }
  for (const SiteRow& s : v.sites) {
    sink(line.Start("S", s.site, s.pages, s.mean_importance, s.mean_est_rate,
                    s.last_crawled_at));
  }
  for (const SeriesRow& f : v.freshness) {
    sink(line.Start("F", f.time, f.value));
  }
  for (const EstimateRow& e : v.estimates) {
    sink(line.Start("E", e.url.site, e.url.slot, e.url.incarnation, e.rate,
                    e.interval_days));
  }
}

}  // namespace

void BatchView::Serialize(std::ostream& out) const {
  TrailerWriter writer(out);
  EmitLines(*this, [&writer](const RecordLine& line) { writer.Line(line); });
  writer.Finish();
}

uint64_t BatchView::Fingerprint() const {
  // The trailer's checksum and the FNV-1a of the serialized bytes are
  // the same chain over the payload lines, so one pass yields both: the
  // payload hash is the trailer value, then the trailer line itself is
  // hashed on top.
  uint64_t hash = kFnv64OffsetBasis;
  EmitLines(*this, [&hash](const RecordLine& line) {
    hash = Fnv1a64Seeded(line.view(), hash);
    hash = (hash ^ static_cast<unsigned char>('\n')) * kFnv64Prime;
  });
  RecordLine trailer;
  trailer.Start(kSnapshotTrailerMagic, hash);
  hash = Fnv1a64Seeded(trailer.view(), hash);
  return (hash ^ static_cast<unsigned char>('\n')) * kFnv64Prime;
}

}  // namespace webevo::serving
