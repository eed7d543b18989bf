// Scaling bench for the ShardedCrawlEngine: aggregate crawl throughput
// (pages/sec of wall time) of the incremental crawler at 1/2/4/8
// shards over one synthetic web, plus the engine's headline guarantee —
// the *simulation* output is bit-identical at every shard count.
//
// Usage:
//   bench_sharded_scaling [--phase-breakdown] [--json <path>] [shards...]
//                                           (default shards: 1 2 4 8)
// --phase-breakdown additionally prints per-phase wall-clock totals
// (plan / fetch / apply / measure) per shard count — the Amdahl ledger
// showing the previously serial plan and measure phases shrinking as
// shards grow.
// --json <path> writes the whole table (throughput, phase breakdown,
// pipeline overlap ledger, capacity-lease ledger, determinism verdict)
// as machine-readable JSON, so CI can archive the perf trajectory per
// commit.
//
// Every shard count runs twice — staged pipeline on (the default loop:
// the deferred measure fused into the fetch workers) and off (the
// strictly sequential loop) — and the two runs must be the same
// simulation bit for bit.
// Env:
//   WEBEVO_SCALE            workload multiplier (default 1.0)
//   WEBEVO_BODY_BYTES       synthetic page body size (default 16384)
//   WEBEVO_DAYS             virtual days to crawl (default 20)
//   WEBEVO_REQUIRE_SPEEDUP  if set, exit non-zero unless the best
//                           multi-shard speedup reaches this factor
//   WEBEVO_REQUIRE_BARRIER_SHARE  if set, exit non-zero unless the
//                           apply-barrier share of apply wall-clock
//                           (barrier s / apply s) stays below this
//                           fraction at N = 4 (falls back to the
//                           largest multi-shard run when 4 was not
//                           requested)
//
// Exits non-zero on any cross-shard-count or pipeline-on/off
// determinism mismatch, which is what the CI smoke check
// (`bench_sharded_scaling 1 4`) relies on.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "crawler/incremental_crawler.h"
#include "simweb/simulated_web.h"
#include "simweb/web_config.h"
#include "util/table.h"

namespace {

using namespace webevo;

struct RunResult {
  int shards = 0;
  double wall_seconds = 0.0;
  uint64_t crawls = 0;
  uint64_t batches = 0;
  // Per-phase wall-clock totals over the whole run.
  double plan_seconds = 0.0;
  double fetch_seconds = 0.0;
  double apply_seconds = 0.0;
  double apply_barrier_seconds = 0.0;
  double measure_seconds = 0.0;
  // Determinism fingerprint: every field must match across shard counts
  // bit for bit.
  crawler::CollectionQuality quality;
  uint64_t pages_added = 0;
  uint64_t dead_pages_removed = 0;
  uint64_t changes_detected = 0;
  uint64_t politeness_retries = 0;
  uint64_t in_batch_retries = 0;
  /// Total in-batch politeness retry rounds (deterministic ledger
  /// entry; the per-batch mean shows hot-site skew).
  uint64_t retry_rounds = 0;
  /// Capacity-lease ledger. Budget, settled admissions and settle
  /// evictions are pure functions of the simulation (fingerprinted);
  /// revocations measure how often the optimistic shard leases
  /// overdrew — shard-layout dependent by design, reported but never
  /// fingerprinted (always 0 at N = 1).
  uint64_t lease_budget = 0;
  uint64_t lease_admissions = 0;
  uint64_t lease_revocations = 0;
  uint64_t settle_evictions = 0;
  uint64_t web_fetches = 0;
  uint64_t pages_created = 0;
  /// Pipeline overlap ledger (pipelined runs only): wall-clock the
  /// fused measure stage spent inside fetch workers instead of on the
  /// serial path, and how many batches carried it.
  double measure_overlap_seconds = 0.0;
  uint64_t pipelined_batches = 0;
  /// The paired non-pipelined run at the same shard count.
  double pipeline_off_wall_seconds = 0.0;
  bool pipeline_off_identical = true;
};

RunResult RunOnce(int shards, double scale, double days,
                  uint32_t body_bytes, bool pipeline) {
  simweb::WebConfig wc = simweb::WebConfig().Scaled(0.15 * scale);
  wc.seed = 19990217;
  wc.max_site_size = 250;
  wc.page_body_bytes = body_bytes;
  simweb::SimulatedWeb web(wc);

  crawler::IncrementalCrawlerConfig config;
  config.collection_capacity =
      static_cast<std::size_t>(4000 * scale);
  // Fast steady crawl: ~half the collection per day keeps every
  // rebalance-interval batch a few thousand fetches wide.
  config.crawl_rate_pages_per_day =
      static_cast<double>(config.collection_capacity) / 2.0;
  config.freshness_sample_interval_days = 1.0;
  config.crawl_parallelism = shards;
  config.pipeline = pipeline;
  config.crawl.per_site_delay_days = 1e-4;  // the paper's ~10 seconds
  config.crawl.enforce_politeness = true;

  crawler::IncrementalCrawler crawl(&web, config);
  if (!crawl.Bootstrap(0.0).ok()) {
    std::fprintf(stderr, "bootstrap failed\n");
    std::exit(2);
  }
  auto start = std::chrono::steady_clock::now();
  if (!crawl.RunUntil(days).ok()) {
    std::fprintf(stderr, "run failed\n");
    std::exit(2);
  }
  auto end = std::chrono::steady_clock::now();

  RunResult r;
  r.shards = shards;
  r.wall_seconds = std::chrono::duration<double>(end - start).count();
  r.crawls = crawl.stats().crawls;
  const crawler::ShardedCrawlEngine::Stats& es = crawl.engine().stats();
  r.batches = es.batches;
  r.plan_seconds = es.plan_seconds.sum();
  r.fetch_seconds = es.fetch_seconds.sum();
  r.apply_seconds = es.apply_seconds.sum();
  r.apply_barrier_seconds = es.apply_barrier_seconds.sum();
  r.measure_seconds = es.measure_seconds.sum();
  r.quality = crawl.MeasureNow();
  r.pages_added = crawl.stats().pages_added;
  r.dead_pages_removed = crawl.stats().dead_pages_removed;
  r.changes_detected = crawl.stats().changes_detected;
  r.politeness_retries = crawl.stats().politeness_retries;
  r.in_batch_retries = crawl.stats().in_batch_retries;
  r.retry_rounds = static_cast<uint64_t>(es.retry_rounds.sum() + 0.5);
  r.lease_budget =
      static_cast<uint64_t>(es.lease_admit_budget.sum() + 0.5);
  r.lease_admissions =
      static_cast<uint64_t>(es.lease_admissions.sum() + 0.5);
  r.lease_revocations =
      static_cast<uint64_t>(es.lease_revocations.sum() + 0.5);
  r.settle_evictions =
      static_cast<uint64_t>(es.settle_evictions.sum() + 0.5);
  r.web_fetches = web.fetch_count();
  r.pages_created = web.OracleTotalPagesCreated();
  r.measure_overlap_seconds = es.measure_overlap_seconds.sum();
  r.pipelined_batches = es.pipelined_batches;
  return r;
}

bool SameSimulation(const RunResult& a, const RunResult& b) {
  return a.crawls == b.crawls && a.quality.freshness == b.quality.freshness &&
         a.quality.mean_stale_age_days == b.quality.mean_stale_age_days &&
         a.quality.size == b.quality.size &&
         a.quality.fresh == b.quality.fresh &&
         a.quality.dead == b.quality.dead &&
         a.pages_added == b.pages_added &&
         a.dead_pages_removed == b.dead_pages_removed &&
         a.changes_detected == b.changes_detected &&
         a.politeness_retries == b.politeness_retries &&
         a.in_batch_retries == b.in_batch_retries &&
         a.retry_rounds == b.retry_rounds &&
         a.lease_budget == b.lease_budget &&
         a.lease_admissions == b.lease_admissions &&
         a.settle_evictions == b.settle_evictions &&
         a.web_fetches == b.web_fetches &&
         a.pages_created == b.pages_created;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Banner(
      "Sharded crawl engine: throughput scaling",
      "multiple CrawlModule's may run in parallel, depending on how "
      "fast we need to crawl pages (Section 5.3)");

  std::vector<int> shard_counts;
  bool phase_breakdown = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--phase-breakdown") {
      phase_breakdown = true;
      continue;
    }
    if (std::string(argv[i]) == "--json") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--json requires a path\n");
        return 2;
      }
      json_path = argv[++i];
      continue;
    }
    int n = std::atoi(argv[i]);
    if (n > 0) shard_counts.push_back(n);
  }
  if (shard_counts.empty()) shard_counts = {1, 2, 4, 8};

  const double scale = bench::ScaleFromEnv();
  const double days = bench::EnvOr("WEBEVO_DAYS", 20.0);
  const auto body_bytes =
      static_cast<uint32_t>(bench::EnvOr("WEBEVO_BODY_BYTES", 16384.0));
  std::printf("scale %.2f, %.0f virtual days, %u-byte bodies, %u cores\n\n",
              scale, days, body_bytes,
              std::thread::hardware_concurrency());

  std::vector<RunResult> results;
  results.reserve(shard_counts.size());
  for (int shards : shard_counts) {
    // Pipelined run (the default loop) is the headline result; the
    // paired non-pipelined run provides the on/off columns and the
    // on-vs-off determinism check.
    RunResult on = RunOnce(shards, scale, days, body_bytes, true);
    RunResult off = RunOnce(shards, scale, days, body_bytes, false);
    on.pipeline_off_wall_seconds = off.wall_seconds;
    on.pipeline_off_identical = SameSimulation(on, off);
    results.push_back(on);
  }

  const RunResult& base = results.front();
  TablePrinter table({"shards", "crawled pages", "wall s", "pages/s",
                      "speedup", "pipe-off s", "pipe gain",
                      "identical sim"});
  bool all_identical = true;
  double best_speedup = 1.0;
  for (const RunResult& r : results) {
    bool identical = SameSimulation(base, r) && r.pipeline_off_identical;
    all_identical = all_identical && identical;
    double pages_per_sec =
        r.wall_seconds > 0.0 ? static_cast<double>(r.crawls) / r.wall_seconds
                             : 0.0;
    double base_rate = base.wall_seconds > 0.0
                           ? static_cast<double>(base.crawls) /
                                 base.wall_seconds
                           : 0.0;
    double speedup = base_rate > 0.0 ? pages_per_sec / base_rate : 1.0;
    if (r.shards != base.shards) best_speedup = std::max(best_speedup,
                                                         speedup);
    double pipe_gain = r.wall_seconds > 0.0
                           ? r.pipeline_off_wall_seconds / r.wall_seconds
                           : 1.0;
    table.AddRow({std::to_string(r.shards),
                  TablePrinter::Fmt(static_cast<int64_t>(r.crawls)),
                  TablePrinter::Fmt(r.wall_seconds),
                  TablePrinter::Fmt(pages_per_sec, 0),
                  TablePrinter::Fmt(speedup, 2),
                  TablePrinter::Fmt(r.pipeline_off_wall_seconds),
                  TablePrinter::Fmt(pipe_gain, 2),
                  identical ? "yes" : "NO"});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "collection %zu pages, freshness %.4f, %llu pages created\n",
      base.quality.size, base.quality.freshness,
      static_cast<unsigned long long>(base.pages_created));

  // The Amdahl ledger: every phase is shard-parallel now — plan and
  // measure since the ShardedFrontier / sharded measurement, apply
  // since the sharded Collection/UpdateModule lease-protocol apply.
  // The "barrier s" column is the apply phase's remaining serial
  // fraction — the lease/eviction/seq settlement — and should stay a
  // small share of apply at every shard count.
  auto print_phase_table = [&results] {
    std::printf("\nper-phase wall-clock totals (seconds over the run)\n");
    TablePrinter phases({"shards", "batches", "plan s", "fetch s",
                         "apply s", "barrier s", "measure s",
                         "overlap s", "retry rounds", "adm/rev/evict",
                         "serial ms/batch"});
    for (const RunResult& r : results) {
      double per_batch_ms =
          r.batches > 0
              ? 1e3 *
                    (r.plan_seconds + r.measure_seconds +
                     r.apply_barrier_seconds) /
                    static_cast<double>(r.batches)
              : 0.0;
      // The lease ledger: settled admissions and evictions are part
      // of the determinism fingerprint; revocations (optimistic lease
      // overdraft clawed back at settle) are shard-layout dependent
      // by design.
      std::string lease = std::to_string(r.lease_admissions) + "/" +
                          std::to_string(r.lease_revocations) + "/" +
                          std::to_string(r.settle_evictions);
      phases.AddRow({std::to_string(r.shards),
                     TablePrinter::Fmt(static_cast<int64_t>(r.batches)),
                     TablePrinter::Fmt(r.plan_seconds),
                     TablePrinter::Fmt(r.fetch_seconds),
                     TablePrinter::Fmt(r.apply_seconds),
                     TablePrinter::Fmt(r.apply_barrier_seconds),
                     TablePrinter::Fmt(r.measure_seconds),
                     TablePrinter::Fmt(r.measure_overlap_seconds),
                     TablePrinter::Fmt(
                         static_cast<int64_t>(r.retry_rounds)),
                     lease, TablePrinter::Fmt(per_batch_ms, 3)});
    }
    std::printf("%s\n", phases.ToString().c_str());
  };
  if (phase_breakdown) print_phase_table();

  if (!json_path.empty()) {
    // Machine-readable mirror of the tables, one JSON document per
    // invocation, archived by CI per commit so the perf trajectory
    // (and especially the barrier share) is recorded over time.
    std::ostringstream js;
    js.precision(17);
    js << "{\n"
       << "  \"bench\": \"sharded_scaling\",\n"
       << "  \"scale\": " << scale << ",\n"
       << "  \"days\": " << days << ",\n"
       << "  \"body_bytes\": " << body_bytes << ",\n"
       << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"runs\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const RunResult& r = results[i];
      const double pages_per_sec =
          r.wall_seconds > 0.0
              ? static_cast<double>(r.crawls) / r.wall_seconds
              : 0.0;
      const double barrier_share =
          r.apply_seconds > 0.0
              ? r.apply_barrier_seconds / r.apply_seconds
              : 0.0;
      js << "    {\"shards\": " << r.shards << ", \"crawled_pages\": "
         << r.crawls << ", \"wall_seconds\": " << r.wall_seconds
         << ", \"pages_per_second\": " << pages_per_sec
         << ", \"identical_sim\": "
         << (SameSimulation(base, r) ? "true" : "false")
         << ", \"batches\": " << r.batches
         << ",\n     \"phases\": {\"plan_s\": " << r.plan_seconds
         << ", \"fetch_s\": " << r.fetch_seconds << ", \"apply_s\": "
         << r.apply_seconds << ", \"apply_barrier_s\": "
         << r.apply_barrier_seconds << ", \"measure_s\": "
         << r.measure_seconds << "},\n     \"barrier_share\": "
         << barrier_share << ", \"retry_rounds\": " << r.retry_rounds
         << ",\n     \"lease\": {\"admit_budget\": " << r.lease_budget
         << ", \"admissions\": " << r.lease_admissions
         << ", \"revocations\": " << r.lease_revocations
         << ", \"settle_evictions\": " << r.settle_evictions << "}"
         << ",\n     \"pipeline\": {\"off_wall_seconds\": "
         << r.pipeline_off_wall_seconds << ", \"off_identical\": "
         << (r.pipeline_off_identical ? "true" : "false")
         << ", \"measure_overlap_s\": " << r.measure_overlap_seconds
         << ", \"pipelined_batches\": " << r.pipelined_batches
         << "}}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    js << "  ],\n"
       << "  \"all_identical\": " << (all_identical ? "true" : "false")
       << ",\n"
       << "  \"best_speedup\": " << best_speedup << "\n"
       << "}\n";
    std::ofstream out(json_path);
    out << js.str();
    out.close();  // flush before checking: buffered errors surface here
    if (!out.good()) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::printf("json: wrote %s\n", json_path.c_str());
  }

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: simulation output varies with shard count\n");
    return 1;
  }
  std::printf("determinism: identical simulation at every shard count\n");

  const char* require = std::getenv("WEBEVO_REQUIRE_SPEEDUP");
  if (require != nullptr) {
    double target = std::atof(require);
    if (best_speedup + 1e-9 < target) {
      std::fprintf(stderr, "FAIL: best speedup %.2f < required %.2f\n",
                   best_speedup, target);
      return 1;
    }
  }

  const char* share_req = std::getenv("WEBEVO_REQUIRE_BARRIER_SHARE");
  if (share_req != nullptr) {
    // Gate the serial fraction of apply: the lease protocol's whole
    // point is that the barrier is a settlement step, not a slot walk.
    // Evaluated at N = 4 (the hosted-runner core count); falls back to
    // the largest multi-shard run when 4 was not requested.
    const double limit = std::atof(share_req);
    const RunResult* gated = nullptr;
    for (const RunResult& r : results) {
      if (r.shards == 4) gated = &r;
    }
    if (gated == nullptr) {
      for (const RunResult& r : results) {
        if (r.shards > 1 &&
            (gated == nullptr || r.shards > gated->shards)) {
          gated = &r;
        }
      }
    }
    if (gated != nullptr && gated->apply_seconds > 0.0) {
      const double share =
          gated->apply_barrier_seconds / gated->apply_seconds;
      if (share >= limit) {
        if (!phase_breakdown) print_phase_table();
        std::fprintf(stderr,
                     "FAIL: apply-barrier share %.3f (%.4fs / %.4fs) at "
                     "N=%d >= limit %.3f\n(phase breakdown above)\n",
                     share, gated->apply_barrier_seconds,
                     gated->apply_seconds, gated->shards, limit);
        return 1;
      }
      std::printf("barrier share at N=%d: %.3f (limit %.3f)\n",
                  gated->shards, share, limit);
    }
  }

  if (std::thread::hardware_concurrency() < 2) {
    std::printf(
        "note: single-core host; wall-clock speedup needs >= 2 cores\n");
  }
  return 0;
}
