// Scaling bench for the ShardedCrawlEngine: aggregate crawl throughput
// (pages/sec of wall time) of the incremental crawler at 1/2/4/8
// shards over one synthetic web, plus the engine's headline guarantee —
// the *simulation* output is bit-identical at every shard count.
//
// Usage:
//   bench_sharded_scaling [--phase-breakdown] [--json <path>] [shards...]
//                                           (default shards: 1 2 4 8)
// --phase-breakdown additionally prints per-phase wall-clock totals
// (plan / fetch / apply / measure, plus the serial rebalance and
// refinement housekeeping) per shard count — the Amdahl ledger showing
// the previously serial plan and measure phases shrinking as shards
// grow.
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
//   WEBEVO_REQUIRE_SERIAL_MS  if set, exit non-zero unless the gated
//                           run's serial ms per batch (below) stays
//                           under this many milliseconds
//   WEBEVO_REQUIRE_PARALLEL_EFF  if set, exit non-zero unless the
//                           gated run's shard-parallel phases (below)
//                           keep its N workers at least this busy
//   WEBEVO_REQUIRE_BARRIER_SHARE  if set, exit non-zero unless the
//                           apply-barrier share of apply wall-clock
//                           (barrier s / apply s) of the gated run
//                           stays below this fraction
// The gated run is N = 4 (the reference host's and the hosted runners'
// core count), or the largest multi-shard run when 4 was not
// requested. A run's wall-clock splits, by the engine's phase ledger,
// into its shard-parallel phases (the fetch, and apply's shard passes:
// apply s - barrier s) and its serial rest (plan, the apply barrier,
// measure, the housekeeping and whatever no phase names). Amdahl's
// two terms gate apart, each within one run: the serial rest per
// batch, an absolute cost that shards cannot shrink, and the parallel
// phases' efficiency, the shards' summed work in them (every fetch's
// latency, every apply shard pass) over N times their wall-clock.
// Neither moves when the other gets faster, which the whole-run
// speedup did: a faster fetch lowered it.
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
#include "util/ledger.h"
#include "util/table.h"

namespace {

using namespace webevo;

struct RunResult {
  int shards = 0;
  double wall_seconds = 0.0;
  // The run's two ledgers (util/ledger.h). Their deterministic rows,
  // the collection quality and the web's counts must match across
  // shard counts bit for bit; the engine's layout-dependent and
  // wall-clock rows are reported, never compared.
  crawler::IncrementalCrawler::Stats stats;
  crawler::ShardedCrawlEngine::Stats engine;
  crawler::CollectionQuality quality;
  uint64_t web_fetches = 0;
  uint64_t pages_created = 0;
  /// The paired non-pipelined run at the same shard count.
  double pipeline_off_wall_seconds = 0.0;
  bool pipeline_off_identical = true;
};

// A per-batch series' total, for the counts the tables print.
uint64_t Total(const RunningStat& series) {
  return static_cast<uint64_t>(series.sum() + 0.5);
}

// Seconds in the shard-parallel phases: the fetch, and apply's shard
// pass.
double ParallelSeconds(const RunResult& r) {
  const crawler::ShardedCrawlEngine::Stats& e = r.engine;
  return e.fetch_seconds.sum() + e.apply_seconds.sum() -
         e.apply_barrier_seconds.sum();
}

// The shards' summed work in the parallel phases over N times their
// wall-clock: 1 when every worker is busy throughout, 1/N when one
// worker does all the work.
double ParallelEfficiency(const RunResult& r) {
  const crawler::ShardedCrawlEngine::Stats& e = r.engine;
  const double capacity = ParallelSeconds(r) * r.shards;
  if (capacity <= 0.0) return 0.0;
  const double work =
      e.fetch_latency_seconds.sum() + e.apply_shard_seconds.sum();
  return work / capacity;
}

// The rest of the wall-clock, per batch, in milliseconds.
double SerialMsPerBatch(const RunResult& r) {
  if (r.engine.batches == 0) return 0.0;
  const double serial_seconds = r.wall_seconds - ParallelSeconds(r);
  return 1e3 * serial_seconds / static_cast<double>(r.engine.batches);
}

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
  r.quality = crawl.MeasureNow();
  r.stats = crawl.stats();
  r.engine = crawl.engine().stats();
  r.web_fetches = web.fetch_count();
  r.pages_created = web.OracleTotalPagesCreated();
  return r;
}

bool SameSimulation(const RunResult& a, const RunResult& b) {
  return ledger::Diff(a.stats, b.stats).empty() &&
         ledger::Diff(a.engine, b.engine).empty() &&
         a.quality.freshness == b.quality.freshness &&
         a.quality.mean_stale_age_days == b.quality.mean_stale_age_days &&
         a.quality.size == b.quality.size &&
         a.quality.fresh == b.quality.fresh &&
         a.quality.dead == b.quality.dead &&
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
    double pages_per_sec = r.wall_seconds > 0.0
                               ? static_cast<double>(r.stats.crawls) /
                                     r.wall_seconds
                               : 0.0;
    double base_rate = base.wall_seconds > 0.0
                           ? static_cast<double>(base.stats.crawls) /
                                 base.wall_seconds
                           : 0.0;
    double speedup = base_rate > 0.0 ? pages_per_sec / base_rate : 1.0;
    if (r.shards != base.shards) best_speedup = std::max(best_speedup,
                                                         speedup);
    double pipe_gain = r.wall_seconds > 0.0
                           ? r.pipeline_off_wall_seconds / r.wall_seconds
                           : 1.0;
    table.AddRow({std::to_string(r.shards),
                  TablePrinter::Fmt(static_cast<int64_t>(r.stats.crawls)),
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

  // The Amdahl ledger. The fetch and apply's shard pass run on the
  // shards ("parallel s"); everything else is serial. The "barrier s"
  // column is the apply phase's remaining serial fraction — the
  // lease/eviction/seq settlement — and should stay a small share of
  // apply at every shard count. "rebalance s" and "refine s" are the
  // crawl loop's serial housekeeping (the daily revisit solve and the
  // weekly re-ranking), which no shard shares. "parallel eff" is how
  // busy the parallel phases keep the N workers, and "serial ms/batch"
  // the wall-clock outside them per batch.
  auto print_phase_table = [&results] {
    std::printf("\nper-phase wall-clock totals (seconds over the run)\n");
    TablePrinter phases({"shards", "batches", "plan s", "fetch s",
                         "apply s", "barrier s", "measure s",
                         "rebalance s", "refine s", "overlap s",
                         "retry rounds", "adm/rev/evict", "parallel s",
                         "parallel eff", "serial ms/batch"});
    for (const RunResult& r : results) {
      const crawler::ShardedCrawlEngine::Stats& e = r.engine;
      // The lease ledger: settled admissions and evictions are part
      // of the determinism fingerprint; revocations (optimistic lease
      // overdraft clawed back at settle) are shard-layout dependent
      // by design.
      std::string lease = std::to_string(Total(e.lease_admissions)) + "/" +
                          std::to_string(Total(e.lease_revocations)) + "/" +
                          std::to_string(Total(e.settle_evictions));
      phases.AddRow({std::to_string(r.shards),
                     TablePrinter::Fmt(static_cast<int64_t>(e.batches)),
                     TablePrinter::Fmt(e.plan_seconds.sum()),
                     TablePrinter::Fmt(e.fetch_seconds.sum()),
                     TablePrinter::Fmt(e.apply_seconds.sum()),
                     TablePrinter::Fmt(e.apply_barrier_seconds.sum()),
                     TablePrinter::Fmt(e.measure_seconds.sum()),
                     TablePrinter::Fmt(e.rebalance_seconds.sum()),
                     TablePrinter::Fmt(e.refine_seconds.sum()),
                     TablePrinter::Fmt(e.measure_overlap_seconds.sum()),
                     TablePrinter::Fmt(
                         static_cast<int64_t>(Total(e.retry_rounds))),
                     lease, TablePrinter::Fmt(ParallelSeconds(r)),
                     TablePrinter::Fmt(ParallelEfficiency(r), 2),
                     TablePrinter::Fmt(SerialMsPerBatch(r), 3)});
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
      const crawler::ShardedCrawlEngine::Stats& e = r.engine;
      const double pages_per_sec =
          r.wall_seconds > 0.0
              ? static_cast<double>(r.stats.crawls) / r.wall_seconds
              : 0.0;
      const double barrier_share =
          e.apply_seconds.sum() > 0.0
              ? e.apply_barrier_seconds.sum() / e.apply_seconds.sum()
              : 0.0;
      js << "    {\"shards\": " << r.shards << ", \"crawled_pages\": "
         << r.stats.crawls << ", \"wall_seconds\": " << r.wall_seconds
         << ", \"pages_per_second\": " << pages_per_sec
         << ", \"identical_sim\": "
         << (SameSimulation(base, r) ? "true" : "false")
         << ", \"batches\": " << e.batches
         << ",\n     \"phases\": {\"plan_s\": " << e.plan_seconds.sum()
         << ", \"fetch_s\": " << e.fetch_seconds.sum() << ", \"apply_s\": "
         << e.apply_seconds.sum() << ", \"apply_barrier_s\": "
         << e.apply_barrier_seconds.sum() << ", \"measure_s\": "
         << e.measure_seconds.sum() << ", \"rebalance_s\": "
         << e.rebalance_seconds.sum()
         << ", \"refine_s\": " << e.refine_seconds.sum()
         << "},\n     \"parallel_s\": " << ParallelSeconds(r)
         << ", \"parallel_efficiency\": " << ParallelEfficiency(r)
         << ", \"serial_ms_per_batch\": " << SerialMsPerBatch(r)
         << ", \"barrier_share\": " << barrier_share
         << ", \"retry_rounds\": " << Total(e.retry_rounds)
         << ",\n     \"lease\": {\"admit_budget\": "
         << Total(e.lease_admit_budget)
         << ", \"admissions\": " << Total(e.lease_admissions)
         << ", \"revocations\": " << Total(e.lease_revocations)
         << ", \"settle_evictions\": " << Total(e.settle_evictions) << "}"
         << ",\n     \"pipeline\": {\"off_wall_seconds\": "
         << r.pipeline_off_wall_seconds << ", \"off_identical\": "
         << (r.pipeline_off_identical ? "true" : "false")
         << ", \"measure_overlap_s\": " << e.measure_overlap_seconds.sum()
         << ", \"pipelined_batches\": " << e.pipelined_batches
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

  // The gated run: N = 4, else the largest multi-shard run.
  const RunResult* gated = nullptr;
  for (const RunResult& r : results) {
    if (r.shards == 4) gated = &r;
  }
  if (gated == nullptr) {
    for (const RunResult& r : results) {
      if (r.shards > 1 && (gated == nullptr || r.shards > gated->shards)) {
        gated = &r;
      }
    }
  }
  const auto fail = [&](const char* what, double value, double limit) {
    if (!phase_breakdown) print_phase_table();
    std::fprintf(stderr,
                 "FAIL: %s %.3f at N=%d, limit %.3f\n(phase breakdown "
                 "above)\n",
                 what, value, gated->shards, limit);
    return 1;
  };

  const char* serial_req = std::getenv("WEBEVO_REQUIRE_SERIAL_MS");
  if (serial_req != nullptr && gated != nullptr) {
    // The serial term: what every batch pays however many shards run.
    const double limit = std::atof(serial_req);
    const double serial_ms = SerialMsPerBatch(*gated);
    if (serial_ms >= limit) return fail("serial ms/batch", serial_ms, limit);
    std::printf("serial ms/batch at N=%d: %.3f (limit %.3f)\n",
                gated->shards, serial_ms, limit);
  }

  const char* parallel_req = std::getenv("WEBEVO_REQUIRE_PARALLEL_EFF");
  if (parallel_req != nullptr && gated != nullptr) {
    // The parallel term: the shard-parallel phases must spread over
    // the shards' workers.
    const double limit = std::atof(parallel_req);
    const double efficiency = ParallelEfficiency(*gated);
    if (efficiency < limit) {
      return fail("parallel-phase efficiency", efficiency, limit);
    }
    std::printf("parallel-phase efficiency at N=%d: %.2f (limit %.2f)\n",
                gated->shards, efficiency, limit);
  }

  const char* share_req = std::getenv("WEBEVO_REQUIRE_BARRIER_SHARE");
  if (share_req != nullptr && gated != nullptr &&
      gated->engine.apply_seconds.sum() > 0.0) {
    // Gate the serial fraction of apply: the lease protocol's whole
    // point is that the barrier is a settlement step, not a slot walk.
    const double limit = std::atof(share_req);
    const double apply_s = gated->engine.apply_seconds.sum();
    const double barrier_s = gated->engine.apply_barrier_seconds.sum();
    const double share = barrier_s / apply_s;
    if (share >= limit) {
      if (!phase_breakdown) print_phase_table();
      std::fprintf(stderr,
                   "FAIL: apply-barrier share %.3f (%.4fs / %.4fs) at "
                   "N=%d >= limit %.3f\n(phase breakdown above)\n",
                   share, barrier_s, apply_s, gated->shards, limit);
      return 1;
    }
    std::printf("barrier share at N=%d: %.3f (limit %.3f)\n",
                gated->shards, share, limit);
  }

  if (std::thread::hardware_concurrency() < 2) {
    std::printf(
        "note: single-core host; wall-clock speedup needs >= 2 cores\n");
  }
  return 0;
}
