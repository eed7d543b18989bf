// Incremental-checkpoint bench: the O(dirty) contract, measured. At a
// steady-state, low-dirty workload (a fraction of the collection is
// touched between checkpoints), an incremental checkpoint — one sealed
// delta segment appended to the write-ahead log — must cost a small
// fraction of a full SaveCrawlerToFile in both bytes and wall-clock,
// and restoring base + deltas must be byte-identical to restoring the
// full checkpoint taken at the same batch.
//
// Both sides are measured without the web section (include_web=false,
// the same-process checkpoint mode): a segment carries the web's
// whole image section, because the freshness oracle's lazy
// change-process sampling moves nearly every *web* site between
// samples regardless of crawl traffic — see docs/STORAGE.md.
//
// Usage:
//   bench_checkpoint_incremental [--json <path>]
// Env:
//   WEBEVO_SCALE               web size multiplier      (default 1.0,
//                              over a 0.15-scale base web)
//   WEBEVO_WARMUP_DAYS         days before the base     (default 8)
//   WEBEVO_INTERVALS           checkpoints measured     (default 8)
//   WEBEVO_GAP_DAYS            days between checkpoints (default 0.25)
//   WEBEVO_REQUIRE_INC_RATIO   max incremental/full for bytes and
//                              wall-clock               (default 0.2)
//
// Exits non-zero if the byte ratio (total incremental bytes over total
// full bytes) or the wall-clock ratio (the median of the intervals'
// incremental/full ratios) reaches the bound, or if the base+deltas
// restore diverges from the full restore. Bytes do not jitter; a
// segment's fsync can stall one interval on a noisy host, which moves a
// ratio of sums but not the median.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "crawler/incremental_crawler.h"
#include "crawler/snapshot.h"
#include "simweb/simulated_web.h"
#include "simweb/web_config.h"
#include "storage/delta_log.h"

namespace {

using namespace webevo;
using Clock = std::chrono::steady_clock;

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// The median of `values` (0 when empty).
double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::size_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return 0;
  return static_cast<std::size_t>(in.tellg());
}

std::string CheckpointBytesOf(const crawler::IncrementalCrawler& c,
                              const crawler::CrawlerCheckpointOptions& o) {
  std::ostringstream out;
  Status st = SaveCrawler(c, out, o);
  if (!st.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  return out.str();
}

struct CkptRow {
  double day = 0.0;
  uint64_t fetches = 0;
  std::size_t full_bytes = 0;
  std::size_t inc_bytes = 0;
  double full_ms = 0.0;
  double inc_ms = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--json requires a path\n");
        return 2;
      }
      json_path = argv[++i];
    }
  }

  const double scale = bench::ScaleFromEnv();
  const double warmup = bench::EnvOr("WEBEVO_WARMUP_DAYS", 8.0);
  const int intervals =
      static_cast<int>(bench::EnvOr("WEBEVO_INTERVALS", 8.0));
  const double gap = bench::EnvOr("WEBEVO_GAP_DAYS", 0.25);
  const double bound = bench::EnvOr("WEBEVO_REQUIRE_INC_RATIO", 0.2);

  simweb::WebConfig web_config = simweb::WebConfig().Scaled(0.15 * scale);
  web_config.seed = 19990217;
  simweb::SimulatedWeb web(web_config);

  crawler::IncrementalCrawlerConfig config;
  config.collection_capacity = 2000;
  config.crawl_rate_pages_per_day = 300.0;
  config.crawl_parallelism = 4;
  config.checkpoint_incremental = true;  // arms delta tracking
  crawler::IncrementalCrawler crawler(&web, config);

  crawler::CrawlerCheckpointOptions options;
  options.include_web = false;

  const std::string inc_path = "bench_inc_ckpt.bin";
  const std::string full_path = "bench_full_ckpt.bin";

  Status st = crawler.Bootstrap(0.0);
  if (!st.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", st.ToString().c_str());
    return 1;
  }
  st = crawler.RunUntil(warmup);
  if (!st.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", st.ToString().c_str());
    return 1;
  }

  // The base image (rebase: full write + delta-log truncate).
  st = crawler::CheckpointIncremental(&crawler, inc_path, options);
  if (!st.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", st.ToString().c_str());
    return 1;
  }
  const std::size_t base_bytes = FileBytes(inc_path);

  std::vector<CkptRow> rows;
  uint64_t last_crawls = crawler.stats().crawls;
  std::size_t last_log_bytes = FileBytes(inc_path + ".deltas");
  for (int i = 1; i <= intervals; ++i) {
    const double day = warmup + gap * i;
    st = crawler.RunUntil(day);
    if (!st.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", st.ToString().c_str());
      return 1;
    }
    CkptRow row;
    row.day = day;
    row.fetches = crawler.stats().crawls - last_crawls;
    last_crawls = crawler.stats().crawls;

    Clock::time_point t0 = Clock::now();
    st = SaveCrawlerToFile(crawler, full_path, options);
    Clock::time_point t1 = Clock::now();
    if (!st.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", st.ToString().c_str());
      return 1;
    }
    row.full_ms = Ms(t0, t1);
    row.full_bytes = FileBytes(full_path);

    t0 = Clock::now();
    st = crawler::CheckpointIncremental(&crawler, inc_path, options);
    t1 = Clock::now();
    if (!st.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", st.ToString().c_str());
      return 1;
    }
    row.inc_ms = Ms(t0, t1);
    const std::size_t log_bytes = FileBytes(inc_path + ".deltas");
    row.inc_bytes = log_bytes - last_log_bytes;
    last_log_bytes = log_bytes;
    rows.push_back(row);
  }

  // Correctness gate: base + deltas restores byte-identically to the
  // full checkpoint written at the same (final) batch.
  crawler::IncrementalCrawler from_deltas(&web, config);
  st = crawler::LoadCrawlerWithDeltasFromFile(inc_path, &from_deltas);
  if (!st.ok()) {
    std::fprintf(stderr, "FAIL: delta restore: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  crawler::IncrementalCrawler from_full(&web, config);
  st = crawler::LoadCrawlerFromFile(full_path, &from_full);
  if (!st.ok()) {
    std::fprintf(stderr, "FAIL: full restore: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  const bool restores_match = CheckpointBytesOf(from_deltas, options) ==
                              CheckpointBytesOf(from_full, options);

  std::printf(
      "incremental checkpoints: capacity=%zu rate=%.0f/day gap=%.2fd "
      "base=%zuB\n",
      config.collection_capacity, config.crawl_rate_pages_per_day, gap,
      base_bytes);
  std::printf("%8s %8s %12s %12s %7s %9s %9s %7s %7s\n", "day",
              "fetches", "full_B", "inc_B", "B_rto", "full_ms",
              "inc_ms", "ms_rto", "dirty%");
  double sum_full_b = 0.0, sum_inc_b = 0.0;
  std::vector<double> time_ratios;
  for (const CkptRow& r : rows) {
    const double dirty =
        100.0 * static_cast<double>(r.fetches) /
        static_cast<double>(config.collection_capacity);
    std::printf("%8.2f %8llu %12zu %12zu %7.3f %9.2f %9.2f %7.3f %7.2f\n",
                r.day, static_cast<unsigned long long>(r.fetches),
                r.full_bytes, r.inc_bytes,
                static_cast<double>(r.inc_bytes) /
                    static_cast<double>(r.full_bytes),
                r.full_ms, r.inc_ms, r.inc_ms / r.full_ms, dirty);
    sum_full_b += static_cast<double>(r.full_bytes);
    sum_inc_b += static_cast<double>(r.inc_bytes);
    time_ratios.push_back(r.inc_ms / r.full_ms);
  }
  const double byte_ratio = sum_inc_b / sum_full_b;
  const double time_ratio = Median(time_ratios);
  std::printf(
      "bytes %.1f%% of full (all intervals), wall-clock %.1f%% of full "
      "(median interval) (bound %.0f%%); restores %s\n",
      100.0 * byte_ratio, 100.0 * time_ratio, 100.0 * bound,
      restores_match ? "byte-identical" : "DIVERGED");

  if (!json_path.empty()) {
    std::ostringstream js;
    js.precision(17);
    js << "{\n  \"base_bytes\": " << base_bytes
       << ",\n  \"byte_ratio\": " << byte_ratio
       << ",\n  \"time_ratio\": " << time_ratio
       << ",\n  \"bound\": " << bound << ",\n  \"restores_match\": "
       << (restores_match ? "true" : "false") << ",\n  \"intervals\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const CkptRow& r = rows[i];
      js << (i == 0 ? "" : ",") << "\n    {\"day\": " << r.day
         << ", \"fetches\": " << r.fetches
         << ", \"full_bytes\": " << r.full_bytes
         << ", \"inc_bytes\": " << r.inc_bytes
         << ", \"full_ms\": " << r.full_ms
         << ", \"inc_ms\": " << r.inc_ms << "}";
    }
    js << "\n  ]\n}\n";
    std::ofstream out(json_path);
    out << js.str();
    if (!out.good()) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("json: wrote %s\n", json_path.c_str());
  }

  std::remove(inc_path.c_str());
  std::remove((inc_path + ".deltas").c_str());
  std::remove(full_path.c_str());

  bool ok = restores_match;
  if (byte_ratio >= bound) {
    std::fprintf(stderr, "FAIL: byte ratio %.3f >= bound %.3f\n",
                 byte_ratio, bound);
    ok = false;
  }
  if (time_ratio >= bound) {
    std::fprintf(stderr, "FAIL: wall-clock ratio %.3f >= bound %.3f\n",
                 time_ratio, bound);
    ok = false;
  }
  if (!restores_match) {
    std::fprintf(stderr,
                 "FAIL: base+deltas restore != full restore\n");
  }
  return ok ? 0 : 1;
}
