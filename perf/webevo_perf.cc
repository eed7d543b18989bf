// webevo_perf — one workload of the end-to-end + per-layer benchmark
// (perf/README.md) per process.
//
//   webevo_perf --workload=<study|crawl-steady|crawl-hostile|serve-checkpoint>
//               [--seed=<n>] [--trace=<path>] [--scratch-dir=<dir>] [--smoke]
//               [--setup-only]
//
// Prints one JSON object on stdout: the effective web configuration,
// set-up time, end-to-end metrics, per-layer metrics, the output
// fingerprint and the count of attempted and failed operations.
//
// Only public library calls are timed, from outside the library. Set-up
// (web construction plus Bootstrap) is reported as setup_s and kept out
// of the timed region; --setup-only stops after it, so that set-up can
// be sampled in many processes. The library's own ledgers (engine stats, crawler
// stats, store stats, the view registry) are read as counters at the
// call boundaries. With --trace every span is kept in memory and written
// as JSONL once the run is over, and a direct SimulatedWeb::Fetch probe
// measures the fetch path at 1 and 4 threads.
//
// An operation fails when a call returns a non-OK Status, a reader
// acquires a torn view, a restored crawler does not re-save to the
// bytes it was saved from, or the engine's phase ledger for a RunUntil
// call adds up to more than the call's wall time. Injected fetch faults
// are workload, not failures.

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "crawler/incremental_crawler.h"
#include "crawler/snapshot.h"
#include "experiment/analyzers.h"
#include "experiment/monitoring_experiment.h"
#include "serving/view_registry.h"
#include "simweb/simulated_web.h"
#include "simweb/web_config.h"
#include "util/flags.h"
#include "util/hash.h"

namespace {

using namespace webevo;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kDefaultSeed = 19990217;
/// The probe's thread count: the crawl workloads' shard count, and the
/// most busy threads the benchmark ever runs.
constexpr std::size_t kProbeThreads = 4;
constexpr std::size_t kProbeUrls = 8000;
constexpr double kProbeSeconds = 0.25;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds of every thread of this process.
double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Nearest-rank percentile (pct in [0, 100]); 0 for no samples.
double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// A tail latency: the highest percentile of a fixed ladder that still
/// has at least ten samples beyond it, with that percentile and the
/// sample count. Below 20 samples no rung qualifies and the median is
/// reported anyway.
struct Tail {
  double value = 0.0;
  double pct = 50.0;
  std::size_t n = 0;
};

Tail TailOf(const std::vector<double>& v) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  const std::size_t n = v.size();
  for (double pct : kLadder) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n)));
    if (rank >= 1 && n - rank >= 10) return {Percentile(v, pct), pct, n};
  }
  return {Percentile(v, 50.0), 50.0, n};
}

/// Minimal ordered JSON object writer; non-finite numbers become null.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    char buf[32];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += Quote(key) + ": " + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.17g", i == 0 ? "" : ", ", v[i]);
    out += buf;
  }
  return out + "]";
}

/// In-memory span recorder. Spans are (name, start, end, parent,
/// thread); `ledger` marks a span whose duration is a library ledger
/// delta read at a call boundary rather than a timed interval — it is
/// laid out inside its parent, after its earlier siblings. Disabled
/// tracers record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span whose end is set by Close; returns its id (-1 when
  /// disabled). `name` must be a string literal.
  int64_t Open(const char* name, Clock::time_point begin, int64_t parent,
               int thread) {
    if (!enabled_) return -1;
    const Clock::time_point t0 = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, Us(begin), -1.0, parent, thread, false});
    busy_ += Clock::now() - t0;
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  void Close(int64_t id, Clock::time_point end) {
    if (id < 0) return;
    const Clock::time_point t0 = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_us = Us(end);
    busy_ += Clock::now() - t0;
  }

  int64_t Add(const char* name, Clock::time_point begin,
              Clock::time_point end, int64_t parent, int thread) {
    const int64_t id = Open(name, begin, parent, thread);
    Close(id, end);
    return id;
  }

  /// A ledger span of `seconds` starting at `begin`.
  void AddLedger(const char* name, Clock::time_point begin, double seconds,
                 int64_t parent) {
    if (!enabled_) return;
    const Clock::time_point t0 = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    const double start = Us(begin);
    spans_.push_back({name, start, start + 1e6 * seconds, parent, 0, true});
    busy_ += Clock::now() - t0;
  }

  /// Seconds spent recording spans, on every thread: the tracing
  /// overhead, measured where it is paid.
  double busy_seconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    return std::chrono::duration<double>(busy_).count();
  }

  bool WriteJsonl(const std::string& path) const {
    std::ofstream out(path);
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof line,
                    "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                    "\"end_us\": %.3f, \"parent\": %lld, \"thread\": %d, "
                    "\"ledger\": %s}\n",
                    i, s.name, s.start_us, s.end_us,
                    static_cast<long long>(s.parent), s.thread,
                    s.ledger ? "true" : "false");
      out << line;
    }
    out.close();
    return out.good();
  }

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int64_t parent;
    int thread;
    bool ledger;
  };

  double Us(Clock::time_point t) const { return 1e6 * Seconds(origin_, t); }

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  Clock::duration busy_{};
};

/// Benchmark operations attempted and failed, with the first few
/// failure messages.
struct Ops {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Record(bool ok, std::string_view what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (errors.size() < 8) errors.emplace_back(what);
  }
  void Check(const Status& st, const char* what) {
    if (st.ok()) {
      ++attempted;
    } else {
      Record(false, std::string(what) + ": " + st.ToString());
    }
  }
  void Merge(const Ops& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& e : other.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
  }
};

/// Everything one workload run reports.
struct Result {
  JsonObject config;
  /// Wall seconds of each timed set-up (see kWarmupSetups).
  std::vector<double> setups_s;
  /// The timed region: wall seconds, CPU seconds of the threads doing
  /// the workload's page work, and fetch attempts.
  double timed_s = 0.0;
  double timed_cpu_s = 0.0;
  uint64_t fetches = 0;
  std::vector<std::pair<std::string, double>> e2e;
  std::vector<std::pair<std::string, double>> layer;
  std::vector<std::pair<std::string, Tail>> tails;
  std::string fingerprint;
  JsonObject extra;
  Ops ops;

  void Layer(const std::string& name, double v) { layer.emplace_back(name, v); }
  void LayerTail(const std::string& name, const std::vector<double>& v) {
    const Tail t = TailOf(v);
    layer.emplace_back(name, t.value);
    tails.emplace_back(name, t);
  }
};

/// Set-up runs kWarmupSetups times untimed, then kSetups times timed,
/// and the last one is kept for the workload. The first set-ups of a
/// process grow its heap, and on a virtual machine the page faults that
/// costs vary up to threefold from hour to hour; once the heap has grown,
/// set-up time is the work set-up does. Set-up speed also differs between
/// processes by up to a third and barely within one, so run.py takes
/// set-ups from many processes (--setup-only).
constexpr int kWarmupSetups = 3;
constexpr int kSetups = 3;

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The paper's 270-site population (1/10 of it for --smoke), with sites
/// kept inside the study's page window as the measurement benches do.
simweb::WebConfig BaseWeb(uint64_t seed, bool smoke) {
  simweb::WebConfig wc = simweb::WebConfig().Scaled(smoke ? 0.1 : 1.0);
  wc.seed = seed;
  wc.max_site_size = 250;
  return wc;
}

/// The web configuration as the constructed web reports it — so a
/// requested body size or scenario can never silently become another.
JsonObject WebConfigJson(const simweb::SimulatedWeb& web, const char* faults,
                         const char* adversarial) {
  const simweb::WebConfig& c = web.config();
  JsonObject j;
  j.Int("seed", c.seed)
      .Int("sites", web.num_sites())
      .Int("page_slots", web.TotalSlots())
      .Int("max_site_size", c.max_site_size)
      .Int("page_body_bytes", c.page_body_bytes)
      .Str("faults", faults)
      .Bool("has_faults", c.HasFaults())
      .Num("fault_transient_prob", c.fault_transient_prob)
      .Num("fault_timeout_prob", c.fault_timeout_prob)
      .Str("adversarial", adversarial)
      .Bool("has_adversarial", c.HasAdversarial())
      .Num("adv_trap_site_prob", c.adv_trap_site_prob)
      .Int("adv_trap_links_per_fetch", c.adv_trap_links_per_fetch);
  return j;
}

/// Direct SimulatedWeb::Fetch probe: the same URLs fetched by one
/// thread, then split by site over kProbeThreads threads. Runs after
/// the fingerprint is taken, because it advances the web.
void ProbeFetch(simweb::SimulatedWeb& web, std::vector<simweb::Url> urls,
                Tracer& tracer, Result& r) {
  if (urls.size() > kProbeUrls) {
    std::vector<simweb::Url> sample;
    const std::size_t stride = urls.size() / kProbeUrls;
    for (std::size_t i = 0; i < urls.size() && sample.size() < kProbeUrls;
         i += stride) {
      sample.push_back(urls[i]);
    }
    urls = std::move(sample);
  }
  if (urls.empty()) return;
  std::vector<std::vector<double>> us(kProbeThreads);
  // Pass p fetches every URL at t0 + p, so each page's fetch times stay
  // non-decreasing across passes.
  auto fetch_all = [&web, &urls, &us](std::size_t lane, std::size_t lanes,
                                      double t0, int passes) {
    for (int pass = 0; pass < passes; ++pass) {
      for (const simweb::Url& url : urls) {
        if (url.site % lanes != lane) continue;
        const Clock::time_point begin = Clock::now();
        (void)web.Fetch(url, t0 + pass);
        us[lane].push_back(1e6 * Seconds(begin, Clock::now()));
      }
    }
  };

  // One serial pass sizes the probe: enough passes that the serial run
  // lasts about kProbeSeconds, so thread start-up cannot dominate the
  // parallel run when bodies are small.
  double t = web.now() + 1.0;
  web.BeginConcurrentBatch(t);
  const Clock::time_point s0 = Clock::now();
  fetch_all(0, 1, t, 1);
  const double pass_s = Seconds(s0, Clock::now());
  const int passes = static_cast<int>(
      std::clamp(std::ceil(kProbeSeconds / pass_s), 1.0, 64.0));
  fetch_all(0, 1, t + 1, passes - 1);
  const Clock::time_point s1 = Clock::now();
  web.EndConcurrentBatch();
  tracer.Add("simweb.probe_serial", s0, s1, -1, 0);
  const std::vector<double> serial_us = std::move(us[0]);
  us[0].clear();

  t += passes;
  web.BeginConcurrentBatch(t);
  const Clock::time_point p0 = Clock::now();
  {
    std::vector<std::thread> threads;
    for (std::size_t lane = 0; lane < kProbeThreads; ++lane) {
      threads.emplace_back(fetch_all, lane, kProbeThreads, t, passes);
    }
    for (std::thread& thread : threads) thread.join();
  }
  const Clock::time_point p1 = Clock::now();
  web.EndConcurrentBatch();
  tracer.Add("simweb.probe_parallel", p0, p1, -1, 0);

  std::vector<double> parallel_us;
  for (const auto& lane : us) {
    parallel_us.insert(parallel_us.end(), lane.begin(), lane.end());
  }
  r.Layer("simweb.probe_fetch_us_p50", Percentile(parallel_us, 50.0));
  r.LayerTail("simweb.probe_fetch_us_tail", parallel_us);
  r.Layer("simweb.probe_scaling", Seconds(s0, s1) / Seconds(p0, p1));
  r.extra.Num("probe_serial_us_p50", Percentile(serial_us, 50.0))
      .Int("probe_urls", urls.size())
      .Int("probe_passes", static_cast<uint64_t>(passes));
}

// ------------------------------------------------------------------ study

/// Section 2's campaign: daily visits of every site's page window. The
/// simweb evolution and the experiment tables do all the work.
Result RunStudy(uint64_t seed, bool smoke, bool setup_only, Tracer& tracer) {
  Result r;
  experiment::MonitoringConfig mc;
  mc.num_days = 128;
  mc.window_size = 3000;

  std::unique_ptr<simweb::SimulatedWeb> owned_web;
  std::unique_ptr<experiment::MonitoringExperiment> owned_study;
  for (int i = 0; i < kWarmupSetups + kSetups; ++i) {
    owned_study.reset();
    owned_web.reset();
    const Clock::time_point setup0 = Clock::now();
    owned_web = std::make_unique<simweb::SimulatedWeb>(BaseWeb(seed, smoke));
    owned_study = std::make_unique<experiment::MonitoringExperiment>(
        owned_web.get(), mc);
    if (i >= kWarmupSetups) {
      r.setups_s.push_back(Seconds(setup0, Clock::now()));
    }
  }
  simweb::SimulatedWeb& web = *owned_web;
  experiment::MonitoringExperiment& study = *owned_study;
  r.config = WebConfigJson(web, "none", "none");
  r.config.Int("days", static_cast<uint64_t>(mc.num_days))
      .Int("window_size", mc.window_size);
  if (setup_only) return r;

  std::vector<double> day_ms;
  const double cpu0 = CpuSeconds();
  const Clock::time_point t0 = Clock::now();
  const int64_t root = tracer.Open("workload", t0, -1, 0);
  for (int day = 0; day < mc.num_days; ++day) {
    const Clock::time_point d0 = Clock::now();
    r.ops.Check(study.RunDay(day), "RunDay");
    const Clock::time_point d1 = Clock::now();
    tracer.Add("experiment.RunDay", d0, d1, root, 0);
    day_ms.push_back(1e3 * Seconds(d0, d1));
  }
  const Clock::time_point t1 = Clock::now();
  tracer.Close(root, t1);
  r.timed_s = Seconds(t0, t1);
  r.timed_cpu_s = CpuSeconds() - cpu0;
  r.fetches = study.total_fetches();
  if (tracer.enabled()) {
    r.Layer("trace.overhead_share", tracer.busy_seconds() / r.timed_s);
  }

  r.Layer("simweb.fetch_us_mean",
          1e3 * Sum(day_ms) / static_cast<double>(r.fetches));
  r.Layer("experiment.day_ms_p50", Percentile(day_ms, 50.0));
  r.LayerTail("experiment.day_ms_tail", day_ms);

  // Output fingerprint: the Figure 2 and Figure 4 histograms.
  const experiment::ChangeIntervalResult fig2 =
      experiment::AnalyzeChangeIntervals(study.table());
  const experiment::LifespanResult fig4 =
      experiment::AnalyzeLifespans(study.table(), mc.num_days);
  auto counts = [](const Histogram& h) {
    std::vector<double> c;
    for (std::size_t i = 0; i < h.num_buckets(); ++i) {
      c.push_back(h.bucket_count(i));
    }
    return c;
  };
  JsonObject hist;
  hist.Raw("fig2", JsonArray(counts(fig2.overall)))
      .Raw("fig4_method1", JsonArray(counts(fig4.method1)))
      .Raw("fig4_method2", JsonArray(counts(fig4.method2)));
  r.extra.Raw("histograms", hist.str());
  r.fingerprint = Hex(Fnv1a64(hist.str()));

  if (tracer.enabled()) {
    std::vector<simweb::Url> urls;
    for (const auto& [url, stats] : study.table().stats()) {
      urls.push_back(url);
    }
    std::sort(urls.begin(), urls.end(), simweb::UrlIdentityLess{});
    ProbeFetch(web, std::move(urls), tracer, r);
  }
  return r;
}

// ------------------------------------------------------------------ crawl

struct CrawlSpec {
  std::size_t capacity = 20000;
  double pages_per_day = 10000.0;
  int shards = 4;
  double days = 30.0;
  uint32_t body_bytes = 16384;
  const char* faults = "none";
  const char* adversarial = "none";
  bool defense = false;
  /// serve-checkpoint: paged store, a view published after every step,
  /// a daily incremental checkpoint, an open-loop reader during the
  /// crawl, then full saves and restores.
  bool serve = false;
};

/// RunUntil advances the crawl a quarter day per call.
constexpr int kStepsPerDay = 4;
constexpr double kStepDays = 1.0 / kStepsPerDay;
constexpr double kReaderQps = 2000.0;
constexpr int kFullSaves = 3;
constexpr int kRestores = 3;

/// The engine ledger totals read at a call boundary.
struct Ledger {
  double plan = 0, fetch = 0, apply = 0, measure = 0;
  double apply_shard = 0, barrier = 0, measure_overlap = 0, plan_overlap = 0;
  double latency_sum = 0, latency_n = 0, fetches = 0, busiest = 0;
  double lanes_reused = 0, lanes_invalidated = 0;
  double admissions = 0, revocations = 0;

  static Ledger Read(const crawler::ShardedCrawlEngine::Stats& s) {
    Ledger l;
    l.plan = s.plan_seconds.sum();
    l.fetch = s.fetch_seconds.sum();
    l.apply = s.apply_seconds.sum();
    l.measure = s.measure_seconds.sum();
    l.apply_shard = s.apply_shard_seconds.sum();
    l.barrier = s.apply_barrier_seconds.sum();
    l.measure_overlap = s.measure_overlap_seconds.sum();
    l.plan_overlap = s.plan_overlap_seconds.sum();
    l.latency_sum = s.fetch_latency_seconds.sum();
    l.latency_n = static_cast<double>(s.fetch_latency_seconds.count());
    l.fetches = static_cast<double>(s.fetches);
    l.busiest = s.busiest_shard_fetches.sum();
    l.lanes_reused = s.spec_lanes_reused.sum();
    l.lanes_invalidated = s.spec_lanes_invalidated.sum();
    l.admissions = s.lease_admissions.sum();
    l.revocations = s.lease_revocations.sum();
    return l;
  }

  Ledger operator-(const Ledger& o) const {
    static constexpr double Ledger::*kFields[] = {
        &Ledger::plan,          &Ledger::fetch,
        &Ledger::apply,         &Ledger::measure,
        &Ledger::apply_shard,   &Ledger::barrier,
        &Ledger::measure_overlap, &Ledger::plan_overlap,
        &Ledger::latency_sum,   &Ledger::latency_n,
        &Ledger::fetches,       &Ledger::busiest,
        &Ledger::lanes_reused,  &Ledger::lanes_invalidated,
        &Ledger::admissions,    &Ledger::revocations};
    Ledger d;
    for (double Ledger::*f : kFields) d.*f = this->*f - o.*f;
    return d;
  }
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// What the open-loop reader measured.
struct ReaderStats {
  std::vector<double> latency_us;  ///< completion minus due time
  std::vector<double> acquire_us;
  std::vector<double> scan_us;
  std::vector<double> late_ms;  ///< wake-up lateness after a sleep
  uint64_t stale_rows = 0;
  Ops ops;
};

/// One query: count the `pages` rows whose stored copy is overdue —
/// older than the page's estimated change interval — and check that
/// the view is whole (row count matches, rows in canonical order).
bool ScanView(const serving::BatchView& view, uint64_t* stale) {
  if (view.pages.size() != view.collection_size) return false;
  const simweb::UrlIdentityLess less;
  for (std::size_t i = 0; i < view.pages.size(); ++i) {
    const serving::PageRow& row = view.pages[i];
    if (i > 0 && !less(view.pages[i - 1].url, row.url)) return false;
    if (row.est_rate > 0.0 &&
        (view.published_at - row.crawled_at) * row.est_rate > 1.0) {
      ++*stale;
    }
  }
  return true;
}

/// An open-loop reader at a fixed query rate: query i is due at
/// start + i / qps whether or not earlier queries finished, and its
/// latency counts from the due time.
class ReaderThread {
 public:
  ReaderThread(serving::ViewRegistry* views, Tracer* tracer)
      : views_(views), tracer_(tracer), thread_([this] { Run(); }) {
    cpu_clock_ok_ =
        pthread_getcpuclockid(thread_.native_handle(), &cpu_clock_) == 0;
  }
  ~ReaderThread() { Stop(); }
  ReaderThread(const ReaderThread&) = delete;
  ReaderThread& operator=(const ReaderThread&) = delete;

  /// CPU seconds the reader has used so far; valid until Stop().
  double CpuSeconds() const {
    timespec ts{};
    if (!cpu_clock_ok_ || clock_gettime(cpu_clock_, &ts) != 0) return 0.0;
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
  }

  /// Stops and joins the reader; returns what it measured.
  const ReaderStats& Stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
    return stats_;
  }

 private:
  void Run() {
    const auto interval = std::chrono::duration<double>(1.0 / kReaderQps);
    const Clock::time_point start = Clock::now();
    for (uint64_t i = 0; !stop_.load(std::memory_order_relaxed); ++i) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      interval * static_cast<double>(i));
      if (Clock::now() < due) {
        std::this_thread::sleep_until(due);
        stats_.late_ms.push_back(1e3 * Seconds(due, Clock::now()));
      }
      const Clock::time_point t0 = Clock::now();
      serving::ViewRef ref = views_->AcquireRef();
      const Clock::time_point t1 = Clock::now();
      const bool whole = ref && ScanView(*ref, &stats_.stale_rows);
      const Clock::time_point t2 = Clock::now();
      ref.reset();
      const Clock::time_point t3 = Clock::now();
      stats_.ops.Record(whole, "torn or missing view");
      stats_.latency_us.push_back(1e6 * Seconds(due, t3));
      stats_.acquire_us.push_back(1e6 * Seconds(t0, t1));
      stats_.scan_us.push_back(1e6 * Seconds(t1, t2));
      if (tracer_->enabled()) {
        const int64_t q = tracer_->Open("serving.query", t0, -1, 1);
        tracer_->Add("serving.AcquireRef", t0, t1, q, 1);
        tracer_->Add("serving.scan", t1, t2, q, 1);
        tracer_->Close(q, t3);
      }
    }
  }

  serving::ViewRegistry* const views_;
  Tracer* const tracer_;
  std::atomic<bool> stop_{false};
  ReaderStats stats_;
  std::thread thread_;  // starts once the members above exist
  clockid_t cpu_clock_{};
  bool cpu_clock_ok_ = false;
};

std::size_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::size_t>(size);
}

std::string SaveBytes(const crawler::IncrementalCrawler& c, Ops& ops) {
  std::ostringstream out;
  ops.Check(crawler::SaveCrawler(c, out), "SaveCrawler");
  return out.str();
}

crawler::IncrementalCrawlerConfig CrawlerConfig(const CrawlSpec& spec,
                                                bool smoke,
                                                const std::string& store_dir) {
  crawler::IncrementalCrawlerConfig config;
  config.collection_capacity = smoke ? spec.capacity / 10 : spec.capacity;
  config.crawl_rate_pages_per_day =
      smoke ? spec.pages_per_day / 10.0 : spec.pages_per_day;
  config.crawl_parallelism = spec.shards;
  config.pipeline = true;
  config.defense_enabled = spec.defense;
  config.crawl.per_site_delay_days = 1e-4;  // the paper's ~10 seconds
  config.crawl.enforce_politeness = true;
  if (spec.serve) {
    config.store.backend = storage::StoreOptions::Backend::kPaged;
    config.store.dir = store_dir;
    config.checkpoint_incremental = true;  // arms delta tracking
  }
  return config;
}

Result RunCrawl(const CrawlSpec& spec, uint64_t seed, bool smoke,
                bool setup_only, const std::string& scratch, Tracer& tracer) {
  Result r;
  simweb::WebConfig wc = BaseWeb(seed, smoke);
  wc.page_body_bytes = spec.body_bytes;
  Status st = simweb::ApplyFaultScenario(spec.faults, &wc);
  if (st.ok()) st = simweb::ApplyAdversarialScenario(spec.adversarial, &wc);
  if (st.ok()) st = wc.Validate();
  if (!st.ok()) {
    r.ops.Check(st, "web config");
    return r;
  }
  const std::string live_dir = scratch + "/live";
  const std::string inc_path = scratch + "/inc.ckpt";
  const std::string full_path = scratch + "/full.ckpt";
  if (spec.serve) std::filesystem::create_directories(live_dir);
  const crawler::IncrementalCrawlerConfig config =
      CrawlerConfig(spec, smoke, live_dir);

  std::unique_ptr<simweb::SimulatedWeb> owned_web;
  std::unique_ptr<crawler::IncrementalCrawler> owned_crawler;
  for (int i = 0; i < kWarmupSetups + kSetups; ++i) {
    owned_crawler.reset();
    owned_web.reset();
    const Clock::time_point setup0 = Clock::now();
    owned_web = std::make_unique<simweb::SimulatedWeb>(wc);
    owned_crawler = std::make_unique<crawler::IncrementalCrawler>(
        owned_web.get(), config);
    r.ops.Check(owned_crawler->Bootstrap(0.0), "Bootstrap");
    // The first view, so every reader query finds one.
    if (spec.serve) owned_crawler->PublishViewNow();
    if (i >= kWarmupSetups) {
      r.setups_s.push_back(Seconds(setup0, Clock::now()));
    }
  }
  simweb::SimulatedWeb& web = *owned_web;
  crawler::IncrementalCrawler& c = *owned_crawler;

  r.config = WebConfigJson(web, spec.faults, spec.adversarial);
  r.config.Int("capacity", config.collection_capacity)
      .Num("pages_per_day", config.crawl_rate_pages_per_day)
      .Int("shards", static_cast<uint64_t>(config.crawl_parallelism))
      .Bool("pipeline", config.pipeline)
      .Bool("defense", config.defense_enabled)
      .Str("store", spec.serve ? "paged" : "map")
      .Num("days", spec.days)
      .Num("step_days", kStepDays);
  if (setup_only) return r;

  auto store_totals = [&c](std::size_t* reads, std::size_t* evictions) {
    *reads = *evictions = 0;
    for (int s = 0; s < c.collection().num_shards(); ++s) {
      const storage::StoreStats ss =
          c.collection().shard(static_cast<std::size_t>(s)).store_stats();
      *reads += ss.page_reads;
      *evictions += ss.page_evictions;
    }
  };
  std::size_t reads0 = 0, evictions0 = 0;
  store_totals(&reads0, &evictions0);
  const crawler::IncrementalCrawler::Stats stats0 = c.stats();
  const Ledger ledger0 = Ledger::Read(c.engine().stats());

  std::vector<double> step_ms, publish_ms, inc_ms, inc_bytes;
  double crawl_wall = 0.0;
  std::unique_ptr<ReaderThread> reader;
  const int steps = static_cast<int>(std::lround(spec.days * kStepsPerDay));
  const double cpu0 = CpuSeconds();
  const Clock::time_point t0 = Clock::now();
  const int64_t root = tracer.Open("workload", t0, -1, 0);
  if (spec.serve) reader = std::make_unique<ReaderThread>(&c.views(), &tracer);
  for (int k = 1; k <= steps; ++k) {
    const bool day_end = k % kStepsPerDay == 0;
    const Ledger before = Ledger::Read(c.engine().stats());
    const Clock::time_point s0 = Clock::now();
    const int64_t span = tracer.Open("crawler.RunUntil", s0, root, 0);
    r.ops.Check(c.RunUntil(kStepDays * k), "RunUntil");
    const Clock::time_point s1 = Clock::now();
    const Ledger d = Ledger::Read(c.engine().stats()) - before;
    // The engine's phases run one after another inside the call (the
    // pipeline's overlapped work is timed inside fetch), so their ledger
    // delta can never exceed the call's wall time. More means a phase
    // was counted twice or outside its call, and every share built on
    // the ledger would be wrong.
    r.ops.Record(d.plan + d.fetch + d.apply + d.measure <=
                     Seconds(s0, s1) + 1e-6,
                 "engine phase ledger exceeds the RunUntil wall");
    if (tracer.enabled()) {
      // The engine's phase ledger for this call, laid end to end inside
      // it; the rest of the call is the crawler's unattributed time.
      Clock::time_point at = s0;
      const std::pair<const char*, double> phases[] = {
          {"frontier.plan", d.plan},
          {"engine.fetch", d.fetch},
          {"apply", d.apply},
          {"freshness.measure", d.measure}};
      for (const auto& [name, seconds] : phases) {
        tracer.AddLedger(name, at, seconds, span);
        at += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(seconds));
      }
    }
    tracer.Close(span, s1);
    step_ms.push_back(1e3 * Seconds(s0, s1));
    crawl_wall += Seconds(s0, s1);

    if (spec.serve) {
      const Clock::time_point p0 = Clock::now();
      c.PublishViewNow();
      const Clock::time_point p1 = Clock::now();
      tracer.Add("serving.PublishViewNow", p0, p1, root, 0);
      publish_ms.push_back(1e3 * Seconds(p0, p1));
    }
    if (spec.serve && day_end) {
      const std::size_t log0 = FileBytes(inc_path + ".deltas");
      const Clock::time_point c0 = Clock::now();
      r.ops.Check(crawler::CheckpointIncremental(&c, inc_path),
                  "CheckpointIncremental");
      const Clock::time_point c1 = Clock::now();
      tracer.Add("snapshot.CheckpointIncremental", c0, c1, root, 0);
      inc_ms.push_back(1e3 * Seconds(c0, c1));
      // The first call writes the base image; later ones append a
      // delta segment.
      inc_bytes.push_back(static_cast<double>(
          inc_ms.size() == 1 ? FileBytes(inc_path)
                             : FileBytes(inc_path + ".deltas") - log0));
    }
  }
  // The open-loop reader's CPU grows with wall time, not with pages;
  // it is the serving load, measured by the query metrics instead.
  r.timed_cpu_s = CpuSeconds() - (reader ? reader->CpuSeconds() : 0.0) - cpu0;
  const ReaderStats* rs = reader ? &reader->Stop() : nullptr;
  const Clock::time_point t1 = Clock::now();
  tracer.Close(root, t1);
  r.timed_s = Seconds(t0, t1);
  if (tracer.enabled()) {
    r.Layer("trace.overhead_share", tracer.busy_seconds() / r.timed_s);
  }

  const Ledger L = Ledger::Read(c.engine().stats()) - ledger0;
  r.fetches = static_cast<uint64_t>(L.fetches);
  r.e2e.emplace_back("freshness", c.tracker().TimeAverage());

  const int n = spec.shards;
  r.Layer("simweb.fetch_us_mean", 1e6 * Ratio(L.latency_sum, L.latency_n));
  r.Layer("engine.fetch_s", L.fetch);
  r.Layer("engine.fetch_share", Ratio(L.fetch, crawl_wall));
  r.Layer("engine.fetch_parallel_eff", Ratio(L.latency_sum, L.fetch * n));
  r.Layer("engine.shard_skew", Ratio(L.busiest * n, L.fetches));
  r.Layer("frontier.plan_s", L.plan);
  r.Layer("frontier.plan_share", Ratio(L.plan, crawl_wall));
  r.Layer("frontier.spec_reuse_ratio",
          Ratio(L.lanes_reused, L.lanes_reused + L.lanes_invalidated));
  r.Layer("pipeline.ceiling_share",
          Ratio(L.plan + L.measure + L.measure_overlap + L.plan_overlap,
                crawl_wall));
  r.Layer("apply.s", L.apply);
  r.Layer("apply.share", Ratio(L.apply, crawl_wall));
  r.Layer("apply.shard_s", L.apply_shard);
  r.Layer("apply.barrier_s", L.barrier);
  r.Layer("apply.barrier_share", Ratio(L.barrier, L.apply));
  r.Layer("apply.lease_revocation_ratio",
          Ratio(L.revocations, L.admissions + L.revocations));
  r.Layer("freshness.measure_s", L.measure);
  r.Layer("freshness.measure_share", Ratio(L.measure, crawl_wall));
  r.Layer("crawler.step_ms_p50", Percentile(step_ms, 50.0));
  r.LayerTail("crawler.step_ms_tail", step_ms);
  const double unattributed =
      crawl_wall - (L.plan + L.fetch + L.apply + L.measure);
  r.Layer("crawler.unattributed_s", unattributed);
  r.Layer("crawler.unattributed_share", Ratio(unattributed, crawl_wall));
  const crawler::IncrementalCrawler::Stats& stats = c.stats();
  r.Layer("crawler.wasted_fetch_share",
          Ratio(static_cast<double>(stats.wasted_fetches -
                                    stats0.wasted_fetches),
                L.fetches));
  r.Layer("crawler.failure_share",
          Ratio(static_cast<double>(stats.fetch_failures -
                                    stats0.fetch_failures),
                L.fetches));
  r.extra.Num("crawl_wall_s", crawl_wall)
      .Int("collection_size", c.collection().size())
      .Int("all_urls", c.all_urls().size())
      .Int("pipelined_batches", c.engine().stats().pipelined_batches)
      .Int("speculative_plans", c.engine().stats().speculative_plans);

  const std::string saved = SaveBytes(c, r.ops);
  r.fingerprint = Hex(Fnv1a64(saved));

  if (spec.serve) {
    r.e2e.emplace_back("query_p50_us", Percentile(rs->latency_us, 50.0));
    r.e2e.emplace_back("query_p99_us", Percentile(rs->latency_us, 99.0));
    r.e2e.emplace_back("checkpoint_inc_ms", Percentile(inc_ms, 50.0));
    r.ops.Merge(rs->ops);
    r.Layer("serving.publish_ms_p50", Percentile(publish_ms, 50.0));
    r.LayerTail("serving.publish_ms_tail", publish_ms);
    r.Layer("serving.publish_share", Ratio(Sum(publish_ms) / 1e3, r.timed_s));
    r.LayerTail("serving.acquire_us_tail", rs->acquire_us);
    r.Layer("serving.scan_us_p50", Percentile(rs->scan_us, 50.0));
    r.LayerTail("serving.generator_late_ms_tail", rs->late_ms);
    r.Layer("snapshot.inc_bytes_p50", Percentile(inc_bytes, 50.0));
    r.Layer("snapshot.inc_mb_per_s",
            Ratio(Sum(inc_bytes) / 1e6, Sum(inc_ms) / 1e3));
    r.Layer("snapshot.checkpoint_share", Ratio(Sum(inc_ms) / 1e3, r.timed_s));
    r.Layer("snapshot.delta_log_bytes",
            static_cast<double>(FileBytes(inc_path + ".deltas")));
    std::size_t reads = 0, evictions = 0;
    store_totals(&reads, &evictions);
    r.Layer("storage.page_reads", static_cast<double>(reads - reads0));
    r.Layer("storage.page_evictions",
            static_cast<double>(evictions - evictions0));
    r.extra.Int("queries", rs->latency_us.size())
        .Int("stale_rows_seen", rs->stale_rows);

    std::vector<double> full_ms;
    for (int i = 0; i < kFullSaves; ++i) {
      const Clock::time_point f0 = Clock::now();
      r.ops.Check(crawler::SaveCrawlerToFile(c, full_path),
                  "SaveCrawlerToFile");
      const Clock::time_point f1 = Clock::now();
      tracer.Add("snapshot.SaveCrawlerToFile", f0, f1, -1, 0);
      full_ms.push_back(1e3 * Seconds(f0, f1));
    }
    r.e2e.emplace_back("checkpoint_full_ms", Percentile(full_ms, 50.0));
    r.Layer("snapshot.full_bytes", static_cast<double>(FileBytes(full_path)));

    // Restores into a fresh web and crawler; each must re-save to the
    // exact bytes the live crawler saves.
    std::vector<double> restore_ms;
    for (int i = 0; i < kRestores; ++i) {
      const std::string dir = scratch + "/restore" + std::to_string(i);
      std::filesystem::create_directories(dir);
      simweb::SimulatedWeb fresh_web(wc);
      crawler::IncrementalCrawler restored(&fresh_web,
                                           CrawlerConfig(spec, smoke, dir));
      const Clock::time_point l0 = Clock::now();
      const Status loaded =
          crawler::LoadCrawlerWithDeltasFromFile(inc_path, &restored);
      const Clock::time_point l1 = Clock::now();
      r.ops.Check(loaded, "LoadCrawlerWithDeltasFromFile");
      tracer.Add("snapshot.LoadCrawlerWithDeltasFromFile", l0, l1, -1, 0);
      restore_ms.push_back(1e3 * Seconds(l0, l1));
      if (loaded.ok()) {
        r.ops.Record(SaveBytes(restored, r.ops) == saved,
                     "restored crawler re-saves to different bytes");
      }
    }
    r.e2e.emplace_back("restore_ms", Percentile(restore_ms, 50.0));
  }

  if (tracer.enabled()) {
    std::vector<simweb::Url> urls;
    c.collection().ForEachCanonical(
        [&urls](const crawler::CollectionEntry& e) { urls.push_back(e.url); });
    ProbeFetch(web, std::move(urls), tracer, r);
  }
  return r;
}

CrawlSpec SpecFor(const std::string& workload) {
  CrawlSpec spec;
  if (workload == "crawl-hostile") {
    spec.days = 40.0;
    spec.body_bytes = 0;
    spec.faults = "transient10";
    spec.adversarial = "spider-trap";
    spec.defense = true;
  } else if (workload == "serve-checkpoint") {
    spec.shards = 2;
    spec.days = 10.0;
    spec.body_bytes = 0;
    spec.serve = true;
  }
  return spec;
}

constexpr const char* kUsage =
    "usage: webevo_perf --workload=<study|crawl-steady|crawl-hostile|"
    "serve-checkpoint>\n"
    "                   [--seed=<n>] [--trace=<path>] [--scratch-dir=<dir>] "
    "[--smoke] [--setup-only]\n";

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  Status st = flags.Validate(
      {"workload", "seed", "trace", "scratch-dir", "smoke", "setup-only"});
  const std::string workload = flags.GetString("workload", "");
  if (!st.ok() || !flags.positional().empty() ||
      (workload != "study" && workload != "crawl-steady" &&
       workload != "crawl-hostile" && workload != "serve-checkpoint")) {
    std::fprintf(stderr, "%s%s", st.ok() ? "" : (st.ToString() + "\n").c_str(),
                 kUsage);
    return 2;
  }
  const std::string seed_flag =
      flags.GetString("seed", std::to_string(kDefaultSeed));
  uint64_t seed = 0;
  const auto [end, ec] = std::from_chars(
      seed_flag.data(), seed_flag.data() + seed_flag.size(), seed);
  if (ec != std::errc() || end != seed_flag.data() + seed_flag.size()) {
    std::fprintf(stderr, "--seed must be an integer in [0, 2^64)\n%s",
                 kUsage);
    return 2;
  }
  const bool smoke = flags.GetBool("smoke", false);
  const bool setup_only = flags.GetBool("setup-only", false);
  const std::string trace_path = flags.GetString("trace", "");
  const std::string scratch = flags.GetString("scratch-dir", ".");
  Tracer tracer(!trace_path.empty());

  Result r = workload == "study"
                 ? RunStudy(seed, smoke, setup_only, tracer)
                 : RunCrawl(SpecFor(workload), seed, smoke, setup_only,
                            scratch, tracer);

  if (tracer.enabled()) {
    r.ops.Record(tracer.WriteJsonl(trace_path),
                 "cannot write trace " + trace_path);
  }

  const auto fetches = static_cast<double>(r.fetches);
  JsonObject e2e;
  e2e.Num("setup_s", Percentile(r.setups_s, 50.0))
      .Num("pages_per_s", Ratio(fetches, r.timed_s))
      .Num("cpu_us_per_page", 1e6 * Ratio(r.timed_cpu_s, fetches))
      .Num("peak_rss_mb", PeakRssMb());
  for (const auto& [name, v] : r.e2e) e2e.Num(name, v);
  JsonObject layer;
  for (const auto& [name, v] : r.layer) layer.Num(name, v);
  JsonObject tails;
  for (const auto& [name, t] : r.tails) {
    JsonObject tj;
    tj.Num("pct", t.pct).Int("n", t.n);
    tails.Raw(name, tj.str());
  }
  std::string errors = "[";
  for (std::size_t i = 0; i < r.ops.errors.size(); ++i) {
    errors += (i == 0 ? "" : ", ") + JsonObject::Quote(r.ops.errors[i]);
  }
  errors += "]";

  JsonObject out;
  out.Str("workload", workload)
      .Int("seed", seed)
      .Bool("smoke", smoke)
      .Bool("traced", tracer.enabled())
      .Raw("config", r.config.str())
      .Num("timed_s", r.timed_s)
      .Num("timed_cpu_s", r.timed_cpu_s)
      .Int("fetches", r.fetches)
      .Raw("setups_s", JsonArray(r.setups_s))
      .Raw("e2e", e2e.str())
      .Raw("layer", layer.str())
      .Raw("tails", tails.str())
      .Str("fingerprint", r.fingerprint)
      .Raw("extra", r.extra.str())
      .Int("attempted", r.ops.attempted)
      .Int("failed", r.ops.failed)
      .Raw("errors", errors);
  std::printf("%s\n", out.str().c_str());
  return 0;
}
