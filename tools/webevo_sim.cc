// webevo_sim — command-line driver for the webevo library.
//
// Three modes:
//   study    re-run the paper's Sections 2-3 measurement campaign and
//            print the Figure 2/4/5 statistics
//   crawl    run one crawler (incremental or periodic) and report its
//            freshness trajectory and load profile
//   compare  run the incremental and the periodic crawler side by side
//            on identical webs (the Figure 10 shoot-out)
//
// Examples:
//   webevo_sim study --days=128 --scale=0.2
//   webevo_sim crawl --crawler=incremental --policy=optimal --days=120
//   webevo_sim crawl --crawler=periodic --window=7 --no-shadowing
//   webevo_sim compare --capacity=2000 --days=150 --csv=out.csv
//
// All runs are deterministic for a given --seed.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "crawler/crawl_module_pool.h"
#include "crawler/incremental_crawler.h"
#include "crawler/periodic_crawler.h"
#include "crawler/snapshot.h"
#include "experiment/analyzers.h"
#include "experiment/csv_export.h"
#include "experiment/monitoring_experiment.h"
#include "simweb/simulated_web.h"
#include "tools/cli_flags.h"
#include "util/flags.h"
#include "util/table.h"

namespace {

using namespace webevo;

constexpr const char* kUsage = R"(usage: webevo_sim <mode> [flags]

modes:
  study     re-run the web-evolution measurement campaign
  crawl     run one crawler and report freshness/load
  compare   incremental vs periodic on identical webs

common flags:
  --seed=<n>        master seed               (default 19990217)
  --scale=<f>       web size multiplier, > 0  (default 0.15)
  --days=<f>        simulated days, > 0       (default 120; an
                    integer for study)
  --capacity=<n>    collection capacity, >= 1 (default 2000)
  --csv=<path>      also write the freshness series as CSV
  --faults=<name>   fault scenario: none|transient10|outage-storm|
                    site-death|flash-crowd    (default none)
  --adversarial=<name> adversarial-web scenario: none|spider-trap|
                    mirror-farm|domain-migration|heavy-tail
                    (default none; composes with --faults)
  --defense=on|off  crawler defense layer: diminishing-returns trap
                    throttling, mirror dedup, migration-following
                    (default off; off is byte-identical to a build
                    without the defense layer)
  --parallelism=<n> worker threads, 1 to 256: engine shards for
                    crawl and compare (default 1), site-window
                    visitors for study (default 4, at most one per
                    core); results are bit-identical at any value
  --pipeline=on|off incremental crawler's staged batch pipeline:
                    overlap batch B's fetches with batch B-1's
                    deferred freshness measure (default on; results
                    are bit-identical either way)

study flags:
  --window=<n>      pages per site, >= 1      (default 300)

crawl flags:
  --crawler=incremental|periodic              (default incremental)
  --policy=optimal|uniform|proportional       (incremental only)
  --estimator=EB|EP|ratio|naive|EL            (incremental only)
  --cycle=<days>    revisit cycle, > 0        (default 30)
  --window=<days>   batch window, > 0         (default 7; periodic only)
  --no-shadowing    periodic crawler updates in place

checkpoint flags (crawl mode):
  --checkpoint=<path>       write a crash-consistent whole-crawler
                            checkpoint (crawler + web state) at the end
                            of the run
  --checkpoint-every=<K>    also auto-checkpoint every K engine batches
                            (requires --checkpoint; default 0 = never)
  --resume=<path>           restore crawler + web from a checkpoint and
                            continue to --days; with the same seed and
                            flags the result is bit-identical to an
                            uninterrupted run (--days on the freshness
                            sample grid); a <path>.deltas log written
                            by --checkpoint-incremental is detected and
                            replayed automatically
  --checkpoint-incremental  O(dirty) checkpoints (incremental crawler
                            only): the first save writes a full base
                            image, every later one appends a sealed
                            delta segment to <path>.deltas instead of
                            rewriting the base (docs/STORAGE.md)
  --checkpoint-traffic      carry the pool's aggregate traffic ledger
                            in checkpoints, so a resumed run's load
                            numbers cover the whole crawl

storage flags (crawl mode):
  --store=map|paged         record-store backend for the collection
                            state (default map; paged spills records
                            to slotted page files — behaviour and
                            checkpoints are bit-identical either way)
  --store-dir=<dir>         scratch directory for --store=paged page
                            files; must be an existing, writable
                            directory                 (default ".")
)";

bool PipelineFromFlags(const FlagParser& flags) {
  return tools::OneOfFromFlags(flags, "pipeline", "on", {"on", "off"}) == "on";
}

// Each shard starts one worker thread.
constexpr int kMaxParallelism = 256;

int ParallelismFromFlags(const FlagParser& flags, int fallback = 1) {
  return tools::NumberFromFlags(flags, "parallelism", fallback, 1,
                                kMaxParallelism);
}

bool DefenseFromFlags(const FlagParser& flags) {
  return tools::OneOfFromFlags(flags, "defense", "off", {"on", "off"}) == "on";
}

/// Appends the freshness series to --csv, when set. False, after saying
/// so, when the file cannot be written.
bool MaybeWriteCsv(const FlagParser& flags,
                   const freshness::FreshnessTracker& tracker,
                   const std::string& label) {
  std::string path = flags.GetString("csv", "");
  if (path.empty()) return true;
  std::ofstream out(path, std::ios::app);
  for (std::size_t i = 0; i < tracker.size(); ++i) {
    out << label << ',' << tracker.times()[i] << ','
        << tracker.values()[i] << '\n';
  }
  out.close();
  if (!out) {
    std::printf("FAILED appending samples to %s\n", path.c_str());
    return false;
  }
  std::printf("appended %zu samples to %s\n", tracker.size(),
              path.c_str());
  return true;
}

int RunStudy(const FlagParser& flags) {
  simweb::SimulatedWeb web(tools::WebFromFlags(flags));
  experiment::MonitoringConfig config;
  config.num_days = tools::NumberFromFlags(flags, "days", 120, 1);
  config.window_size =
      tools::NumberFromFlags<std::size_t>(flags, "window", 300, 1);
  config.parallelism = ParallelismFromFlags(flags, config.parallelism);
  experiment::MonitoringExperiment experiment(&web, config);
  std::printf("monitoring %u sites for %d days (window %zu)...\n",
              web.num_sites(), config.num_days, config.window_size);
  Status st = experiment.Run();
  if (!st.ok()) {
    std::printf("failed: %s\n", st.ToString().c_str());
    return 1;
  }
  auto change = experiment::AnalyzeChangeIntervals(experiment.table());
  std::printf("\naverage change interval (Figure 2a):\n%s\n",
              change.overall.ToString().c_str());
  auto life =
      experiment::AnalyzeLifespans(experiment.table(), config.num_days);
  std::printf("visible lifespan, Method 1 (Figure 4a):\n%s\n",
              life.method1.ToString().c_str());
  auto survival =
      experiment::AnalyzeSurvival(experiment.table(), config.num_days);
  int half = experiment::SurvivalResult::DaysToReach(survival.overall,
                                                     0.5);
  std::printf("50%% of the day-0 cohort changed/disappeared by day: %d\n",
              half);
  std::string csv_path = flags.GetString("csv", "");
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    Status csv = experiment::WritePageStatsCsv(experiment.table(), out);
    out.close();
    const bool wrote = csv.ok() && out;
    std::printf("%s page stats to %s\n", wrote ? "wrote" : "FAILED writing",
                csv_path.c_str());
    if (!wrote) return 1;
  }
  return 0;
}

/// The crawl mode's report, the same for both crawlers: `st` (the
/// run's outcome) or the freshness chart, the second half's average
/// freshness and the pool's aggregate load.
int ReportCrawl(const FlagParser& flags, const Status& st,
                const std::string& kind, double days,
                const freshness::FreshnessTracker& tracker,
                const crawler::CrawlModulePool& pool) {
  if (!st.ok()) {
    std::printf("failed: %s\n", st.ToString().c_str());
    return 1;
  }
  if (!flags.GetString("resume", "").empty()) {
    std::printf("note: load stats below cover the resumed segment only; "
                "the freshness series is restored in full\n");
  }

  std::printf("freshness over %0.f days (%s crawler):\n%s\n", days,
              kind.c_str(),
              AsciiChart(tracker.times(), tracker.values(), 0.0, 1.0)
                  .c_str());
  TablePrinter table({"metric", "value"});
  table.AddRow({"time-avg freshness (2nd half)",
                TablePrinter::Fmt(tracker.TimeAverage(days / 2, days))});
  // Pool-level aggregate, not module 0's ledger: correct at any
  // parallelism, and — after a --checkpoint-traffic resume — covering
  // the whole crawl, not just the post-resume tail.
  const crawler::CrawlModulePool::Traffic traffic = pool.AggregateTraffic();
  table.AddRow({"peak load (pages/day)",
                TablePrinter::Fmt(traffic.PeakDailyRate(), 0)});
  table.AddRow({"avg load (pages/day)",
                TablePrinter::Fmt(traffic.AverageDailyRate(), 0)});
  table.AddRow({"fetches", TablePrinter::Fmt(static_cast<int64_t>(
                               traffic.fetch_count))});
  std::printf("%s", table.ToString().c_str());
  return MaybeWriteCsv(flags, tracker, kind) ? 0 : 1;
}

int RunCrawl(const FlagParser& flags) {
  const std::string kind = tools::CrawlerFromFlags(flags);
  simweb::SimulatedWeb web(tools::WebFromFlags(flags));
  const double days = tools::NumberFromFlags(flags, "days", 120.0, 0.0);
  const auto capacity =
      tools::NumberFromFlags<std::size_t>(flags, "capacity", 2000, 1);
  const double cycle = tools::NumberFromFlags(flags, "cycle", 30.0, 0.0);
  const std::string checkpoint = flags.GetString("checkpoint", "");
  const std::string resume = flags.GetString("resume", "");
  const auto checkpoint_every =
      tools::NumberFromFlags<uint64_t>(flags, "checkpoint-every", 0, 0);
  if (checkpoint_every > 0 && checkpoint.empty()) {
    std::printf("--checkpoint-every requires --checkpoint=<path>\n");
    return 2;
  }
  const bool checkpoint_incremental =
      flags.GetBool("checkpoint-incremental", false);
  const bool checkpoint_traffic = flags.GetBool("checkpoint-traffic", false);
  if (checkpoint_incremental && kind == "periodic") {
    std::printf("--checkpoint-incremental is incremental-crawler only "
                "(the periodic crawler rewrites its whole collection "
                "every cycle; see snapshot.h)\n");
    return 2;
  }
  const bool defense = DefenseFromFlags(flags);
  if (defense && kind == "periodic") {
    std::printf("--defense=on is incremental-crawler only (the defense "
                "layer lives in the incremental settle path)\n");
    return 2;
  }
  if (checkpoint_incremental && checkpoint.empty()) {
    std::printf("--checkpoint-incremental requires --checkpoint=<path>\n");
    return 2;
  }
  storage::StoreOptions store_options;
  if (tools::OneOfFromFlags(flags, "store", "map", {"map", "paged"}) ==
      "paged") {
    store_options.backend = storage::StoreOptions::Backend::kPaged;
    store_options.dir = flags.GetString("store-dir", ".");
    // A page file that cannot be created stops the run mid-crawl; say
    // so before crawling instead.
    std::error_code ec;
    if (!std::filesystem::is_directory(store_options.dir, ec) ||
        ::access(store_options.dir.c_str(), W_OK | X_OK) != 0) {
      std::printf("--store-dir=%s is not an existing, writable directory\n",
                  store_options.dir.c_str());
      return 2;
    }
  }
  crawler::CrawlerCheckpointOptions save_options;
  save_options.module_traffic = checkpoint_traffic;

  // Both configurations read their flags, so a malformed flag exits 2
  // whichever crawler runs; only the selected crawler is built (each
  // owns an engine thread pool and, paged, its own page files).
  crawler::IncrementalCrawlerConfig inc_config;
  inc_config.collection_capacity = capacity;
  inc_config.crawl_rate_pages_per_day = static_cast<double>(capacity) / cycle;
  inc_config.checkpoint_every_batches = checkpoint_every;
  inc_config.checkpoint_path = checkpoint;
  inc_config.checkpoint_incremental = checkpoint_incremental;
  inc_config.checkpoint_module_traffic = checkpoint_traffic;
  inc_config.store = store_options;
  inc_config.crawl_parallelism = ParallelismFromFlags(flags);
  inc_config.pipeline = PipelineFromFlags(flags);
  inc_config.defense_enabled = defense;
  tools::UpdateFromFlags(flags, &inc_config.update);
  crawler::PeriodicCrawlerConfig per_config;
  per_config.collection_capacity = capacity;
  per_config.cycle_days = cycle;
  per_config.crawl_window_days =
      tools::NumberFromFlags(flags, "window", 7.0, 0.0);
  per_config.shadowing = !flags.GetBool("no-shadowing", false);
  per_config.checkpoint_every_batches = checkpoint_every;
  per_config.checkpoint_path = checkpoint;
  per_config.checkpoint_module_traffic = checkpoint_traffic;
  per_config.store = store_options;
  per_config.crawl_parallelism = inc_config.crawl_parallelism;

  if (kind == "periodic") {
    crawler::PeriodicCrawler periodic(&web, per_config);
    Status st;
    if (!resume.empty()) {
      st = crawler::LoadCrawlerFromFile(resume, &periodic);
      if (st.ok()) {
        std::printf("resumed periodic crawler from %s at day %.2f\n",
                    resume.c_str(), periodic.now());
      }
    } else {
      st = periodic.Bootstrap(0.0);
    }
    if (st.ok()) st = periodic.RunUntil(days);
    if (st.ok() && !checkpoint.empty()) {
      st = crawler::SaveCrawlerToFile(periodic, checkpoint, save_options);
      if (st.ok()) {
        std::printf("checkpointed periodic crawler to %s\n",
                    checkpoint.c_str());
      }
    }
    return ReportCrawl(flags, st, kind, days, periodic.tracker(),
                       periodic.crawl_pool());
  }
  crawler::IncrementalCrawler incremental(&web, inc_config);
  Status st;
  if (!resume.empty()) {
    // An adjacent .deltas log means the checkpoint was written by
    // --checkpoint-incremental: restore the base, replay the chain.
    const bool with_deltas =
        static_cast<bool>(std::ifstream(resume + ".deltas"));
    st = with_deltas
             ? crawler::LoadCrawlerWithDeltasFromFile(resume, &incremental)
             : crawler::LoadCrawlerFromFile(resume, &incremental);
    if (st.ok()) {
      std::printf("resumed incremental crawler from %s%s at day %.2f\n",
                  resume.c_str(), with_deltas ? " (+deltas)" : "",
                  incremental.now());
    }
  } else {
    st = incremental.Bootstrap(0.0);
  }
  if (st.ok()) st = incremental.RunUntil(days);
  if (st.ok() && !checkpoint.empty()) {
    st = checkpoint_incremental
             ? crawler::CheckpointIncremental(&incremental, checkpoint,
                                              save_options)
             : crawler::SaveCrawlerToFile(incremental, checkpoint,
                                          save_options);
    if (st.ok()) {
      std::printf("checkpointed incremental crawler to %s%s\n",
                  checkpoint.c_str(),
                  checkpoint_incremental ? " (incremental)" : "");
    }
  }
  return ReportCrawl(flags, st, kind, days, incremental.tracker(),
                     incremental.crawl_pool());
}

int RunCompare(const FlagParser& flags) {
  const double days = tools::NumberFromFlags(flags, "days", 120.0, 0.0);
  const auto capacity =
      tools::NumberFromFlags<std::size_t>(flags, "capacity", 2000, 1);
  const double cycle = tools::NumberFromFlags(flags, "cycle", 30.0, 0.0);

  simweb::SimulatedWeb web_a(tools::WebFromFlags(flags));
  crawler::IncrementalCrawlerConfig inc_config;
  inc_config.collection_capacity = capacity;
  inc_config.crawl_rate_pages_per_day =
      static_cast<double>(capacity) / cycle;
  inc_config.crawl_parallelism = ParallelismFromFlags(flags);
  inc_config.pipeline = PipelineFromFlags(flags);
  // Compare mode only wires the defense into the incremental side;
  // the periodic crawler has no defense layer to switch on.
  inc_config.defense_enabled = DefenseFromFlags(flags);
  crawler::IncrementalCrawler inc(&web_a, inc_config);

  simweb::SimulatedWeb web_b(tools::WebFromFlags(flags));
  crawler::PeriodicCrawlerConfig per_config;
  per_config.collection_capacity = capacity;
  per_config.cycle_days = cycle;
  per_config.crawl_window_days =
      tools::NumberFromFlags(flags, "window", 7.0, 0.0);
  per_config.crawl_parallelism = ParallelismFromFlags(flags);
  crawler::PeriodicCrawler per(&web_b, per_config);

  if (!inc.Bootstrap(0.0).ok() || !inc.RunUntil(days).ok() ||
      !per.Bootstrap(0.0).ok() || !per.RunUntil(days).ok()) {
    std::printf("simulation failed\n");
    return 1;
  }
  const crawler::CrawlModulePool::Traffic inc_load =
      inc.crawl_pool().AggregateTraffic();
  const crawler::CrawlModulePool::Traffic per_load =
      per.crawl_pool().AggregateTraffic();
  TablePrinter table({"metric", "incremental", "periodic"});
  table.AddRow(
      {"freshness (2nd half)",
       TablePrinter::Fmt(inc.tracker().TimeAverage(days / 2, days)),
       TablePrinter::Fmt(per.tracker().TimeAverage(days / 2, days))});
  table.AddRow({"peak load", TablePrinter::Fmt(inc_load.PeakDailyRate(), 0),
                TablePrinter::Fmt(per_load.PeakDailyRate(), 0)});
  table.AddRow({"avg load",
                TablePrinter::Fmt(inc_load.AverageDailyRate(), 0),
                TablePrinter::Fmt(per_load.AverageDailyRate(), 0)});
  std::printf("%s", table.ToString().c_str());
  const bool wrote = MaybeWriteCsv(flags, inc.tracker(), "incremental") &&
                     MaybeWriteCsv(flags, per.tracker(), "periodic");
  return wrote ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  Status valid = flags.Validate(
      {"seed", "scale", "days", "capacity", "csv", "faults",
       "adversarial", "defense", "window",
       "crawler", "policy", "estimator", "cycle", "no-shadowing",
       "checkpoint", "checkpoint-every", "checkpoint-incremental",
       "checkpoint-traffic", "resume", "store", "store-dir",
       "parallelism", "pipeline", "help"});
  if (!valid.ok()) {
    std::printf("%s\n%s", valid.ToString().c_str(), kUsage);
    return 2;
  }
  if (flags.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }
  if (flags.positional().empty()) {
    std::printf("%s", kUsage);
    return 2;
  }
  const std::string& mode = flags.positional().front();
  if (mode == "study") return RunStudy(flags);
  if (mode == "crawl") return RunCrawl(flags);
  if (mode == "compare") return RunCompare(flags);
  std::printf("unknown mode '%s'\n%s", mode.c_str(), kUsage);
  return 2;
}
