// Scenario-matrix bench: the incremental crawler on faulty and hostile
// webs. A cell pairs a fault scenario (`--faults=` on the tools) with
// an adversarial one (`--adversarial=`). Every cell runs one
// procedure: the defense layer off and on, each at N = 1 and N = 8
// shards, where the N = 8 run saves a checkpoint at days/2 that a
// fresh N = 1 crawler resumes. Every cell must then pass five gates:
//
//   (a) determinism — the N = 1 and N = 8 final checkpoints are
//       byte-identical, with the defense off and on;
//   (b) resumability — the mid-run N = 8 checkpoint, resumed at N = 1,
//       rejoins the straight N = 1 run byte for byte, in both modes
//       (backoff timers, quarantines, throttle levels and the
//       fingerprint registry all cross the restart);
//   (c) estimator hygiene — in both modes, failed fetches land in the
//       failure ledger and never in the visit evidence the change
//       estimators consume;
//   (d) graceful degradation — the defended crawl's freshness over the
//       second half is at least a fraction of the baseline cell's.
//       Cells with site-death or domain-migration are exempt: dead and
//       migrated sites cap reachable freshness by construction;
//   (e) waste bound — where the undefended crawl spends >= 2% of its
//       crawls on duplicate content, the defended crawl's share is at
//       most a fraction of that. Below 2% the attack never bit.
//
// Usage:
//   bench_scenarios [--json <path>] [cell...]
//     A cell is <fault>, <adversarial> or <fault>+<adversarial>. The
//     default matrix is baseline, the four fault-only cells, the four
//     adversarial-only cells, and four composed cells. The baseline
//     cell always runs, because gate (d) reads it.
// Env:
//   WEBEVO_SCALE                    workload multiplier (default 1.0)
//   WEBEVO_DAYS                     virtual days to crawl (default 14)
//   WEBEVO_REQUIRE_FRESHNESS_RATIO  gate (d)'s fraction (default 0.5)
//   WEBEVO_REQUIRE_WASTE_REDUCTION  gate (e)'s fraction (default 0.5)
//
// Exits 1 if any cell fails a gate, 2 on a usage error or a failed run.

#include <algorithm>
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
#include "util/ledger.h"
#include "util/table.h"

namespace {

using namespace webevo;

struct Cell {
  std::string name;
  std::string fault = "none";
  std::string adversarial = "none";
};

// A failed run is not a gate verdict: report it and exit 2.
void Require(const Status& st, const std::string& what) {
  if (st.ok()) return;
  std::fprintf(stderr, "%s: %s\n", what.c_str(), st.ToString().c_str());
  std::exit(2);
}

simweb::WebConfig ScenarioWeb(const Cell& cell, double scale) {
  simweb::WebConfig wc = simweb::WebConfig().Scaled(0.06 * scale);
  wc.seed = 19990217;
  wc.max_site_size = 120;
  Require(simweb::ApplyFaultScenario(cell.fault, &wc), cell.name);
  Require(simweb::ApplyAdversarialScenario(cell.adversarial, &wc),
          cell.name);
  return wc;
}

// "<fault>+<adversarial>", or a single scenario name of either family.
// Exits 2 on an unknown name.
Cell ParseCell(const std::string& name) {
  Cell cell{name};
  const std::size_t plus = name.find('+');
  simweb::WebConfig probe;
  if (plus != std::string::npos) {
    cell.fault = name.substr(0, plus);
    cell.adversarial = name.substr(plus + 1);
  } else if (simweb::ApplyFaultScenario(name, &probe).ok()) {
    cell.fault = name;
  } else {
    cell.adversarial = name;
  }
  ScenarioWeb(cell, 1.0);
  return cell;
}

crawler::IncrementalCrawlerConfig CrawlerConfig(int shards, bool defense) {
  crawler::IncrementalCrawlerConfig config;
  config.collection_capacity = 1000;
  config.crawl_rate_pages_per_day = 500.0;
  config.freshness_sample_interval_days = 0.5;
  config.crawl_parallelism = shards;
  config.crawl.per_site_delay_days = 1e-4;
  config.crawl.enforce_politeness = true;
  config.defense_enabled = defense;
  return config;
}

std::string CheckpointBytes(const crawler::IncrementalCrawler& crawl) {
  std::ostringstream out;
  Require(crawler::SaveCrawler(crawl, out), "save");
  return out.str();
}

// One defense mode of a cell: the straight N = 1 run's ledger and the
// verdicts of gates (a) to (c).
struct Mode {
  crawler::IncrementalCrawler::Stats stats;
  double freshness = 0.0;  // time-averaged over the second half
  bool shard_identical = false;
  bool resume_identical = false;
  bool estimators_clean = false;
  double WastedShare() const {
    if (stats.crawls == 0) return 0.0;
    return static_cast<double>(stats.wasted_fetches) /
           static_cast<double>(stats.crawls);
  }
};

Mode RunMode(const Cell& cell, bool defense, double scale, double days) {
  const std::string what =
      cell.name + (defense ? " (defense on)" : " (defense off)");
  Mode m;
  std::string want;
  {
    simweb::SimulatedWeb web(ScenarioWeb(cell, scale));
    crawler::IncrementalCrawler serial(&web, CrawlerConfig(1, defense));
    Require(serial.Bootstrap(0.0), what);
    Require(serial.RunUntil(days), what);
    want = CheckpointBytes(serial);
    m.stats = serial.stats();
    m.freshness = serial.tracker().TimeAverage(days / 2, days);
    // Every planned slot is a politeness rejection, a classified
    // failure, a 404, or a successful visit; only the last may feed
    // the estimators.
    const auto& s = m.stats;
    const auto& update = serial.update_module();
    const uint64_t non_visits =
        s.politeness_retries + s.fetch_failures + web.not_found_count();
    m.estimators_clean = update.failures_recorded() == s.fetch_failures &&
                         update.visits_recorded() == s.crawls - non_visits;
  }
  std::string mid;
  {
    simweb::SimulatedWeb web(ScenarioWeb(cell, scale));
    crawler::IncrementalCrawler sharded(&web, CrawlerConfig(8, defense));
    Require(sharded.Bootstrap(0.0), what);
    Require(sharded.RunUntil(days / 2), what);
    mid = CheckpointBytes(sharded);
    Require(sharded.RunUntil(days), what);
    m.shard_identical = CheckpointBytes(sharded) == want;
  }
  simweb::SimulatedWeb web(ScenarioWeb(cell, scale));
  crawler::IncrementalCrawler resumed(&web, CrawlerConfig(1, defense));
  std::istringstream mid_in(mid);
  Require(crawler::LoadCrawler(mid_in, &resumed), what + " resume");
  Require(resumed.RunUntil(days), what + " resume");
  m.resume_identical = CheckpointBytes(resumed) == want;
  return m;
}

struct CellResult {
  Cell cell;
  Mode off;
  Mode on;
  bool ok = true;
};

// The mode's ledger is the crawler's view summary: every row of the
// Stats table, under the name and value a BatchView shows.
void WriteMode(std::ostream& js, const char* key, const Mode& m) {
  auto flag = [](bool b) { return b ? "true" : "false"; };
  js << "     \"" << key << "\": {";
  const char* sep = "";
  for (const auto& [name, value] : ledger::Summary(m.stats)) {
    js << sep << "\"" << name << "\": " << value;
    sep = ", ";
  }
  js << ",\n       \"wasted_share\": " << m.WastedShare()
     << ", \"freshness\": " << m.freshness
     << ", \"shard_identical\": " << flag(m.shard_identical)
     << ", \"resume_identical\": " << flag(m.resume_identical)
     << ", \"estimators_clean\": " << flag(m.estimators_clean) << "}";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Banner(
      "Scenario matrix: determinism and graceful degradation on faulty "
      "and hostile webs",
      "an incremental crawler must keep its collection fresh even when "
      "parts of the web misbehave or are actively hostile (Sections "
      "4-5, robustness)");

  std::vector<std::string> names;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--json requires a path\n");
        return 2;
      }
      json_path = argv[++i];
      continue;
    }
    names.push_back(argv[i]);
  }
  if (names.empty()) {
    names = {
        "baseline",
        "transient10",
        "outage-storm",
        "site-death",
        "flash-crowd",
        "spider-trap",
        "mirror-farm",
        "domain-migration",
        "heavy-tail",
        "transient10+spider-trap",
        "outage-storm+mirror-farm",
        "site-death+domain-migration",
        "flash-crowd+heavy-tail",
    };
  }
  if (std::find(names.begin(), names.end(), "baseline") == names.end()) {
    names.insert(names.begin(), "baseline");
  }
  std::vector<Cell> cells;
  for (const std::string& name : names) cells.push_back(ParseCell(name));

  const double scale = bench::ScaleFromEnv();
  const double days = bench::EnvOr("WEBEVO_DAYS", 14.0);
  const double freshness_ratio =
      bench::EnvOr("WEBEVO_REQUIRE_FRESHNESS_RATIO", 0.5);
  const double waste_reduction =
      bench::EnvOr("WEBEVO_REQUIRE_WASTE_REDUCTION", 0.5);
  std::printf("scale %.2f, %.0f virtual days, %zu cells; freshness gate "
              "%.2fx baseline, waste gate %.2fx undefended\n\n",
              scale, days, cells.size(), freshness_ratio, waste_reduction);

  std::vector<CellResult> results;
  double baseline_freshness = 0.0;
  for (const Cell& cell : cells) {
    results.push_back({cell, RunMode(cell, false, scale, days),
                       RunMode(cell, true, scale, days)});
    if (cell.name == "baseline") {
      baseline_freshness = results.back().on.freshness;
    }
  }

  TablePrinter table({"cell", "defense", "crawls", "failures", "retries",
                      "quarantined", "retired", "backoff d", "wasted",
                      "throttled", "suppressed", "migrated", "waste",
                      "freshness", "N1==N8", "resume", "est clean"});
  auto count = [](uint64_t v) {
    return TablePrinter::Fmt(static_cast<int64_t>(v));
  };
  for (const CellResult& r : results) {
    for (const Mode* m : {&r.off, &r.on}) {
      const auto& s = m->stats;
      table.AddRow({r.cell.name, m == &r.on ? "on" : "off",
                    count(s.crawls), count(s.fetch_failures),
                    count(s.failure_retries), count(s.sites_quarantined),
                    count(s.urls_retired),
                    TablePrinter::Fmt(s.backoff_days.sum(), 1),
                    count(s.wasted_fetches), count(s.trap_sites_throttled),
                    count(s.duplicate_urls_suppressed),
                    count(s.pages_migrated),
                    TablePrinter::Fmt(m->WastedShare(), 4),
                    TablePrinter::Fmt(m->freshness, 4),
                    m->shard_identical ? "yes" : "NO",
                    m->resume_identical ? "yes" : "NO",
                    m->estimators_clean ? "yes" : "NO"});
    }
  }
  std::printf("%s\n", table.ToString().c_str());

  bool all_ok = true;
  for (CellResult& r : results) {
    auto gate = [&r](bool pass, const char* what) {
      if (!pass) {
        std::fprintf(stderr, "FAIL: %s: %s\n", r.cell.name.c_str(), what);
      }
      r.ok = r.ok && pass;
    };
    gate(r.off.shard_identical && r.on.shard_identical,
         "(a) the N=1 and N=8 checkpoints differ");
    gate(r.off.resume_identical && r.on.resume_identical,
         "(b) the resumed run does not rejoin the straight run");
    gate(r.off.estimators_clean && r.on.estimators_clean,
         "(c) failed fetches reached the estimators");
    const bool dead_sites = r.cell.fault == "site-death" ||
                            r.cell.adversarial == "domain-migration";
    gate(dead_sites || r.on.freshness >= freshness_ratio * baseline_freshness,
         "(d) defended freshness is below the baseline floor");
    const double off_share = r.off.WastedShare();
    gate(off_share < 0.02 || r.on.WastedShare() <= waste_reduction * off_share,
         "(e) the defense did not cut the wasted share enough");
    all_ok = all_ok && r.ok;
  }

  if (!json_path.empty()) {
    std::ostringstream js;
    js.precision(17);
    js << "{\n"
       << "  \"bench\": \"scenarios\",\n"
       << "  \"scale\": " << scale << ",\n"
       << "  \"days\": " << days << ",\n"
       << "  \"baseline_freshness\": " << baseline_freshness << ",\n"
       << "  \"cells\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const CellResult& r = results[i];
      js << "    {\"name\": \"" << r.cell.name << "\", \"fault\": \""
         << r.cell.fault << "\", \"adversarial\": \"" << r.cell.adversarial
         << "\", \"ok\": " << (r.ok ? "true" : "false") << ",\n";
      WriteMode(js, "defense_off", r.off);
      js << ",\n";
      WriteMode(js, "defense_on", r.on);
      js << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    js << "  ],\n"
       << "  \"all_ok\": " << (all_ok ? "true" : "false") << "\n"
       << "}\n";
    std::ofstream out(json_path);
    out << js.str();
    out.close();
    if (!out.good()) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::printf("json: wrote %s\n", json_path.c_str());
  }

  if (!all_ok) {
    std::fprintf(stderr, "FAIL: a scenario gate failed\n");
    return 1;
  }
  std::printf("all cells: deterministic across shard counts in both "
              "defense modes, resumable mid-run, estimator-clean, "
              "freshness and waste bounded\n");
  return 0;
}
