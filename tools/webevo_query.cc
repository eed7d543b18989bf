// webevo_query — table-shaped queries over a crawler checkpoint's
// published BatchView (the serving layer's MVCC read surface).
//
// The tool reconstructs the crawler from a SaveCrawler checkpoint, plus
// the delta log an incremental crawler's checkpoint may have (the
// restore republishes a BatchView of the restored state), acquires
// that view through the lock-free ViewRegistry reader path, and
// evaluates the query against the view's immutable relations.
//
// Examples:
//   webevo_query pages --from=run.ckpt --where=site=3 --limit=10
//   webevo_query sites --from=run.ckpt --where='pages>=5' --format=csv
//   webevo_query freshness --from=run.ckpt --format=json
//   webevo_query estimates --from=run.ckpt --where='rate>0.1'
//   webevo_query summary --from=run.ckpt
//
// The checkpoint must be queried with the same shape flags it was
// produced with (--capacity, --estimator, --no-shadowing, ...) —
// LoadCrawler validates them, exactly as `webevo_sim crawl --resume`
// does. See docs/QUERY_API.md for the full reference.

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "crawler/incremental_crawler.h"
#include "crawler/periodic_crawler.h"
#include "crawler/snapshot.h"
#include "serving/batch_view.h"
#include "serving/view_registry.h"
#include "simweb/simulated_web.h"
#include "tools/cli_flags.h"
#include "util/flags.h"
#include "util/table.h"

namespace {

using namespace webevo;

// Printed verbatim by --help; CI diffs it against
// docs/webevo_query_help.txt, so any edit here must regenerate that
// file (cmake --build build --target webevo_query &&
// ./build/webevo_query --help > docs/webevo_query_help.txt).
constexpr const char* kUsage =
    R"(usage: webevo_query <relation> --from=<checkpoint> [flags]

relations (rows in canonical order; see docs/QUERY_API.md):
  pages      one row per stored page            (ascending url identity)
  sites      per-site aggregates                (ascending site)
  freshness  the oracle freshness series        (ascending time)
  estimates  pages with a change-rate estimate  (ascending url identity)
  summary    view identity + deterministic counters, as name/value rows

query flags:
  --from=<path>       checkpoint to query (required); an incremental
                      crawler's <path>.deltas log, when present, is
                      replayed onto it, as --resume does
  --where=<preds>     comma-separated conjuncts, each <col><op><value>
                      with op one of =  !=  <  <=  >  >=
                      (numeric compare when both sides parse as numbers;
                      site equality scans stop early on sorted rows)
  --columns=<list>    comma-separated output columns (default: all)
  --format=table|csv|json                       (default table)
  --limit=<n>         emit at most n rows, >= 0 (default 0 = all)

checkpoint shape flags (must match the run that wrote the checkpoint,
exactly as for webevo_sim crawl --resume):
  --crawler=incremental|periodic                (default incremental)
  --seed=<n>          master seed               (default 19990217)
  --scale=<f>         web size multiplier, > 0  (default 0.15)
  --capacity=<n>      collection capacity, >= 1 (default 2000)
  --cycle=<days>      revisit cycle, > 0        (default 30)
  --window=<days>     batch window, > 0         (default 7; periodic)
  --no-shadowing      periodic crawler updates in place
  --policy=optimal|uniform|proportional         (incremental only)
  --estimator=EB|EP|ratio|naive|EL              (incremental only)
  --faults=<name>     fault scenario: none|transient10|outage-storm|
                      site-death|flash-crowd    (default none)
  --adversarial=<name> adversarial scenario: none|spider-trap|
                      mirror-farm|domain-migration|heavy-tail
                      (default none; composes with --faults)
)";

std::string FmtReal(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string FmtCount(uint64_t v) { return std::to_string(v); }

/// One relation materialised as strings: column names plus rows of
/// cells, in the view's canonical order. Numeric-looking cells are
/// emitted raw in JSON; everything else is quoted.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
  /// Index of the `site` column, or -1 — enables the sorted-scan
  /// early exit for site equality predicates.
  int site_column = -1;
};

ResultSet PagesResult(const serving::BatchView& view) {
  ResultSet r;
  r.columns = {"url",        "site",     "slot",     "incarnation",
               "version",    "crawled_at", "importance", "est_rate",
               "out_links"};
  r.site_column = 1;
  for (const serving::PageRow& p : view.pages) {
    r.rows.push_back({p.url.ToString(), FmtCount(p.url.site),
                      FmtCount(p.url.slot), FmtCount(p.url.incarnation),
                      FmtCount(p.version), FmtReal(p.crawled_at),
                      FmtReal(p.importance), FmtReal(p.est_rate),
                      FmtCount(p.out_links)});
  }
  return r;
}

ResultSet SitesResult(const serving::BatchView& view) {
  ResultSet r;
  r.columns = {"site", "pages", "mean_importance", "mean_est_rate",
               "last_crawled_at"};
  r.site_column = 0;
  for (const serving::SiteRow& s : view.sites) {
    r.rows.push_back({FmtCount(s.site), FmtCount(s.pages),
                      FmtReal(s.mean_importance), FmtReal(s.mean_est_rate),
                      FmtReal(s.last_crawled_at)});
  }
  return r;
}

ResultSet FreshnessResult(const serving::BatchView& view) {
  ResultSet r;
  r.columns = {"time", "value"};
  for (const serving::SeriesRow& f : view.freshness) {
    r.rows.push_back({FmtReal(f.time), FmtReal(f.value)});
  }
  return r;
}

ResultSet EstimatesResult(const serving::BatchView& view) {
  ResultSet r;
  r.columns = {"url",  "site",          "slot", "incarnation",
               "rate", "interval_days"};
  r.site_column = 1;
  for (const serving::EstimateRow& e : view.estimates) {
    r.rows.push_back({e.url.ToString(), FmtCount(e.url.site),
                      FmtCount(e.url.slot), FmtCount(e.url.incarnation),
                      FmtReal(e.rate), FmtReal(e.interval_days)});
  }
  return r;
}

ResultSet SummaryResult(const serving::BatchView& view) {
  ResultSet r;
  r.columns = {"name", "value"};
  r.rows.push_back({"crawler", view.crawler});
  r.rows.push_back({"batch", FmtCount(view.batch)});
  r.rows.push_back({"published_at", FmtReal(view.published_at)});
  r.rows.push_back({"collection_size", FmtCount(view.collection_size)});
  r.rows.push_back(
      {"collection_capacity", FmtCount(view.collection_capacity)});
  r.rows.push_back({"frontier_depth", FmtCount(view.frontier_depth)});
  for (const auto& [name, value] : view.summary) {
    r.rows.push_back({name, value});
  }
  return r;
}

/// One `<col><op><value>` conjunct of a --where clause.
struct Predicate {
  int column = -1;
  std::string op;
  std::string value;
  bool numeric = false;  ///< value parses as a number
  double number = 0.0;
};

bool ParseNumber(const std::string& s, double* out) {
  std::istringstream in(s);
  double v = 0.0;
  in >> v;
  if (in.fail() || !in.eof()) return false;
  *out = v;
  return true;
}

/// Splits `clause` on commas and resolves each conjunct against the
/// result's columns. Returns false (with a message) on malformed input.
bool ParsePredicates(const std::string& clause, const ResultSet& result,
                     std::vector<Predicate>* out, std::string* error) {
  std::istringstream in(clause);
  std::string conjunct;
  while (std::getline(in, conjunct, ',')) {
    if (conjunct.empty()) continue;
    // Two-character operators first so "<=" never parses as "<" "=...".
    static const char* kOps[] = {"<=", ">=", "!=", "=", "<", ">"};
    Predicate pred;
    std::size_t at = std::string::npos;
    for (const char* op : kOps) {
      at = conjunct.find(op);
      if (at != std::string::npos) {
        pred.op = op;
        break;
      }
    }
    if (at == std::string::npos || at == 0) {
      *error = "malformed predicate '" + conjunct +
               "' (expected <column><op><value>)";
      return false;
    }
    const std::string column = conjunct.substr(0, at);
    pred.value = conjunct.substr(at + pred.op.size());
    for (std::size_t i = 0; i < result.columns.size(); ++i) {
      if (result.columns[i] == column) {
        pred.column = static_cast<int>(i);
      }
    }
    if (pred.column < 0) {
      *error = "unknown column '" + column + "' in --where";
      return false;
    }
    pred.numeric = ParseNumber(pred.value, &pred.number);
    out->push_back(pred);
  }
  return true;
}

bool Matches(const std::vector<std::string>& row, const Predicate& pred) {
  const std::string& cell = row[static_cast<std::size_t>(pred.column)];
  double cell_number = 0.0;
  if (pred.numeric && ParseNumber(cell, &cell_number)) {
    if (pred.op == "=") return cell_number == pred.number;
    if (pred.op == "!=") return cell_number != pred.number;
    if (pred.op == "<") return cell_number < pred.number;
    if (pred.op == "<=") return cell_number <= pred.number;
    if (pred.op == ">") return cell_number > pred.number;
    return cell_number >= pred.number;
  }
  if (pred.op == "=") return cell == pred.value;
  if (pred.op == "!=") return cell != pred.value;
  if (pred.op == "<") return cell < pred.value;
  if (pred.op == "<=") return cell <= pred.value;
  if (pred.op == ">") return cell > pred.value;
  return cell >= pred.value;
}

/// Applies predicates (with the sorted-site early exit), column
/// projection and the row limit (0 = none), in place.
bool RunQuery(const FlagParser& flags, std::size_t limit, ResultSet* result,
              std::string* error) {
  std::vector<Predicate> predicates;
  const std::string where = flags.GetString("where", "");
  if (!where.empty() &&
      !ParsePredicates(where, *result, &predicates, error)) {
    return false;
  }
  // Pushdown: rows are sorted by the site column (when there is one),
  // so a `site=K` conjunct bounds the scan — skip ahead to the first
  // match and stop at the first row past it.
  const Predicate* site_eq = nullptr;
  for (const Predicate& pred : predicates) {
    if (pred.column == result->site_column && pred.op == "=" &&
        pred.numeric) {
      site_eq = &pred;
    }
  }
  std::vector<std::vector<std::string>> kept;
  for (const auto& row : result->rows) {
    if (site_eq != nullptr) {
      double site = 0.0;
      ParseNumber(row[static_cast<std::size_t>(site_eq->column)], &site);
      if (site < site_eq->number) continue;
      if (site > site_eq->number) break;
    }
    bool keep = true;
    for (const Predicate& pred : predicates) {
      if (!Matches(row, pred)) {
        keep = false;
        break;
      }
    }
    if (!keep) continue;
    kept.push_back(row);
    if (limit > 0 && kept.size() >= limit) break;
  }
  result->rows = std::move(kept);

  const std::string columns = flags.GetString("columns", "");
  if (!columns.empty()) {
    std::vector<std::size_t> projection;
    std::istringstream in(columns);
    std::string column;
    while (std::getline(in, column, ',')) {
      bool found = false;
      for (std::size_t i = 0; i < result->columns.size(); ++i) {
        if (result->columns[i] == column) {
          projection.push_back(i);
          found = true;
        }
      }
      if (!found) {
        *error = "unknown column '" + column + "' in --columns";
        return false;
      }
    }
    std::vector<std::string> names;
    for (std::size_t i : projection) names.push_back(result->columns[i]);
    for (auto& row : result->rows) {
      std::vector<std::string> cells;
      for (std::size_t i : projection) cells.push_back(row[i]);
      row = std::move(cells);
    }
    result->columns = std::move(names);
  }
  return true;
}

void PrintTable(const ResultSet& result) {
  TablePrinter table(result.columns);
  for (const auto& row : result.rows) table.AddRow(row);
  std::printf("%s", table.ToString().c_str());
  std::printf("(%zu rows)\n", result.rows.size());
}

void PrintCsv(const ResultSet& result) {
  std::ostringstream os;
  for (std::size_t i = 0; i < result.columns.size(); ++i) {
    os << (i > 0 ? "," : "") << result.columns[i];
  }
  os << '\n';
  for (const auto& row : result.rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      os << (i > 0 ? "," : "") << row[i];
    }
    os << '\n';
  }
  std::printf("%s", os.str().c_str());
}

void PrintJson(const ResultSet& result) {
  std::ostringstream os;
  os << "[\n";
  for (std::size_t r = 0; r < result.rows.size(); ++r) {
    os << "  {";
    for (std::size_t i = 0; i < result.rows[r].size(); ++i) {
      const std::string& cell = result.rows[r][i];
      double ignored = 0.0;
      os << (i > 0 ? ", " : "") << '"' << result.columns[i] << "\": ";
      if (ParseNumber(cell, &ignored)) {
        os << cell;
      } else {
        os << '"' << cell << '"';
      }
    }
    os << (r + 1 < result.rows.size() ? "},\n" : "}\n");
  }
  os << "]\n";
  std::printf("%s", os.str().c_str());
}

int Run(const FlagParser& flags) {
  const std::string relation = flags.positional().front();
  const std::string from = flags.GetString("from", "");
  if (from.empty()) {
    std::printf("--from=<checkpoint> is required\n%s", kUsage);
    return 2;
  }

  // Reconstruct the crawler exactly as `webevo_sim crawl --resume`
  // would, with view publishing enabled so LoadCrawler republishes the
  // restored state into the registry.
  const std::string kind = tools::CrawlerFromFlags(flags);
  crawler::UpdateModuleConfig update;
  tools::UpdateFromFlags(flags, &update);
  simweb::SimulatedWeb web(tools::WebFromFlags(flags));
  const std::size_t capacity =
      tools::NumberFromFlags<std::size_t>(flags, "capacity", 2000, 1);
  const double cycle = tools::NumberFromFlags(flags, "cycle", 30.0, 0.0);
  const double window = tools::NumberFromFlags(flags, "window", 7.0, 0.0);
  const std::size_t limit =
      tools::NumberFromFlags<std::size_t>(flags, "limit", 0, 0);

  // The crawlers outlive `view` (a ViewRef releases into its
  // registry, which the owning crawler's engine holds).
  std::unique_ptr<crawler::PeriodicCrawler> periodic;
  std::unique_ptr<crawler::IncrementalCrawler> incremental;
  serving::ViewRef view;
  Status st;
  if (kind == "periodic") {
    crawler::PeriodicCrawlerConfig config;
    config.collection_capacity = capacity;
    config.cycle_days = cycle;
    config.crawl_window_days = window;
    config.shadowing = !flags.GetBool("no-shadowing", false);
    config.publish_view_every_batches = 1;
    periodic =
        std::make_unique<crawler::PeriodicCrawler>(&web, config);
    st = crawler::LoadCrawlerFromFile(from, periodic.get());
    if (st.ok()) view = periodic->views().AcquireRef();
  } else {
    crawler::IncrementalCrawlerConfig config;
    config.collection_capacity = capacity;
    config.crawl_rate_pages_per_day =
        static_cast<double>(capacity) / cycle;
    config.update = update;
    config.publish_view_every_batches = 1;
    incremental =
        std::make_unique<crawler::IncrementalCrawler>(&web, config);
    st = crawler::LoadCrawlerWithDeltasFromFile(from, incremental.get());
    if (st.ok()) view = incremental->views().AcquireRef();
  }
  if (!st.ok()) {
    std::printf("failed to load %s: %s\n", from.c_str(),
                st.ToString().c_str());
    return 1;
  }
  if (!view) {
    std::printf("no view published for %s\n", from.c_str());
    return 1;
  }

  ResultSet result;
  if (relation == "pages") {
    result = PagesResult(*view);
  } else if (relation == "sites") {
    result = SitesResult(*view);
  } else if (relation == "freshness") {
    result = FreshnessResult(*view);
  } else if (relation == "estimates") {
    result = EstimatesResult(*view);
  } else if (relation == "summary") {
    result = SummaryResult(*view);
  } else {
    std::printf("unknown relation '%s'\n%s", relation.c_str(), kUsage);
    return 2;
  }

  std::string error;
  if (!RunQuery(flags, limit, &result, &error)) {
    std::printf("%s\n", error.c_str());
    return 2;
  }
  const std::string format = flags.GetString("format", "table");
  if (format == "csv") {
    PrintCsv(result);
  } else if (format == "json") {
    PrintJson(result);
  } else if (format == "table") {
    PrintTable(result);
  } else {
    std::printf("unknown format '%s'\n%s", format.c_str(), kUsage);
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  Status valid = flags.Validate(
      {"from", "where", "columns", "format", "limit", "crawler", "seed",
       "scale", "capacity", "cycle", "window", "no-shadowing", "policy",
       "estimator", "faults", "adversarial", "help"});
  if (!valid.ok()) {
    std::printf("%s\n%s", valid.ToString().c_str(), kUsage);
    return 2;
  }
  if (flags.GetBool("help", false) || flags.positional().empty()) {
    std::printf("%s", kUsage);
    return flags.positional().empty() && !flags.GetBool("help", false)
               ? 2
               : 0;
  }
  return Run(flags);
}
