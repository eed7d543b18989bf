#ifndef WEBEVO_UTIL_LEDGER_H_
#define WEBEVO_UTIL_LEDGER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/record_line.h"
#include "util/stats.h"

/// Declared ledgers. A Stats struct of counters (uint64_t) and series
/// (RunningStat) lists its fields once, in a static `Visit(fn)` that
/// calls fn(Row{...}, &Stats::field) per field in table order, so one
/// list serves both kinds, const or not. The loops below generate
/// checkpoint records, view summaries, shard merges, bench ledgers and
/// determinism checks from those rows.
namespace webevo::ledger {

/// What a row's value depends on.
enum class Class {
  /// A pure function of the simulation: equal at every shard count,
  /// pipeline on or off, on either record store.
  kDeterministic,
  /// Depends on how a batch split across shards or pipeline stages.
  kLayout,
  /// Wall-clock values; only their sample structure is reproducible.
  kWallClock,
};

/// How a view summary shows a series: its mean or its sum, 0 with no
/// samples, under the row's `view_name`; or not at all.
enum class Shown { kHidden, kMean, kSum };

struct Row {
  const char* name;
  Class cls = Class::kDeterministic;
  const char* view_name = nullptr;
  Shown shown = Shown::kHidden;
};

template <typename T>
inline constexpr bool kIsCounter =
    std::is_same_v<std::remove_cvref_t<T>, uint64_t>;

/// Calls fn(row, field) for every row of `stats`, in table order.
template <typename S, typename Fn>
constexpr void ForEachRow(S& stats, Fn&& fn) {
  std::remove_const_t<S>::Visit(
      [&](const Row& row, auto member) { fn(row, stats.*member); });
}

/// Sums the counters of a per-shard copy into `into`. Series are left
/// alone: RunningStat::Merge is not bit-equal to sequential Add, so a
/// checkpointed series is fed serially, never merged from shards.
template <typename S>
void AddCounters(S& into, const S& from) {
  S::Visit([&](const Row&, auto member) {
    if constexpr (kIsCounter<decltype(into.*member)>) {
      into.*member += from.*member;
    }
  });
}

inline bool Same(uint64_t a, uint64_t b) { return a == b; }
inline bool Same(const RunningStat& a, const RunningStat& b) {
  const RunningStat::State x = a.SaveState(), y = b.SaveState();
  return x.count == y.count && x.mean == y.mean && x.m2 == y.m2 &&
         x.min == y.min && x.max == y.max;
}

/// Names of the rows of class `cls` on which `a` and `b` differ, in
/// table order. A series differs when any of its state does.
template <typename S>
std::vector<std::string> Diff(const S& a, const S& b,
                              Class cls = Class::kDeterministic) {
  std::vector<std::string> differ;
  S::Visit([&](const Row& row, auto member) {
    if (row.cls == cls && !Same(a.*member, b.*member)) {
      differ.emplace_back(row.name);
    }
  });
  return differ;
}

using SummaryRows = std::vector<std::pair<std::string, std::string>>;

/// Appends a row as a view summary shows it: a counter in decimal, a
/// shown series in RecordLine's double text.
inline void AppendShown(const Row& row, uint64_t value, SummaryRows* rows) {
  rows->emplace_back(row.name, std::to_string(value));
}
inline void AppendShown(const Row& row, const RunningStat& series,
                        SummaryRows* rows) {
  if (row.shown == Shown::kHidden) return;
  double value = row.shown == Shown::kSum ? series.sum() : series.mean();
  if (series.count() == 0) value = 0.0;
  RecordLine line;
  rows->emplace_back(row.view_name, std::string(line.Start(value).view()));
}

/// Every row of `stats` a view shows, in table order.
template <typename S>
SummaryRows Summary(const S& stats) {
  SummaryRows rows;
  ForEachRow(stats, [&rows](const Row& row, const auto& field) {
    AppendShown(row, field, &rows);
  });
  return rows;
}

template <typename M>
constexpr bool SameMember(M a, M b) { return a == b; }
template <typename A, typename B>
constexpr bool SameMember(A, B) { return false; }

/// True when S's rows list each of its fields exactly once: the row
/// sizes add up to sizeof(S), so a field without a row fails, and no
/// member or name repeats. Every table is static_asserted with it.
template <typename S>
constexpr bool CoversEveryField() {
  std::size_t bytes = 0;
  bool once = true;
  S::Visit([&](const Row& a, auto ma) {
    bytes += sizeof(std::declval<S&>().*ma);
    int matches = 0;
    S::Visit([&](const Row& b, auto mb) {
      matches += SameMember(ma, mb) + (std::string_view(a.name) == b.name);
    });
    once = once && matches == 2;
  });
  return once && bytes == sizeof(S);
}

}  // namespace webevo::ledger

#endif  // WEBEVO_UTIL_LEDGER_H_
