// Property-based and model-based tests: invariants that must hold
// across randomly generated inputs, and reference-model comparisons.

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "crawler/coll_urls.h"
#include "crawler/collection.h"
#include "crawler/sharded_frontier.h"
#include "freshness/analytic.h"
#include "freshness/revisit_optimizer.h"
#include "graph/link_graph.h"
#include "graph/pagerank.h"
#include "simweb/simulated_web.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/stats.h"

namespace webevo {
namespace {

// ------------------------ CollUrls vs a reference model ----------------

// Reference implementation: a sorted multimap plus a liveness map.
class ReferenceQueue {
 public:
  void Schedule(const simweb::Url& url, double when) {
    Remove(url);
    auto [it, inserted] =
        items_.emplace(std::make_pair(when, seq_++), url);
    live_[url] = it;
    (void)inserted;
  }
  bool Remove(const simweb::Url& url) {
    auto it = live_.find(url);
    if (it == live_.end()) return false;
    items_.erase(it->second);
    live_.erase(it);
    return true;
  }
  std::optional<crawler::ScheduledUrl> Pop() {
    if (items_.empty()) return std::nullopt;
    auto it = items_.begin();
    crawler::ScheduledUrl out{it->second, it->first.first};
    live_.erase(it->second);
    items_.erase(it);
    return out;
  }
  std::size_t size() const { return items_.size(); }

 private:
  using Key = std::pair<double, uint64_t>;  // (when, fifo tie-break)
  std::map<Key, simweb::Url> items_;
  std::map<simweb::Url, std::map<Key, simweb::Url>::iterator,
           decltype([](const simweb::Url& a, const simweb::Url& b) {
             return std::tuple(a.site, a.slot, a.incarnation) <
                    std::tuple(b.site, b.slot, b.incarnation);
           })>
      live_;
  uint64_t seq_ = 0;
};

TEST(CollUrlsModelTest, RandomOpsMatchReference) {
  Rng rng(1234);
  crawler::CollUrls queue;
  ReferenceQueue reference;
  for (int op = 0; op < 20000; ++op) {
    simweb::Url url{0, static_cast<uint32_t>(rng.NextBounded(40)), 0};
    switch (rng.NextBounded(4)) {
      case 0:
      case 1: {  // schedule / reschedule
        double when = std::floor(rng.NextDouble() * 50.0);
        queue.Schedule(url, when);
        reference.Schedule(url, when);
        break;
      }
      case 2: {  // remove
        Status st = queue.Remove(url);
        bool existed = reference.Remove(url);
        EXPECT_EQ(st.ok(), existed);
        break;
      }
      case 3: {  // pop
        auto got = queue.Pop();
        auto want = reference.Pop();
        ASSERT_EQ(got.has_value(), want.has_value());
        if (got.has_value()) {
          // Times must agree; URLs may differ only on exact ties, and
          // both structures break ties FIFO, so they agree exactly.
          EXPECT_DOUBLE_EQ(got->when, want->when);
          EXPECT_EQ(got->url, want->url);
        }
        break;
      }
    }
    ASSERT_EQ(queue.size(), reference.size());
  }
}

// ---------------- ShardedFrontier vs a single CollUrls -----------------

// The headline contract of the sharded frontier: at every shard count it
// is *bit-identical* to one global CollUrls — same pop order, same pop
// times (including the synthetic front-of-queue keys), same sizes —
// because sequence numbers and the front offset are global and the
// earliest of the shard heads is taken by the same (when, seq) order as
// the single heap's. N = 64 exceeds the 13-site universe, so empty
// shards are exercised too. The op mix includes
// the calls the lease settle and the failure path make: seq-guarded
// removal (live and stale seqs), the quarantine re-floor, and the
// entry / per-site lookups behind incremental checkpoints.
TEST(ShardedFrontierModelTest, RandomOpsMatchPlainCollUrls) {
  for (int shards : {1, 3, 4, 8, 64}) {
    Rng rng(4242);  // same op stream for every shard count
    crawler::CollUrls plain;
    crawler::ShardedFrontier sharded(shards);
    int seq_hits = 0, seq_misses = 0, refloored = 0;
    for (int op = 0; op < 20000; ++op) {
      simweb::Url url{static_cast<uint32_t>(rng.NextBounded(13)),
                      static_cast<uint32_t>(rng.NextBounded(9)), 0};
      switch (rng.NextBounded(10)) {
        case 0:
        case 1: {  // schedule / reschedule
          double when = std::floor(rng.NextDouble() * 40.0);
          plain.Schedule(url, when);
          sharded.Schedule(url, when);
          break;
        }
        case 2: {  // front insert
          plain.ScheduleFront(url);
          sharded.ScheduleFront(url);
          break;
        }
        case 3: {  // remove
          Status a = plain.Remove(url);
          Status b = sharded.Remove(url);
          EXPECT_EQ(a.ok(), b.ok());
          break;
        }
        case 4: {  // pop
          auto a = plain.Pop();
          auto b = sharded.Pop();
          ASSERT_EQ(a.has_value(), b.has_value()) << "shards=" << shards;
          if (a.has_value()) {
            EXPECT_EQ(a->url, b->url) << "shards=" << shards;
            EXPECT_EQ(a->when, b->when);  // bit-identical, front keys too
          }
          break;
        }
        case 5: {  // peek
          auto a = plain.Peek();
          auto b = sharded.Peek();
          ASSERT_EQ(a.has_value(), b.has_value());
          if (a.has_value()) {
            EXPECT_EQ(a->url, b->url);
            EXPECT_EQ(a->when, b->when);
          }
          break;
        }
        case 6: {  // seq-guarded removal, live or stale seq
          auto live = plain.LookupEntry(url);
          const bool stale = !live.has_value() || rng.NextBounded(2) == 0;
          // Stale: any seq but the live one, as a superseded admission
          // token would carry.
          uint64_t seq = rng.NextBounded(1000);
          if (live.has_value()) seq = stale ? live->seq ^ 1 : live->seq;
          Status a = plain.RemoveIfSeq(url, seq);
          Status b = sharded.RemoveIfSeq(url, seq);
          EXPECT_EQ(a.ok(), !stale);
          EXPECT_EQ(a.ok(), b.ok()) << "shards=" << shards;
          if (stale) {
            ++seq_misses;
          } else {
            ++seq_hits;
          }
          break;
        }
        case 7: {  // quarantine re-floor of the url's site
          const double floor = std::floor(rng.NextDouble() * 40.0);
          const std::size_t a = plain.RescheduleSiteNotBefore(url.site, floor);
          const std::size_t b =
              sharded.RescheduleSiteNotBefore(url.site, floor);
          EXPECT_EQ(a, b) << "shards=" << shards;
          refloored += static_cast<int>(a);
          break;
        }
        case 8: {  // live (when, seq) entry
          auto a = plain.LookupEntry(url);
          auto b = sharded.LookupEntry(url);
          ASSERT_EQ(a.has_value(), b.has_value()) << "shards=" << shards;
          if (a.has_value()) {
            EXPECT_EQ(a->url, b->url);
            EXPECT_EQ(a->when, b->when);
            EXPECT_EQ(a->seq, b->seq);
          }
          break;
        }
        case 9: {  // every live url of the site
          std::set<simweb::Url, simweb::UrlIdentityLess> a, b;
          plain.AppendSiteUrls(url.site, &a);
          sharded.AppendSiteUrls(url.site, &b);
          EXPECT_EQ(a, b) << "shards=" << shards;
          break;
        }
      }
      ASSERT_EQ(plain.size(), sharded.size());
      ASSERT_EQ(plain.Contains(url), sharded.Contains(url));
    }
    // Drain completely: the full remaining pop sequences must agree.
    while (true) {
      auto a = plain.Pop();
      auto b = sharded.Pop();
      ASSERT_EQ(a.has_value(), b.has_value());
      if (!a.has_value()) break;
      EXPECT_EQ(a->url, b->url);
      EXPECT_EQ(a->when, b->when);
    }
    // Both seq-guard outcomes and the re-floor actually happened.
    EXPECT_GT(seq_hits, 0);
    EXPECT_GT(seq_misses, 0);
    EXPECT_GT(refloored, 0);
  }
}

// PlanSlots must reproduce the one-heap queue's slot loop exactly: same
// slots, same assigned times, same final clock, and the same frontier
// state afterwards. The reference is a plain CollUrls fed the same
// operations, not a copy of the sharded frontier, whose Pop/Peek share
// PlanSlots' head comparison. `when` comes from a coarse grid, so equal
// times across shards are common and the global seq must decide them.
TEST(ShardedFrontierModelTest, PlanSlotsMatchesTheSerialSlotLoop) {
  Rng rng(99173);
  for (int shards : {1, 3, 4, 8, 64}) {
    int cross_shard_ties = 0;
    for (int round = 0; round < 40; ++round) {
      crawler::ShardedFrontier frontier(shards);
      crawler::CollUrls reference;
      std::vector<simweb::Url> urls;
      const int ops = 1 + static_cast<int>(rng.NextBounded(60));
      for (int i = 0; i < ops; ++i) {
        simweb::Url url{static_cast<uint32_t>(rng.NextBounded(11)),
                        static_cast<uint32_t>(i), 0};
        if (!urls.empty() && rng.NextBounded(4) == 0) {
          url = urls[rng.NextBounded(urls.size())];  // a reschedule
        } else {
          urls.push_back(url);
        }
        if (rng.NextBounded(8) == 0) {
          frontier.ScheduleFront(url);
          reference.ScheduleFront(url);
        } else {
          const double when = std::floor(rng.NextDouble() * 20.0) / 2.0;
          frontier.Schedule(url, when);
          reference.Schedule(url, when);
        }
      }

      const double start = rng.NextDouble() * 2.0;
      const double horizon = start + rng.NextDouble() * 6.0;
      const double step = 0.05 + rng.NextDouble() * 0.3;
      auto plan = frontier.PlanSlots(start, horizon, step);

      // The serial slot loop over the one-heap queue.
      std::vector<crawler::ScheduledUrl> want;
      std::optional<crawler::CollUrls::Entry> last;
      double t = start;
      while (t < horizon) {
        auto head = reference.PeekEntry();
        if (!head.has_value() || head->when >= horizon) {
          t = horizon;
          break;
        }
        if (head->when > t) {
          t = head->when;
          continue;
        }
        reference.PopEntry();
        if (last.has_value() && last->when == head->when &&
            last->url.site % shards != head->url.site % shards) {
          ++cross_shard_ties;
        }
        last = head;
        want.push_back(crawler::ScheduledUrl{head->url, t});
        t += step;
      }

      EXPECT_EQ(plan.end_time, t);
      ASSERT_EQ(plan.slots.size(), want.size())
          << "shards=" << shards << " round=" << round;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(plan.slots[i].url, want[i].url)
            << "shards=" << shards << " round=" << round << " slot=" << i;
        EXPECT_EQ(plan.slots[i].when, want[i].when);
      }
      // Post-plan frontier state: both must drain identically.
      ASSERT_EQ(frontier.size(), reference.size());
      while (true) {
        auto a = frontier.Pop();
        auto b = reference.Pop();
        ASSERT_EQ(a.has_value(), b.has_value());
        if (!a.has_value()) break;
        EXPECT_EQ(a->url, b->url);
        EXPECT_EQ(a->when, b->when);
      }
    }
    // The seq tie-break across shards was exercised.
    if (shards > 1) {
      EXPECT_GT(cross_shard_ties, 0) << "shards=" << shards;
    }
  }
}

// ------------------ Collection: N stores vs one store ------------------

// The canonical (url, version, importance) rows of a collection.
std::vector<std::tuple<uint32_t, uint32_t, uint32_t, uint64_t, double>>
CanonicalRows(const crawler::Collection& c) {
  std::vector<std::tuple<uint32_t, uint32_t, uint32_t, uint64_t, double>>
      rows;
  c.ForEachCanonical([&](const crawler::CollectionEntry& e) {
    rows.emplace_back(e.url.site, e.url.slot, e.url.incarnation, e.version,
                      e.importance);
  });
  return rows;
}

// A collection of N stores must be indistinguishable from one of a
// single store: same capacity enforcement, same lookups, same sizes,
// and — because BetterEvictionVictim is a total order (importance
// ties are broken by URL identity) — the same eviction victims, in the
// same order.
TEST(CollectionModelTest, ShardedMatchesOneStore) {
  for (int shards : {3, 8}) {
    Rng rng(77130);  // same op stream for every shard count
    crawler::Collection plain(40);
    crawler::Collection sharded(40, shards);
    ASSERT_EQ(sharded.num_shards(), shards);
    std::size_t tied_victims = 0;  // adjacent victims of equal importance
    for (int op = 0; op < 20000; ++op) {
      simweb::Url url{static_cast<uint32_t>(rng.NextBounded(11)),
                      static_cast<uint32_t>(rng.NextBounded(7)), 0};
      switch (rng.NextBounded(7)) {
        case 0:
        case 1: {  // upsert (importance ties are common by design)
          crawler::CollectionEntry e;
          e.url = url;
          e.version = rng.Next();
          e.importance = std::floor(rng.NextDouble() * 4.0);
          Status a = plain.Upsert(e);
          Status b = sharded.Upsert(e);
          ASSERT_EQ(a.code(), b.code()) << "shards=" << shards;
          break;
        }
        case 2: {  // remove
          Status a = plain.Remove(url);
          Status b = sharded.Remove(url);
          ASSERT_EQ(a.ok(), b.ok());
          break;
        }
        case 3: {  // find
          const crawler::CollectionEntry* a = plain.Find(url);
          const crawler::CollectionEntry* b = sharded.Find(url);
          ASSERT_EQ(a == nullptr, b == nullptr);
          if (a != nullptr) {
            EXPECT_EQ(a->version, b->version);
            EXPECT_EQ(a->importance, b->importance);
          }
          break;
        }
        case 4: {  // eviction victim
          const crawler::CollectionEntry* a = plain.LowestImportance();
          const crawler::CollectionEntry* b = sharded.LowestImportance();
          ASSERT_EQ(a == nullptr, b == nullptr);
          if (a != nullptr) {
            EXPECT_EQ(a->url, b->url) << "shards=" << shards;
            EXPECT_EQ(a->importance, b->importance);
          }
          break;
        }
        case 5: {  // overdraft insert past the capacity
          crawler::CollectionEntry e;
          e.url = url;
          e.version = rng.Next();
          e.importance = std::floor(rng.NextDouble() * 4.0);
          plain.InsertUnchecked(e);
          sharded.InsertUnchecked(e);
          break;
        }
        case 6: {  // overdraft settle: equal victims, best first
          const std::vector<simweb::Url> a = plain.OverdraftVictims();
          const std::vector<simweb::Url> b = sharded.OverdraftVictims();
          ASSERT_EQ(a, b) << "shards=" << shards << " op=" << op;
          ASSERT_EQ(a.size(), plain.size() > plain.capacity()
                                  ? plain.size() - plain.capacity()
                                  : 0);
          for (std::size_t i = 1; i < a.size(); ++i) {
            const crawler::CollectionEntry& prev = *plain.Find(a[i - 1]);
            const crawler::CollectionEntry& next = *plain.Find(a[i]);
            ASSERT_TRUE(crawler::BetterEvictionVictim(prev, next));
            if (prev.importance == next.importance) ++tied_victims;
          }
          for (const simweb::Url& victim : a) {
            ASSERT_TRUE(plain.Remove(victim).ok());
            ASSERT_TRUE(sharded.Remove(victim).ok());
          }
          break;
        }
      }
      ASSERT_EQ(plain.size(), sharded.size());
      ASSERT_EQ(plain.full(), sharded.full());
      ASSERT_EQ(plain.Contains(url), sharded.Contains(url));
    }
    // The victim lists ordered importance ties by URL identity.
    EXPECT_GT(tied_victims, 100u) << "shards=" << shards;

    // The canonical walk visits every entry exactly once, sorted, and
    // equals the one store's walk.
    const auto walked = CanonicalRows(sharded);
    EXPECT_EQ(walked.size(), sharded.size());
    EXPECT_TRUE(std::is_sorted(walked.begin(), walked.end()));
    EXPECT_EQ(walked, CanonicalRows(plain));
  }
}

// The apply passes' contract: N threads, each driving Remove,
// FindMutable, InsertUnchecked and Contains for its own sites
// (site % N == t) from its own seeded stream, leave the collection
// exactly as a one-thread replay of the same streams into a one-store
// collection does.
TEST(CollectionModelTest, OwnSiteThreadsMatchOneThreadReplay) {
  constexpr std::size_t kCapacity = 40;
  for (int n : {2, 4, 8}) {
    // Thread t's stream; returns how many of its Contains calls hit.
    auto drive = [n](crawler::Collection* c, int t) {
      Rng rng(91000 + static_cast<uint64_t>(t));
      std::size_t hits = 0;
      for (int op = 0; op < 3000; ++op) {
        const auto site = static_cast<uint32_t>(
            t + n * static_cast<int>(rng.NextBounded(5)));
        const simweb::Url url{site,
                              static_cast<uint32_t>(rng.NextBounded(16)), 0};
        const double importance = std::floor(rng.NextDouble() * 4.0);
        switch (rng.NextBounded(4)) {
          case 0: {
            crawler::CollectionEntry e;
            e.url = url;
            e.version = static_cast<uint64_t>(op);
            e.importance = importance;
            c->InsertUnchecked(std::move(e));
            break;
          }
          case 1:
            (void)c->Remove(url);
            break;
          case 2:
            if (crawler::CollectionEntry* e = c->FindMutable(url)) {
              e->importance = importance;
            }
            break;
          case 3:
            if (c->Contains(url)) ++hits;
            break;
        }
      }
      return hits;
    };
    crawler::Collection concurrent(kCapacity, n);
    std::vector<std::size_t> hits(static_cast<std::size_t>(n), 0);
    {
      std::vector<std::thread> threads;
      for (int t = 0; t < n; ++t) {
        threads.emplace_back([&, t] {
          hits[static_cast<std::size_t>(t)] = drive(&concurrent, t);
        });
      }
      for (std::thread& thread : threads) thread.join();
    }
    crawler::Collection replay(kCapacity);
    for (int t = 0; t < n; ++t) {
      EXPECT_EQ(hits[static_cast<std::size_t>(t)], drive(&replay, t))
          << "n=" << n << " t=" << t;
    }

    ASSERT_EQ(concurrent.size(), replay.size()) << "n=" << n;
    ASSERT_GT(replay.size(), kCapacity) << "n=" << n;
    EXPECT_EQ(CanonicalRows(concurrent), CanonicalRows(replay)) << "n=" << n;
    const crawler::CollectionEntry* a = concurrent.LowestImportance();
    const crawler::CollectionEntry* b = replay.LowestImportance();
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->url, b->url) << "n=" << n;
    EXPECT_EQ(concurrent.OverdraftVictims(), replay.OverdraftVictims())
        << "n=" << n;
  }
}

TEST(CollUrlsModelTest, PopDrainIsSorted) {
  Rng rng(99);
  crawler::CollUrls queue;
  for (uint32_t i = 0; i < 500; ++i) {
    queue.Schedule(simweb::Url{0, i, 0}, rng.NextDouble() * 100.0);
  }
  double prev = -1e300;
  while (auto item = queue.Pop()) {
    ASSERT_GE(item->when, prev);
    prev = item->when;
  }
}

// ------------------- analytic freshness vs simulation ------------------

struct FreshnessCase {
  double interval_days;  // mean change interval
  double cycle_days;
  double window_days;
  bool shadowing;
};

class FreshnessAgreementTest
    : public ::testing::TestWithParam<FreshnessCase> {};

TEST_P(FreshnessAgreementTest, ClosedFormMatchesEventSimulation) {
  const FreshnessCase& c = GetParam();
  // Direct event-level simulation of N independent pages, no crawler
  // machinery: pages are synced on the configured schedule; freshness
  // sampled densely; compare with the closed form.
  Rng rng(static_cast<uint64_t>(c.interval_days * 1000 + c.window_days));
  const int pages = 1500;
  const double lambda = 1.0 / c.interval_days;
  const double horizon = 8.0 * c.cycle_days;

  // Page i is crawled at offset (i/pages) * window within each cycle.
  // In-place: visible immediately; shadowing: visible at window end.
  double fresh_time = 0.0, total_time = 0.0;
  for (int i = 0; i < pages; ++i) {
    double offset =
        (static_cast<double>(i) + 0.5) / pages * c.window_days;
    // Change times of this page over the horizon.
    std::vector<double> changes;
    for (double t = rng.Exponential(lambda); t < horizon;
         t += rng.Exponential(lambda)) {
      changes.push_back(t);
    }
    auto changed_between = [&](double a, double b) {
      auto lo = std::lower_bound(changes.begin(), changes.end(), a);
      return lo != changes.end() && *lo < b;
    };
    // Walk cycles starting from the second (warm-up skipped).
    for (int cycle = 2; (cycle + 1) * c.cycle_days <= horizon; ++cycle) {
      double crawl = cycle * c.cycle_days + offset;
      double visible = c.shadowing
                           ? cycle * c.cycle_days + c.window_days
                           : crawl;
      double next_visible =
          c.shadowing ? (cycle + 1) * c.cycle_days + c.window_days
                      : (cycle + 1) * c.cycle_days + offset;
      // Sample this page's freshness on a fine grid.
      const int samples = 64;
      for (int s = 0; s < samples; ++s) {
        double t = visible +
                   (next_visible - visible) *
                       (static_cast<double>(s) + 0.5) / samples;
        bool fresh = !changed_between(crawl, t);
        fresh_time += fresh ? (next_visible - visible) / samples : 0.0;
        total_time += (next_visible - visible) / samples;
      }
    }
  }
  double simulated = fresh_time / total_time;
  double analytic =
      c.shadowing
          ? (c.window_days == c.cycle_days
                 ? freshness::SteadyShadowingFreshness(lambda,
                                                       c.cycle_days)
                 : freshness::BatchShadowingFreshness(
                       lambda, c.cycle_days, c.window_days))
          : freshness::InPlaceFreshness(lambda, c.cycle_days);
  EXPECT_NEAR(simulated, analytic, 0.025)
      << "interval=" << c.interval_days << " window=" << c.window_days
      << " shadowing=" << c.shadowing;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FreshnessAgreementTest,
    ::testing::Values(
        // The paper's Table 2 parameters and variations around them.
        FreshnessCase{120.0, 30.0, 30.0, false},
        FreshnessCase{120.0, 30.0, 7.0, false},
        FreshnessCase{120.0, 30.0, 30.0, true},
        FreshnessCase{120.0, 30.0, 7.0, true},
        FreshnessCase{30.0, 30.0, 15.0, false},
        FreshnessCase{30.0, 30.0, 15.0, true},
        FreshnessCase{15.0, 30.0, 7.0, true},
        FreshnessCase{60.0, 30.0, 10.0, true},
        FreshnessCase{240.0, 30.0, 7.0, false}));

// --------------------- optimizer invariants under sweep ----------------

class OptimizerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptimizerPropertyTest, OptimalDominatesBaselinesAndSpendsBudget) {
  Rng rng(GetParam());
  // Random rate mix, random budget.
  std::vector<freshness::RateGroup> groups;
  int n = 2 + static_cast<int>(rng.NextBounded(8));
  for (int i = 0; i < n; ++i) {
    groups.push_back({rng.Exponential(1.0) * 0.2,
                      1.0 + static_cast<double>(rng.NextBounded(100))});
  }
  double total_weight = 0.0;
  for (const auto& g : groups) total_weight += g.weight;
  double budget = total_weight * rng.Uniform(0.005, 0.2);

  auto optimal = freshness::RevisitOptimizer::Optimize(groups, budget);
  auto uniform = freshness::RevisitOptimizer::Uniform(groups, budget);
  auto proportional =
      freshness::RevisitOptimizer::Proportional(groups, budget);
  ASSERT_TRUE(optimal.ok());
  ASSERT_TRUE(uniform.ok());
  ASSERT_TRUE(proportional.ok());

  // Optimality: never worse than either baseline (up to solver slack).
  EXPECT_GE(optimal->freshness, uniform->freshness - 1e-6);
  EXPECT_GE(optimal->freshness, proportional->freshness - 1e-6);

  // Budget: spent to within 2%. Exactness is unattainable when a
  // group sits at its exclusion boundary — its frequency swings
  // steeply with the multiplier there (the marginal value of those
  // visits is negligible, so the objective is unaffected).
  double spent = 0.0;
  bool any_rate = false;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    spent += groups[i].weight * optimal->frequency[i];
    any_rate |= groups[i].rate > 0.0;
  }
  if (any_rate) {
    EXPECT_NEAR(spent, budget, budget * 0.02);
  }

  // Frequencies non-negative; freshness in [0, 1].
  for (double f : optimal->frequency) EXPECT_GE(f, 0.0);
  EXPECT_GE(optimal->freshness, 0.0);
  EXPECT_LE(optimal->freshness, 1.0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(RandomMixes, OptimizerPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

// ------------------------ simweb conservation laws ---------------------

class SimWebPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimWebPropertyTest, SlotAlwaysOccupiedAndHistoryConsistent) {
  simweb::WebConfig config;
  config.seed = GetParam();
  config.sites_per_domain = {2, 1, 1, 1};
  config.min_site_size = 10;
  config.max_site_size = 25;
  config.uniform_lifespan_days = 15.0;  // fast churn
  simweb::SimulatedWeb web(config);
  Rng rng(GetParam() * 7 + 1);
  double t = 0.0;
  for (int step = 0; step < 500; ++step) {
    t += rng.NextDouble() * 2.0;
    uint32_t site = static_cast<uint32_t>(rng.NextBounded(web.num_sites()));
    uint32_t slot =
        static_cast<uint32_t>(rng.NextBounded(web.site_size(site)));
    simweb::Url current = web.OracleCurrentUrl(site, slot, t);
    // The occupant is always alive at the query time...
    EXPECT_TRUE(web.OracleAlive(current, t)) << current.ToString();
    // ...its URL matches its coordinates...
    EXPECT_EQ(current.site, site);
    EXPECT_EQ(current.slot, slot);
    // ...every earlier incarnation is dead...
    if (current.incarnation > 0) {
      simweb::Url prev{site, slot, current.incarnation - 1};
      EXPECT_FALSE(web.OracleAlive(prev, t));
      // ...and incarnations tile time: prev dies no later than the
      // current one is born.
      auto prev_id = web.OracleLookup(prev);
      auto cur_id = web.OracleLookup(current);
      ASSERT_TRUE(prev_id.ok());
      ASSERT_TRUE(cur_id.ok());
      EXPECT_LE(web.OracleDeathTime(*prev_id),
                web.OracleBirthTime(*cur_id) + 1e-9);
    }
  }
}

TEST_P(SimWebPropertyTest, FetchAgreesWithOracle) {
  simweb::WebConfig config;
  config.seed = GetParam() + 100;
  config.sites_per_domain = {2, 1, 1, 1};
  config.min_site_size = 10;
  config.max_site_size = 30;
  simweb::SimulatedWeb web(config);
  Rng rng(GetParam() * 13 + 5);
  double t = 0.0;
  for (int step = 0; step < 300; ++step) {
    t += rng.NextDouble();
    uint32_t site = static_cast<uint32_t>(rng.NextBounded(web.num_sites()));
    uint32_t slot =
        static_cast<uint32_t>(rng.NextBounded(web.site_size(site)));
    simweb::Url url = web.OracleCurrentUrl(site, slot, t);
    auto fetched = web.Fetch(url, t);
    ASSERT_TRUE(fetched.ok());
    auto version = web.OracleVersion(url, t);
    ASSERT_TRUE(version.ok());
    EXPECT_EQ(fetched->version, *version);
    // Last-Modified is consistent: in the past, and after the birth.
    EXPECT_LE(fetched->last_modified, t + 1e-9);
    auto id = web.OracleLookup(url);
    ASSERT_TRUE(id.ok());
    EXPECT_GE(fetched->last_modified,
              std::min(web.OracleBirthTime(*id), t) - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimWebPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------- histogram/stat mini-properties ------------------

TEST(HistogramPropertyTest, QuantileMonotoneInQ) {
  Rng rng(5);
  Histogram h = *Histogram::Make({1.0, 5.0, 20.0, 100.0});
  for (int i = 0; i < 2000; ++i) h.Add(rng.Exponential(0.1));
  double prev = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    double v = h.Quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(StatsPropertyTest, WilsonIntervalCoverage) {
  // ~95% of Wilson 95% intervals must contain the true p.
  Rng rng(6);
  const double p = 0.3;
  int covered = 0;
  const int trials = 400, n = 50;
  for (int trial = 0; trial < trials; ++trial) {
    int successes = 0;
    for (int i = 0; i < n; ++i) successes += rng.Bernoulli(p);
    if (WilsonInterval(successes, n, 0.95).Contains(p)) ++covered;
  }
  double coverage = static_cast<double>(covered) / trials;
  EXPECT_GT(coverage, 0.90);
  EXPECT_LE(coverage, 1.0);
}

TEST(StatsPropertyTest, PoissonRateIntervalCoverage) {
  Rng rng(7);
  const double rate = 0.4, exposure = 60.0;
  int covered = 0;
  const int trials = 400;
  for (int trial = 0; trial < trials; ++trial) {
    auto events = static_cast<int64_t>(rng.Poisson(rate * exposure));
    if (PoissonRateInterval(events, exposure, 0.95).Contains(rate)) {
      ++covered;
    }
  }
  EXPECT_GT(static_cast<double>(covered) / trials, 0.90);
}

}  // namespace
}  // namespace webevo
