// Micro-benchmarks (google-benchmark) for the hot data structures and
// kernels: CollUrls scheduling, the sharded frontier's batch plan,
// page fetch + lazy Poisson advance,
// checksum, PageRank iteration, estimator updates, the optimizer and
// the housekeeping built on it (per-page pricing, the daily rebalance,
// the weekly refinement), the capacity settle's victim selection, the
// study's page-stats record step, the record writers behind serving and
// checkpoints (view fingerprint, web section, delta-segment encode,
// paged-store codec), and the paged store's barrier Flush and canonical
// walk.
// These back the paper's throughput argument: the UpdateModule's fast
// path must sustain tens of pages per second independent of collection
// size (Section 5.3's "40 pages/second" discussion).

#include <benchmark/benchmark.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "crawler/all_urls.h"
#include "crawler/coll_urls.h"
#include "crawler/collection.h"
#include "crawler/ranking_module.h"
#include "crawler/sharded_frontier.h"
#include "crawler/store_codecs.h"
#include "crawler/update_module.h"
#include "estimator/bayesian_estimator.h"
#include "estimator/ratio_estimator.h"
#include "experiment/page_stats.h"
#include "freshness/revisit_optimizer.h"
#include "graph/link_graph.h"
#include "graph/pagerank.h"
#include "serving/batch_view.h"
#include "simweb/simulated_web.h"
#include "storage/delta_log.h"
#include "storage/paged_record_store.h"
#include "util/hash.h"
#include "util/random.h"

namespace {

using namespace webevo;

void BM_ChecksumPage(benchmark::State& state) {
  std::string body(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(ChecksumOf(body));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChecksumPage)->Arg(256)->Arg(4096)->Arg(65536);

void BM_CollUrlsScheduleAndPop(benchmark::State& state) {
  // range(0) live entries, each popped and pushed back behind the rest.
  // With range(1) > 0, every range(1)-th pop also reschedules a random
  // live entry, leaving one superseded heap entry for a later pop to
  // skip: {20000, 8} is crawl-hostile's frontier (about 20k live
  // entries; 305k pops and 36k stale entries skipped per run).
  const auto n = static_cast<uint32_t>(state.range(0));
  const int64_t stale_every = state.range(1);
  crawler::CollUrls queue;
  Rng rng(1);
  for (uint32_t i = 0; i < n; ++i) {
    queue.Schedule(simweb::Url{0, i, 0}, rng.NextDouble() * 30.0);
  }
  double t = 31.0;
  int64_t pops = 0;
  for (auto _ : state) {
    auto item = queue.Pop();
    benchmark::DoNotOptimize(item);
    queue.Schedule(item->url, t);
    if (stale_every > 0 && ++pops % stale_every == 0) {
      const auto slot = static_cast<uint32_t>(rng.NextBounded(n));
      queue.Schedule(simweb::Url{0, slot, 0}, t + rng.NextDouble());
    }
    t += 1e-4;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CollUrlsScheduleAndPop)
    ->Args({1000, 0})
    ->Args({100000, 0})
    ->Args({20000, 8});

void BM_PlanSlots(benchmark::State& state) {
  // One quarter-day batch at 10k pages/day (2,500 slots) planned from a
  // 20k-entry frontier split over range(0) shards. The planned URLs
  // come back one 2-day revisit cycle later, outside the timed region,
  // so every batch plans from a frontier of the same size.
  constexpr double kStep = 1.0 / 10000.0;
  constexpr double kBatch = 0.25;
  constexpr double kCycle = 2.0;
  crawler::ShardedFrontier frontier(static_cast<int>(state.range(0)));
  Rng rng(7);
  for (uint32_t i = 0; i < 20000; ++i) {
    const auto site = static_cast<uint32_t>(rng.NextBounded(500));
    frontier.Schedule(simweb::Url{site, i, 0}, rng.NextDouble() * kCycle);
  }
  double t = 0.0;
  int64_t slots = 0;
  for (auto _ : state) {
    crawler::ShardedFrontier::SlotPlan plan =
        frontier.PlanSlots(t, t + kBatch, kStep);
    benchmark::DoNotOptimize(plan.slots.data());
    state.PauseTiming();
    slots += static_cast<int64_t>(plan.slots.size());
    for (const crawler::ScheduledUrl& slot : plan.slots) {
      frontier.Schedule(slot.url, slot.when + kCycle);
    }
    t = plan.end_time;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(slots);
}
BENCHMARK(BM_PlanSlots)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_SimWebFetch(benchmark::State& state) {
  simweb::WebConfig config;
  config.seed = 3;
  config.sites_per_domain = {8, 5, 3, 3};
  config.page_body_bytes = static_cast<uint32_t>(state.range(0));
  simweb::SimulatedWeb web(config);
  Rng rng(4);
  double t = 0.0;
  for (auto _ : state) {
    uint32_t site = static_cast<uint32_t>(rng.NextBounded(web.num_sites()));
    uint32_t slot = static_cast<uint32_t>(
        rng.NextBounded(web.site_size(site)));
    simweb::Url url = web.OracleCurrentUrl(site, slot, t);
    benchmark::DoNotOptimize(web.Fetch(url, t));
    t += 1e-5;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
// 0 bytes times the fetch path alone; 16 KiB is the body size of the
// steady crawl workload, where digesting the body binds.
BENCHMARK(BM_SimWebFetch)->Arg(0)->Arg(16384);

void BM_UpdateModuleOnCrawled(benchmark::State& state) {
  crawler::UpdateModuleConfig config;
  config.policy = crawler::RevisitPolicy::kOptimal;
  crawler::UpdateModule module(config);
  const auto n = static_cast<uint32_t>(state.range(0));
  for (uint32_t i = 0; i < n; ++i) {
    module.OnCrawled(simweb::Url{0, i, 0}, 0.0, false, true);
  }
  module.Rebalance();
  Rng rng(5);
  double t = 1.0;
  for (auto _ : state) {
    uint32_t i = static_cast<uint32_t>(rng.NextBounded(n));
    benchmark::DoNotOptimize(
        module.OnCrawled(simweb::Url{0, i, 0}, t, rng.Bernoulli(0.3),
                         false));
    t += 1e-4;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_UpdateModuleOnCrawled)->Arg(1000)->Arg(100000);

void BM_EstimatorUpdate_Ratio(benchmark::State& state) {
  estimator::RatioEstimator est;
  Rng rng(6);
  for (auto _ : state) {
    est.RecordObservation(1.0, rng.Bernoulli(0.2));
    benchmark::DoNotOptimize(est.EstimatedRate());
  }
}
BENCHMARK(BM_EstimatorUpdate_Ratio);

void BM_EstimatorUpdate_Bayesian(benchmark::State& state) {
  estimator::BayesianEstimator est;
  Rng rng(7);
  for (auto _ : state) {
    est.RecordObservation(1.0, rng.Bernoulli(0.2));
    benchmark::DoNotOptimize(est.EstimatedRate());
  }
}
BENCHMARK(BM_EstimatorUpdate_Bayesian);

void BM_PageRankIteration(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  graph::LinkGraph g(n);
  Rng rng(8);
  for (graph::NodeId v = 0; v < n; ++v) {
    for (int e = 0; e < 8; ++e) {
      (void)g.AddEdge(v, static_cast<graph::NodeId>(rng.NextBounded(n)));
    }
  }
  g.Finalize();
  graph::PageRankOptions options;
  options.max_iterations = 10;  // fixed work per run
  options.tolerance = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::ComputePageRank(g, options));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10 *
                          n);
}
BENCHMARK(BM_PageRankIteration)->Arg(1000)->Arg(50000);

void BM_OptimizerSolve(benchmark::State& state) {
  std::vector<freshness::RateGroup> groups;
  Rng rng(9);
  for (int i = 0; i < state.range(0); ++i) {
    groups.push_back({rng.Exponential(1.0) * 0.1, 100.0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        freshness::RevisitOptimizer::Optimize(groups, 500.0));
  }
}
BENCHMARK(BM_OptimizerSolve)->Arg(16)->Arg(64)->Arg(256);

void BM_FrequencyAtMultiplier(benchmark::State& state) {
  // The per-fetch pricing call: rates spread over the Bayesian
  // estimator's classes (1/365 to 16 changes/day), priced at the
  // multiplier solved for that mix.
  std::vector<freshness::RateGroup> groups;
  for (int k = -68; k <= 32; ++k) {
    groups.push_back({std::exp2(k / 8.0), 100.0});
  }
  const double mu =
      freshness::RevisitOptimizer::Optimize(groups, 1000.0)->multiplier;
  Rng rng(14);
  std::vector<double> rates(1024);
  for (double& rate : rates) {
    rate = std::exp2(rng.Uniform(std::log2(1.0 / 365.0), 4.0));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const double rate = rates[i++ & 1023];
    benchmark::DoNotOptimize(
        freshness::RevisitOptimizer::FrequencyAtMultiplier(rate, mu));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FrequencyAtMultiplier);

void BM_UpdateModuleRebalance(benchmark::State& state) {
  // The daily solve over 20k pages whose short visit histories differ
  // in length, spacing and outcome, so that their Bayesian rates fall
  // into 50 of Rebalance's log-grid buckets.
  crawler::UpdateModuleConfig config;
  config.policy = crawler::RevisitPolicy::kOptimal;
  config.crawl_budget_pages_per_day = 10000.0;
  crawler::UpdateModule module(config);
  Rng rng(15);
  for (uint32_t i = 0; i < 20000; ++i) {
    const simweb::Url url{i / 100, i % 100, 0};
    const double p_change = rng.NextDouble();
    const auto visits = static_cast<int>(rng.UniformInt(2, 3));
    const double interval = rng.Uniform(0.5, 1.5);
    module.OnCrawled(url, 0.0, false, true);
    for (int v = 1; v <= visits; ++v) {
      module.OnCrawled(url, v * interval, rng.Bernoulli(p_change), false);
    }
  }
  for (auto _ : state) {
    module.Rebalance();
    benchmark::DoNotOptimize(module.multiplier());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 20000);
}
BENCHMARK(BM_UpdateModuleRebalance)->Unit(benchmark::kMillisecond);

void BM_RankingRefine(benchmark::State& state) {
  // Weekly refinement with PageRank over a full collection of 20k
  // pages and the ~165k uncollected URLs their links reach.
  constexpr uint32_t kMembers = 20000, kCandidateSpace = 1000000;
  crawler::Collection collection(kMembers);
  crawler::AllUrls all;
  Rng rng(16);
  for (uint32_t i = 0; i < kMembers; ++i) {
    crawler::CollectionEntry e;
    e.url = simweb::Url{i / 100, i % 100, 0};
    for (int l = 0; l < 2; ++l) {
      const auto j = static_cast<uint32_t>(rng.NextBounded(kMembers));
      e.links.push_back(simweb::Url{j / 100, j % 100, 0});
    }
    for (int l = 0; l < 9; ++l) {
      // Candidates share the members' sites in slots past 100.
      const auto j = static_cast<uint32_t>(rng.NextBounded(kCandidateSpace));
      e.links.push_back(simweb::Url{j % 200, 100 + j / 200, 0});
    }
    for (const simweb::Url& to : e.links) all.NoteInLink(to, 0.0);
    all.Add(e.url, 0.0);
    (void)collection.Upsert(std::move(e));
  }
  crawler::RankingModule ranking({});
  std::size_t nodes = 0;
  for (auto _ : state) {
    crawler::RefinementResult result = ranking.Refine(all, collection);
    nodes = result.graph_nodes;
    benchmark::DoNotOptimize(result.replacements.data());
  }
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_RankingRefine)->Unit(benchmark::kMillisecond);

void BM_OverdraftVictims(benchmark::State& state) {
  // The capacity settle after an overdrawn batch: the 500 best eviction
  // victims of a 20,500-entry collection of capacity 20,000, split over
  // range(0) stores. One entry in ten is unranked (importance 0, as a
  // page inserted since the last refinement is), so most victims are
  // importance ties broken by URL identity.
  constexpr uint32_t kCapacity = 20000, kOverdraft = 500;
  crawler::Collection collection(kCapacity,
                                 static_cast<int>(state.range(0)));
  Rng rng(21);
  for (uint32_t i = 0; i < kCapacity + kOverdraft; ++i) {
    crawler::CollectionEntry e;
    e.url = simweb::Url{i % 500, i / 500, 0};
    e.importance = rng.NextBounded(10) == 0 ? 0.0 : rng.NextDouble();
    collection.InsertUnchecked(std::move(e));
  }
  std::size_t victims = 0;
  for (auto _ : state) {
    std::vector<simweb::Url> v = collection.OverdraftVictims();
    victims = v.size();
    benchmark::DoNotOptimize(v.data());
  }
  state.counters["victims"] = static_cast<double>(victims);
}
BENCHMARK(BM_OverdraftVictims)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond);

void BM_BatchViewFingerprint(benchmark::State& state) {
  const auto n = static_cast<uint32_t>(state.range(0));
  serving::BatchView view;
  view.crawler = "incremental";
  Rng rng(10);
  for (uint32_t i = 0; i < n; ++i) {
    serving::PageRow row;
    row.url = simweb::Url{i / 100, i % 100, 0};
    row.version = rng.NextBounded(50);
    row.crawled_at = rng.NextDouble() * 128.0;
    row.importance = rng.NextDouble();
    row.est_rate = rng.NextDouble() * 0.2;
    row.out_links = static_cast<uint32_t>(rng.NextBounded(20));
    view.pages.push_back(row);
    view.estimates.push_back(
        serving::EstimateRow{row.url, row.est_rate, 1.0 / row.est_rate});
  }
  for (uint32_t s = 0; s < n / 100; ++s) {
    view.sites.push_back(
        serving::SiteRow{s, 100, rng.NextDouble(), rng.NextDouble(), 128.0});
  }
  for (int i = 0; i < 512; ++i) {
    view.freshness.push_back(serving::SeriesRow{i * 0.25, rng.NextDouble()});
  }
  for (auto _ : state) benchmark::DoNotOptimize(view.Fingerprint());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_BatchViewFingerprint)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_SaveWeb(benchmark::State& state) {
  // The serve-checkpoint workload's web, evolved 30 days: the web
  // section every checkpoint and delta segment writes.
  simweb::WebConfig config;
  config.seed = 11;
  config.max_site_size = 250;
  simweb::SimulatedWeb web(config);
  benchmark::DoNotOptimize(web.OracleSiteLinks(30.0));
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream out;
    benchmark::DoNotOptimize(simweb::SaveWeb(web, out).ok());
    benchmark::ClobberMemory();
    bytes = out.str().size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_SaveWeb)->Unit(benchmark::kMillisecond);

void BM_EncodeDeltaSegment(benchmark::State& state) {
  // About 14 MB, most of it in the web section, as in a
  // serve-checkpoint segment.
  storage::DeltaSegment segment;
  segment.kind = "incremental";
  segment.batch = 1234;
  Rng rng(12);
  const std::pair<const char*, std::size_t> sections[] = {
      {"meta", 600}, {"collection", 3'000'000}, {"update", 3'000'000},
      {"web", 8'000'000}};
  for (const auto& [name, size] : sections) {
    std::string bytes(size, ' ');
    for (char& c : bytes) c = static_cast<char>('0' + rng.NextBounded(10));
    segment.sections.push_back(storage::Section{name, std::move(bytes)});
  }
  std::size_t encoded = 0;
  for (auto _ : state) {
    const std::string bytes = storage::EncodeDeltaSegment(segment);
    benchmark::DoNotOptimize(bytes.data());
    benchmark::ClobberMemory();
    encoded = bytes.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(encoded));
}
BENCHMARK(BM_EncodeDeltaSegment)->Unit(benchmark::kMillisecond);

void BM_PagedCodec(benchmark::State& state) {
  // One paged-store round trip: encode at Flush, decode on materialise.
  Rng rng(13);
  crawler::CollectionEntry e;
  e.url = simweb::Url{17, 42, 1};
  e.page = rng.Next();
  e.version = rng.NextBounded(100);
  e.checksum = Checksum128{rng.Next(), rng.Next()};
  e.crawled_at = rng.NextDouble() * 128.0;
  e.importance = rng.NextDouble();
  for (int i = 0; i < 20; ++i) {
    const auto site = static_cast<uint32_t>(rng.NextBounded(270));
    const auto slot = static_cast<uint32_t>(rng.NextBounded(250));
    e.links.push_back(simweb::Url{site, slot, 0});
  }
  std::string bytes;
  crawler::CollectionEntry decoded;
  for (auto _ : state) {
    crawler::CollectionEntryCodec::Encode(e, &bytes);
    benchmark::DoNotOptimize(
        crawler::CollectionEntryCodec::Decode(bytes, &decoded));
    benchmark::DoNotOptimize(decoded.links.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PagedCodec);

void BM_PageStatsRecord(benchmark::State& state) {
  // One day of the perf study's 270-site campaign recorded into a table
  // that already holds its ~50k rows: every slot's latest page, a fifth
  // of them changed, in site order as MonitoringExperiment::RunDay
  // records them. Every other slot also holds a replaced incarnation.
  static const simweb::SimulatedWeb web([] {
    simweb::WebConfig config;
    config.max_site_size = 250;
    return config;
  }());
  std::vector<uint32_t> sizes;
  for (uint32_t s = 0; s < web.num_sites(); ++s) {
    sizes.push_back(web.site_size(s));
  }
  experiment::PageStatsTable table(sizes);
  std::vector<std::pair<simweb::Domain, experiment::Observation>> day;
  for (uint32_t s = 0; s < web.num_sites(); ++s) {
    const simweb::Domain domain = web.site_domain(s);
    for (uint32_t slot = 0; slot < sizes[s]; ++slot) {
      experiment::Observation obs;
      obs.url = simweb::Url{s, slot, 0};
      table.Record(domain, 0, obs);
      if (slot % 2 == 1) {
        obs.url.incarnation = 1;
        table.Record(domain, 1, obs);
      }
      obs.changed = slot % 5 == 0;
      day.emplace_back(domain, obs);
    }
  }
  const std::size_t rows = table.num_pages();
  int d = 2;
  for (auto _ : state) {
    for (const auto& [domain, obs] : day) table.Record(domain, d, obs);
    benchmark::DoNotOptimize(table.last_recorded_day());
    benchmark::ClobberMemory();
    ++d;
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(day.size()));
}
BENCHMARK(BM_PageStatsRecord)->Unit(benchmark::kMillisecond);

using PagedCollection =
    storage::PagedRecordStore<crawler::CollectionEntry,
                              crawler::CollectionEntryCodec>;

constexpr uint32_t kPagedRecords = 20000;

/// A paged collection store at the default StoreOptions holding 20k
/// serve-checkpoint-like entries (0-20 links each). It is built once
/// and shared by the paged-store benches, each of which leaves it
/// flushed.
PagedCollection& SharedPagedCollection() {
  static const std::unique_ptr<PagedCollection> store = [] {
    storage::StoreOptions options;
    options.backend = storage::StoreOptions::Backend::kPaged;
    options.dir = std::filesystem::temp_directory_path().string();
    auto made = std::make_unique<PagedCollection>(options, "bench-paged");
    Rng rng(14);
    for (uint32_t i = 0; i < kPagedRecords; ++i) {
      crawler::CollectionEntry e;
      e.url = simweb::Url{i / 100, i % 100, 0};
      e.page = rng.Next();
      e.checksum = Checksum128{rng.Next(), rng.Next()};
      e.crawled_at = rng.NextDouble() * 10.0;
      e.importance = rng.NextDouble();
      e.links.resize(rng.NextBounded(21));
      for (simweb::Url& link : e.links) {
        link = simweb::Url{static_cast<uint32_t>(rng.NextBounded(270)),
                           static_cast<uint32_t>(rng.NextBounded(250)), 0};
      }
      made->Put(e.url, std::move(e));
    }
    made->Flush();
    return made;
  }();
  return *store;
}

void BM_PagedStoreFlush(benchmark::State& state) {
  // One barrier: Flush after a batch dirtied `percent`% of the records,
  // spread over the whole key range. Each batch recrawls other records
  // and moves each one's link count up or down by one, in turn, so
  // cells change size as in a crawl without growing. The dirtying is
  // not timed.
  const auto percent = static_cast<uint32_t>(state.range(0));
  const uint32_t stride = 100 / percent;
  PagedCollection& store = SharedPagedCollection();
  const std::size_t compactions0 = store.store_stats().page_compactions;
  static uint32_t batch = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ++batch;
    for (uint32_t i = batch % stride; i < kPagedRecords; i += stride) {
      crawler::CollectionEntry* e =
          store.FindMutable(simweb::Url{i / 100, i % 100, 0});
      e->crawled_at += 1.0;
      if (e->links.size() % 2 == 0) {
        e->links.push_back(simweb::Url{batch, i, 0});
      } else {
        e->links.pop_back();
      }
    }
    state.ResumeTiming();
    store.Flush();
  }
  state.counters["compactions_per_flush"] = benchmark::Counter(
      static_cast<double>(store.store_stats().page_compactions - compactions0) /
      static_cast<double>(state.iterations()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          (kPagedRecords / stride));
}
BENCHMARK(BM_PagedStoreFlush)
    ->Arg(1)
    ->Arg(20)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_PagedStoreWalk(benchmark::State& state) {
  // A canonical walk of a flushed store, as a view build makes: every
  // record not in the overlay is read from its page and decoded. The
  // Flush that trims the overlay back afterwards is not timed.
  PagedCollection& store = SharedPagedCollection();
  double sum = 0.0;
  for (auto _ : state) {
    store.ForEach(
        [&sum](const simweb::Url&, const crawler::CollectionEntry& e) {
          sum += e.importance;
        });
    benchmark::DoNotOptimize(sum);
    state.PauseTiming();
    store.Flush();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kPagedRecords);
}
BENCHMARK(BM_PagedStoreWalk)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
