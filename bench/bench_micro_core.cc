// Micro-benchmarks (google-benchmark) for the hot data structures and
// kernels: CollUrls scheduling, page fetch + lazy Poisson advance,
// checksum, PageRank iteration, estimator updates, and the optimizer.
// These back the paper's throughput argument: the UpdateModule's fast
// path must sustain tens of pages per second independent of collection
// size (Section 5.3's "40 pages/second" discussion).

#include <benchmark/benchmark.h>

#include "crawler/coll_urls.h"
#include "crawler/update_module.h"
#include "estimator/bayesian_estimator.h"
#include "estimator/ratio_estimator.h"
#include "freshness/revisit_optimizer.h"
#include "graph/link_graph.h"
#include "graph/pagerank.h"
#include "simweb/simulated_web.h"
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
  const auto n = static_cast<uint32_t>(state.range(0));
  crawler::CollUrls queue;
  Rng rng(1);
  for (uint32_t i = 0; i < n; ++i) {
    queue.Schedule(simweb::Url{0, i, 0}, rng.NextDouble() * 30.0);
  }
  double t = 31.0;
  for (auto _ : state) {
    auto item = queue.Pop();
    benchmark::DoNotOptimize(item);
    queue.Schedule(item->url, t);
    t += 1e-4;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CollUrlsScheduleAndPop)->Arg(1000)->Arg(100000);

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
BENCHMARK(BM_OptimizerSolve)->Arg(16)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
