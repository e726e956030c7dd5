// Microbenchmarks M2: centralised probabilistic skyline — indexed BBS over
// the PR-tree vs the O(N²) linear scan, across distributions and thresholds.
// Each BBS case also reports how much its bounds pruned, as counters from one
// untimed run (BbsStats are deterministic): tuples_evaluated (exact survival
// queries), nodes_visited and emitted.
#include <benchmark/benchmark.h>

#include "gen/synthetic.hpp"
#include "skyline/bbs.hpp"
#include "skyline/linear_skyline.hpp"

namespace {

using namespace dsud;

Dataset makeData(std::size_t n, ValueDistribution dist) {
  return generateSynthetic(SyntheticSpec{n, 3, dist, 9002});
}

void reportPruning(benchmark::State& state, const PRTree& tree,
                   const SkylineSpec& spec) {
  BbsStats stats;
  const std::size_t emitted = bbsSkyline(tree, spec, &stats).size();
  state.counters["tuples_evaluated"] =
      static_cast<double>(stats.tuplesEvaluated);
  state.counters["nodes_visited"] = static_cast<double>(stats.nodesVisited);
  state.counters["emitted"] = static_cast<double>(emitted);
}

void BM_LinearSkyline(benchmark::State& state) {
  const Dataset data = makeData(static_cast<std::size_t>(state.range(0)),
                                ValueDistribution::kIndependent);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linearSkyline(data, {.q = 0.3}).size());
  }
}
BENCHMARK(BM_LinearSkyline)->Arg(1000)->Arg(4000)->Arg(8000);

void BM_BbsSkylineIndependent(benchmark::State& state) {
  const Dataset data = makeData(static_cast<std::size_t>(state.range(0)),
                                ValueDistribution::kIndependent);
  const PRTree tree = PRTree::bulkLoad(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bbsSkyline(tree, {.q = 0.3}).size());
  }
  reportPruning(state, tree, {.q = 0.3});
}
BENCHMARK(BM_BbsSkylineIndependent)
    ->Arg(1000)
    ->Arg(16000)
    ->Arg(100000)
    ->Arg(1000000);

void BM_BbsSkylineAnticorrelated(benchmark::State& state) {
  const Dataset data = makeData(static_cast<std::size_t>(state.range(0)),
                                ValueDistribution::kAnticorrelated);
  const PRTree tree = PRTree::bulkLoad(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bbsSkyline(tree, {.q = 0.3}).size());
  }
  reportPruning(state, tree, {.q = 0.3});
}
BENCHMARK(BM_BbsSkylineAnticorrelated)->Arg(16000)->Arg(100000);

void BM_BbsThresholdSweep(benchmark::State& state) {
  const Dataset data = makeData(100000, ValueDistribution::kIndependent);
  const PRTree tree = PRTree::bulkLoad(data);
  const double q = static_cast<double>(state.range(0)) / 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bbsSkyline(tree, {.q = q}).size());
  }
  reportPruning(state, tree, {.q = q});
}
BENCHMARK(BM_BbsThresholdSweep)->Arg(3)->Arg(5)->Arg(7)->Arg(9);

}  // namespace

BENCHMARK_MAIN();
