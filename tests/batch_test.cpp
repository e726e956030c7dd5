// Shared-work batch executor: merged groups must answer every member
// bit-identically to a solo run of its query — including under
// chaos-injected site failure — and the split must keep progress streams
// and cancellation per member.  Every query is an ordinary
// QueryEngine::run on its own caller thread; the first caller of a group
// leads it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <vector>

#include "core/cluster.hpp"
#include "core/query_engine.hpp"
#include "core/result_cache.hpp"
#include "gen/synthetic.hpp"
#include "net/chaos.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

void expectSameAnswer(const QueryResult& got, const QueryResult& want) {
  ASSERT_EQ(got.skyline.size(), want.skyline.size());
  for (std::size_t i = 0; i < got.skyline.size(); ++i) {
    EXPECT_EQ(got.skyline[i].tuple.id, want.skyline[i].tuple.id) << "rank " << i;
    EXPECT_EQ(got.skyline[i].globalSkyProb, want.skyline[i].globalSkyProb)
        << "rank " << i;
    EXPECT_EQ(got.skyline[i].localSkyProb, want.skyline[i].localSkyProb)
        << "rank " << i;
  }
}

QueryOptions batched(double windowSeconds = 0.05) {
  QueryOptions options;
  options.batching.enabled = true;
  options.batching.windowSeconds = windowSeconds;
  return options;
}

/// A group that runs exactly when its `members`-th query joins: the window
/// is far longer than any test, so the merge does not depend on how fast
/// the caller threads start.
QueryOptions mergedOf(std::size_t members) {
  QueryOptions options = batched(30.0);
  options.batching.maxMerge = members;
  return options;
}

using testutil::runConcurrently;

double counterValue(InProcCluster& cluster, const std::string& name) {
  for (const auto& [key, value] : cluster.metricsRegistry().snapshot().counters) {
    if (key == name) return static_cast<double>(value);
  }
  return 0.0;
}

TEST(BatchTest, ThresholdBandMergesIntoOneDescentBitIdentically) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{2000, 3, ValueDistribution::kAnticorrelated, 9100});
  InProcCluster shared(Topology::uniform(data, 6, 9101));
  InProcCluster reference(Topology::uniform(data, 6, 9101));

  QueryConfig q03, q04, q05;
  q03.q = 0.3;
  q04.q = 0.4;
  q05.q = 0.5;
  const QueryResult ref03 = reference.engine().runEdsud(q03);
  const QueryResult ref04 = reference.engine().runEdsud(q04);
  const QueryResult ref05 = reference.engine().runEdsud(q05);

  QueryEngine engine(shared.coordinator());
  const QueryId id05 = engine.coordinator().nextQueryId();
  const QueryId id03 = engine.coordinator().nextQueryId();
  const QueryId id04 = engine.coordinator().nextQueryId();
  const QueryOptions options = mergedOf(3);
  // Listed tightest-first: the leader threshold is min over members, not
  // the leader's own.
  auto got = runConcurrently({
      [&] { return engine.run(Algo::kEdsud, q05, options, id05); },
      [&] { return engine.run(Algo::kEdsud, q03, options, id03); },
      [&] { return engine.run(Algo::kEdsud, q04, options, id04); },
  });
  const QueryResult got05 = got[0].get();
  const QueryResult got03 = got[1].get();
  const QueryResult got04 = got[2].get();

  expectSameAnswer(got03, ref03);
  expectSameAnswer(got04, ref04);
  expectSameAnswer(got05, ref05);
  // Each member carries its own session id and a renumbered progress curve.
  EXPECT_EQ(got03.id, id03);
  EXPECT_EQ(got04.id, id04);
  EXPECT_EQ(got05.id, id05);
  ASSERT_EQ(got05.progress.size(), got05.skyline.size());
  for (std::size_t i = 0; i < got05.progress.size(); ++i) {
    EXPECT_EQ(got05.progress[i].reported, i + 1);
  }

  // All three rode one descent: two members were merged away.
  EXPECT_EQ(counterValue(shared, "dsud_batch_merged_total"), 2.0);
  EXPECT_EQ(counterValue(shared, "dsud_batch_flushes_total"), 1.0);
  for (std::size_t i = 0; i < shared.siteCount(); ++i) {
    EXPECT_EQ(shared.site(i).sessionCount(), 0u) << "site " << i;
  }
}

TEST(BatchTest, IncompatibleQueriesFormSeparateGroups) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{1200, 3, ValueDistribution::kAnticorrelated, 9200});
  InProcCluster shared(Topology::uniform(data, 5, 9201));
  InProcCluster reference(Topology::uniform(data, 5, 9201));

  QueryConfig full;
  full.q = 0.3;
  QueryConfig subspace;
  subspace.q = 0.3;
  subspace.mask = 0b011;
  const QueryResult refEdsud = reference.engine().runEdsud(full);
  const QueryResult refDsud = reference.engine().runDsud(full);
  const QueryResult refSub = reference.engine().runEdsud(subspace);

  QueryEngine engine(shared.coordinator());
  const QueryOptions options = batched();
  auto got = runConcurrently({
      [&] { return engine.run(Algo::kEdsud, full, options); },
      [&] { return engine.run(Algo::kDsud, full, options); },
      [&] { return engine.run(Algo::kEdsud, subspace, options); },
  });

  expectSameAnswer(got[0].get(), refEdsud);
  expectSameAnswer(got[1].get(), refDsud);
  expectSameAnswer(got[2].get(), refSub);
  // Three groups of one: nothing merged.
  EXPECT_EQ(counterValue(shared, "dsud_batch_flushes_total"), 3.0);
  EXPECT_EQ(counterValue(shared, "dsud_batch_merged_total"), 0.0);
}

TEST(BatchTest, ProgressStreamsSplitPerMember) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{1500, 2, ValueDistribution::kAnticorrelated, 9300});
  InProcCluster shared(Topology::uniform(data, 5, 9301));

  QueryConfig q02, q06;
  q02.q = 0.2;
  q06.q = 0.6;

  std::vector<double> probsLoose, probsTight;
  std::vector<std::size_t> seqTight;
  QueryOptions optLoose = mergedOf(2);
  optLoose.progress = [&](const GlobalSkylineEntry& e, const ProgressPoint&) {
    probsLoose.push_back(e.globalSkyProb);
  };
  QueryOptions optTight = mergedOf(2);
  optTight.progress = [&](const GlobalSkylineEntry& e,
                          const ProgressPoint& point) {
    probsTight.push_back(e.globalSkyProb);
    seqTight.push_back(point.reported);
  };

  QueryEngine engine(shared.coordinator());
  auto got = runConcurrently({
      [&] { return engine.run(Algo::kEdsud, q02, optLoose); },
      [&] { return engine.run(Algo::kEdsud, q06, optTight); },
  });
  const QueryResult looseResult = got[0].get();
  const QueryResult tightResult = got[1].get();
  ASSERT_EQ(counterValue(shared, "dsud_batch_merged_total"), 1.0);

  // Each member saw exactly its own answers, live, in emission order, with
  // a per-member 1-based sequence.
  EXPECT_EQ(probsLoose.size(), looseResult.skyline.size());
  EXPECT_EQ(probsTight.size(), tightResult.skyline.size());
  for (const double p : probsTight) EXPECT_GE(p, 0.6);
  for (std::size_t i = 0; i < seqTight.size(); ++i) {
    EXPECT_EQ(seqTight[i], i + 1);
  }
  EXPECT_GT(probsLoose.size(), probsTight.size());
}

TEST(BatchTest, SiteFailureDegradesEveryMemberIdentically) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{1200, 2, ValueDistribution::kAnticorrelated, 9400});
  const SiteId victim = 2;
  // dropRate = 1.0 scoped to one site: deterministically dead from its
  // first frame, for the shared run and the solo references alike.
  ClusterConfig chaotic;
  chaotic.chaos = ChaosSpec{.dropRate = 1.0, .onlySite = victim};
  InProcCluster shared(Topology::uniform(data, 5, 9401), chaotic);
  InProcCluster reference(Topology::uniform(data, 5, 9401), chaotic);

  QueryOptions degrade;
  degrade.fault.onSiteFailure = OnSiteFailure::kDegrade;

  QueryConfig q03, q05;
  q03.q = 0.3;
  q05.q = 0.5;
  const QueryResult ref03 = reference.engine().runEdsud(q03, degrade);
  const QueryResult ref05 = reference.engine().runEdsud(q05, degrade);
  ASSERT_TRUE(ref03.degraded);

  QueryOptions batchedDegrade = mergedOf(2);
  batchedDegrade.fault.onSiteFailure = OnSiteFailure::kDegrade;
  QueryEngine engine(shared.coordinator());
  auto got = runConcurrently({
      [&] { return engine.run(Algo::kEdsud, q03, batchedDegrade); },
      [&] { return engine.run(Algo::kEdsud, q05, batchedDegrade); },
  });
  const QueryResult got03 = got[0].get();
  const QueryResult got05 = got[1].get();
  EXPECT_EQ(counterValue(shared, "dsud_batch_merged_total"), 1.0);

  expectSameAnswer(got03, ref03);
  expectSameAnswer(got05, ref05);
  for (const QueryResult* r : {&got03, &got05}) {
    EXPECT_TRUE(r->degraded);
    EXPECT_EQ(r->excludedSites, std::vector<SiteId>{victim});
  }
}

TEST(BatchTest, MixedFaultHandlingNeverShares) {
  // A kFail member must not ride a kDegrade leader (it would silently
  // accept a partial answer), so fault options partition groups.
  const Dataset data = generateSynthetic(
      SyntheticSpec{800, 2, ValueDistribution::kIndependent, 9500});
  InProcCluster shared(Topology::uniform(data, 4, 9501));
  InProcCluster reference(Topology::uniform(data, 4, 9501));

  QueryConfig config;
  config.q = 0.3;
  const QueryResult ref = reference.engine().runEdsud(config);

  QueryOptions failFast = batched();
  QueryOptions degrade = batched();
  degrade.fault.onSiteFailure = OnSiteFailure::kDegrade;

  QueryEngine engine(shared.coordinator());
  auto got = runConcurrently({
      [&] { return engine.run(Algo::kEdsud, config, failFast); },
      [&] { return engine.run(Algo::kEdsud, config, degrade); },
  });
  expectSameAnswer(got[0].get(), ref);
  expectSameAnswer(got[1].get(), ref);
  // Healthy cluster: both complete clean, but in two groups.
  EXPECT_EQ(counterValue(shared, "dsud_batch_flushes_total"), 2.0);
  EXPECT_EQ(counterValue(shared, "dsud_batch_merged_total"), 0.0);
}

TEST(BatchTest, CancelledMemberDoesNotPoisonItsGroup) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{1000, 2, ValueDistribution::kAnticorrelated, 9600});
  InProcCluster shared(Topology::uniform(data, 4, 9601));
  InProcCluster reference(Topology::uniform(data, 4, 9601));

  QueryConfig q03, q05;
  q03.q = 0.3;
  q05.q = 0.5;
  // The cancelled member is the loosest: the group must re-derive its
  // leader threshold from the survivors, not run at 0.3 anyway.
  const QueryResult ref05 = reference.engine().runEdsud(q05);

  QueryOptions doomed = mergedOf(2);
  doomed.cancel = std::make_shared<std::atomic<bool>>(true);
  const QueryOptions healthy = mergedOf(2);

  QueryEngine engine(shared.coordinator());
  auto got = runConcurrently({
      [&] { return engine.run(Algo::kEdsud, q03, doomed); },
      [&] { return engine.run(Algo::kEdsud, q05, healthy); },
  });

  EXPECT_THROW(got[0].get(), QueryCancelled);
  expectSameAnswer(got[1].get(), ref05);
  EXPECT_EQ(counterValue(shared, "dsud_batch_merged_total"), 1.0);
  for (std::size_t i = 0; i < shared.siteCount(); ++i) {
    EXPECT_EQ(shared.site(i).sessionCount(), 0u) << "site " << i;
  }
}

TEST(BatchTest, FullGroupFlushesBeforeTheWindowCloses) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{800, 2, ValueDistribution::kIndependent, 9800});
  InProcCluster shared(Topology::uniform(data, 4, 9801));
  InProcCluster reference(Topology::uniform(data, 4, 9801));

  QueryConfig config;
  config.q = 0.3;
  const QueryResult ref = reference.engine().runEdsud(config);

  QueryOptions options = batched(30.0);  // would wait ~forever...
  options.batching.maxMerge = 2;         // ...but fills after two members
  QueryEngine engine(shared.coordinator());
  const auto start = std::chrono::steady_clock::now();
  auto got = runConcurrently({
      [&] { return engine.run(Algo::kEdsud, config, options); },
      [&] { return engine.run(Algo::kEdsud, config, options); },
  });
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
  expectSameAnswer(got[0].get(), ref);
  expectSameAnswer(got[1].get(), ref);
}

TEST(BatchTest, ZeroWindowRunsTheLeaderAtOnce) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{800, 2, ValueDistribution::kIndependent, 9850});
  InProcCluster shared(Topology::uniform(data, 4, 9851));
  InProcCluster reference(Topology::uniform(data, 4, 9851));

  QueryConfig config;
  config.q = 0.3;
  const QueryResult ref = reference.engine().runEdsud(config);

  // A lone batched query with no window neither waits nor merges: it
  // leads a group of one and returns the solo answer.
  QueryOptions options = batched(0.0);
  options.batching.maxMerge = 8;
  QueryEngine engine(shared.coordinator());
  const QueryResult got = engine.run(Algo::kEdsud, config, options);
  expectSameAnswer(got, ref);
  EXPECT_EQ(got.profile.batch, "solo");
  EXPECT_EQ(got.profile.batchWidth, 1u);
  EXPECT_EQ(counterValue(shared, "dsud_batch_flushes_total"), 1.0);
}

TEST(BatchTest, RunHonoursBatchingAcrossCallerThreads) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{1500, 3, ValueDistribution::kAnticorrelated, 9950});
  InProcCluster shared(Topology::uniform(data, 5, 9951));
  InProcCluster reference(Topology::uniform(data, 5, 9951));

  QueryConfig q03, q05;
  q03.q = 0.3;
  q05.q = 0.5;
  const QueryResult ref03 = reference.engine().runEdsud(q03);
  const QueryResult ref05 = reference.engine().runEdsud(q05);

  // Two plain callers of the synchronous run: the first leads the group,
  // the second joins it and completes it, so neither waits for the window.
  const QueryOptions options = mergedOf(2);
  QueryEngine engine(shared.coordinator());
  const auto start = std::chrono::steady_clock::now();
  auto got = runConcurrently({
      [&] { return engine.run(Algo::kEdsud, q03, options); },
      [&] { return engine.run(Algo::kEdsud, q05, options); },
  });
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));

  const QueryResult got03 = got[0].get();
  const QueryResult got05 = got[1].get();
  expectSameAnswer(got03, ref03);
  expectSameAnswer(got05, ref05);
  EXPECT_EQ(got03.profile.batchWidth, 2u);
  EXPECT_EQ(got05.profile.batchWidth, 2u);
  EXPECT_EQ(counterValue(shared, "dsud_batch_merged_total"), 1.0);
}

TEST(BatchTest, CacheHitResolvesAWholeGroup) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{1200, 2, ValueDistribution::kAnticorrelated, 9900});
  InProcCluster shared(Topology::uniform(data, 4, 9901));
  ResultCache cache;
  QueryEngine engine(shared.coordinator());
  engine.setResultCache(&cache);

  QueryConfig config;
  config.q = 0.3;
  const QueryResult warm = engine.run(Algo::kEdsud, config);
  EXPECT_GT(warm.stats.tuplesShipped, 0u);

  // The leader runs through the cache-aware dispatch: a whole batched
  // group lands on the stored answer, no descent at all.
  const QueryOptions options = mergedOf(2);
  auto got = runConcurrently({
      [&] { return engine.run(Algo::kEdsud, config, options); },
      [&] { return engine.run(Algo::kEdsud, config, options); },
  });
  const QueryResult gotA = got[0].get();
  const QueryResult gotB = got[1].get();
  expectSameAnswer(gotA, warm);
  expectSameAnswer(gotB, warm);
  EXPECT_EQ(gotA.stats.tuplesShipped, 0u);
  EXPECT_EQ(gotB.stats.tuplesShipped, 0u);
  EXPECT_EQ(counterValue(shared, "dsud_batch_merged_total"), 1.0);
}

}  // namespace
}  // namespace dsud
