// Update maintenance (paper Sec. 5.4): after any stream of inserts and
// deletes, the maintained SKY(H) must equal a from-scratch centralised
// recompute, for both the incremental and the naive strategy.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/cluster.hpp"
#include "core/updates.hpp"
#include "gen/partition.hpp"
#include "gen/synthetic.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

constexpr double kQ = 0.3;

/// Mirror of the cluster contents, maintained alongside the updates, used to
/// compute the ground truth after each step.
struct Mirror {
  std::vector<Dataset> sites;

  explicit Mirror(std::vector<Dataset> initial) : sites(std::move(initial)) {}

  void apply(const UpdateEvent& e) {
    if (e.kind == UpdateEvent::Kind::kInsert) {
      sites[e.site].add(e.tuple.id, e.tuple.values, e.tuple.prob);
    } else {
      sites[e.site].eraseId(e.tuple.id);
    }
  }

  std::vector<TupleId> truthIds(double q, DimMask mask = kAllDims) const {
    return testutil::idsOf(testutil::groundTruth(sites, q, mask));
  }
};

void expectSkylineMatchesTruth(const SkylineMaintainer& maintainer,
                               const Mirror& mirror, double q,
                               const std::string& context,
                               DimMask mask = kAllDims) {
  auto got = maintainer.skyline();
  auto gotIds = testutil::idsOf(got);
  std::sort(gotIds.begin(), gotIds.end());
  auto want = mirror.truthIds(q, mask);
  std::sort(want.begin(), want.end());
  EXPECT_EQ(gotIds, want) << context;
  // Also verify the cached probabilities are exact.
  const Dataset global = testutil::unionOf(mirror.sites);
  const auto probs = skylineProbabilitiesLinear(global, {.mask = mask});
  for (const GlobalSkylineEntry& e : got) {
    const auto row = global.rowOf(e.tuple.id);
    ASSERT_TRUE(row.has_value()) << context;
    EXPECT_NEAR(e.globalSkyProb, probs[*row], 1e-9) << context;
  }
}

std::vector<Dataset> initialSites(
    std::uint64_t seed, std::size_t n = 400, std::size_t m = 4,
    std::size_t dims = 2,
    ValueDistribution dist = ValueDistribution::kIndependent) {
  const Dataset global =
      generateSynthetic(SyntheticSpec{n, dims, dist, seed});
  Rng rng(seed + 1);
  return partitionUniform(global, m, rng);
}

UpdateEvent randomInsert(Rng& rng, std::size_t m, TupleId id,
                         std::size_t dims = 2) {
  UpdateEvent e;
  e.kind = UpdateEvent::Kind::kInsert;
  e.site = static_cast<SiteId>(rng.below(m));
  std::vector<double> values(dims);
  for (double& v : values) v = rng.uniform();
  e.tuple = Tuple{id, std::move(values), rng.existentialUniform()};
  return e;
}

TEST(UpdatesTest, InitializeMatchesQuery) {
  auto sites = initialSites(70);
  InProcCluster cluster(Topology::fromPartitions(sites));
  QueryConfig config;
  config.q = kQ;
  SkylineMaintainer maintainer(cluster.coordinator(), config,
                               MaintenanceStrategy::kIncremental);
  maintainer.initialize();
  Mirror mirror(std::move(sites));
  expectSkylineMatchesTruth(maintainer, mirror, kQ, "after init");
}

TEST(UpdatesTest, ApplyBeforeInitializeThrows) {
  auto sites = initialSites(71);
  InProcCluster cluster(Topology::fromPartitions(sites));
  SkylineMaintainer maintainer(cluster.coordinator(), QueryConfig{},
                               MaintenanceStrategy::kIncremental);
  UpdateEvent e;
  EXPECT_THROW(maintainer.apply(e), std::logic_error);
}

TEST(UpdatesTest, InsertDominatingEverythingReplacesSkyline) {
  auto sites = initialSites(72);
  InProcCluster cluster(Topology::fromPartitions(sites));
  QueryConfig config;
  config.q = kQ;
  SkylineMaintainer maintainer(cluster.coordinator(), config,
                               MaintenanceStrategy::kIncremental);
  maintainer.initialize();
  Mirror mirror(std::move(sites));

  UpdateEvent e;
  e.kind = UpdateEvent::Kind::kInsert;
  e.site = 0;
  e.tuple = Tuple{100000, {-1.0, -1.0}, 0.95};
  mirror.apply(e);
  const UpdateStats stats = maintainer.apply(e);
  EXPECT_TRUE(stats.skylineChanged);
  expectSkylineMatchesTruth(maintainer, mirror, kQ, "dominating insert");
  // The new tuple is on top.
  EXPECT_EQ(maintainer.skyline().front().tuple.id, 100000u);
}

TEST(UpdatesTest, IrrelevantInsertCostsNothing) {
  // Deep in the dominated region with a tiny probability: the site resolves
  // it locally with zero network tuples — on a subspace too, where the site
  // computes the masked bounds itself.
  struct Case {
    const char* name;
    std::size_t dims;
    DimMask mask;
  };
  for (const Case& c : {Case{"full space, d=2", 2, kAllDims},
                        Case{"mask 0b011, d=3", 3, 0b011}}) {
    auto sites = initialSites(73, 400, 4, c.dims);
    InProcCluster cluster(Topology::fromPartitions(sites));
    QueryConfig config;
    config.q = kQ;
    config.mask = c.mask;
    SkylineMaintainer maintainer(cluster.coordinator(), config,
                                 MaintenanceStrategy::kIncremental);
    maintainer.initialize();
    Mirror mirror(std::move(sites));

    UpdateEvent e;
    e.kind = UpdateEvent::Kind::kInsert;
    e.site = 1;
    e.tuple = Tuple{100001, std::vector<double>(c.dims, 50.0), 0.01};
    mirror.apply(e);
    const UpdateStats stats = maintainer.apply(e);
    EXPECT_EQ(stats.tuplesShipped, 0u) << c.name;
    EXPECT_FALSE(stats.skylineChanged) << c.name;
    expectSkylineMatchesTruth(maintainer, mirror, kQ, c.name, c.mask);
  }
}

TEST(UpdatesTest, DeleteOfSkylineMemberPromotesSuccessors) {
  // Constructed promotion scenario: a strong dominator suppresses a tuple
  // on another site; deleting it must promote the victim.
  std::vector<Dataset> sites;
  sites.emplace_back(2);
  sites.emplace_back(2);
  sites[0].add(0, std::vector<double>{1.0, 1.0}, 0.9);   // dominator
  sites[1].add(1, std::vector<double>{2.0, 2.0}, 0.8);   // suppressed: 0.08
  sites[1].add(2, std::vector<double>{9.0, 0.5}, 0.6);   // independent

  InProcCluster cluster(Topology::fromPartitions(sites));
  QueryConfig config;
  config.q = kQ;
  SkylineMaintainer maintainer(cluster.coordinator(), config,
                               MaintenanceStrategy::kIncremental);
  maintainer.initialize();
  Mirror mirror(std::move(sites));
  {
    auto ids = testutil::idsOf(maintainer.skyline());
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, (std::vector<TupleId>{0, 2}));
  }

  UpdateEvent e;
  e.kind = UpdateEvent::Kind::kDelete;
  e.site = 0;
  e.tuple = Tuple{0, {1.0, 1.0}, 0.9};
  mirror.apply(e);
  const UpdateStats stats = maintainer.apply(e);
  EXPECT_TRUE(stats.skylineChanged);
  auto ids = testutil::idsOf(maintainer.skyline());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<TupleId>{1, 2}));
  expectSkylineMatchesTruth(maintainer, mirror, kQ, "promotion delete");
}

TEST(UpdatesTest, DeleteOfNonSkylineTupleCanStillPromote) {
  // The deleted tuple never qualified itself (P = 0.4 -> P_sky 0.4 > q
  // locally... use 0.25 < q so it is not even a local skyline answer), yet
  // its disappearance raises a suppressed tuple across the threshold.
  std::vector<Dataset> sites;
  sites.emplace_back(2);
  sites.emplace_back(2);
  sites[0].add(0, std::vector<double>{1.0, 1.0}, 0.25);  // below q itself
  sites[0].add(1, std::vector<double>{1.5, 1.5}, 0.35);
  sites[1].add(2, std::vector<double>{2.0, 2.0}, 0.55);
  // P_gsky(2) = 0.55 * 0.75 * 0.65 = 0.268 < 0.3 initially.

  InProcCluster cluster(Topology::fromPartitions(sites));
  QueryConfig config;
  config.q = kQ;
  SkylineMaintainer maintainer(cluster.coordinator(), config,
                               MaintenanceStrategy::kIncremental);
  maintainer.initialize();
  Mirror mirror(std::move(sites));
  {
    auto ids = testutil::idsOf(maintainer.skyline());
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, mirror.truthIds(kQ));
  }

  UpdateEvent e;
  e.kind = UpdateEvent::Kind::kDelete;
  e.site = 0;
  e.tuple = Tuple{0, {1.0, 1.0}, 0.25};
  mirror.apply(e);
  maintainer.apply(e);
  // Now P_gsky(2) = 0.55 * 0.65 = 0.3575 >= q.
  auto ids = testutil::idsOf(maintainer.skyline());
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), TupleId{2}) != ids.end());
  expectSkylineMatchesTruth(maintainer, mirror, kQ, "non-skyline delete");
}

TEST(UpdatesTest, DeleteOfMissingTupleIsNoOp) {
  auto sites = initialSites(74);
  InProcCluster cluster(Topology::fromPartitions(sites));
  QueryConfig config;
  config.q = kQ;
  SkylineMaintainer maintainer(cluster.coordinator(), config,
                               MaintenanceStrategy::kIncremental);
  maintainer.initialize();
  Mirror mirror(std::move(sites));

  UpdateEvent e;
  e.kind = UpdateEvent::Kind::kDelete;
  e.site = 2;
  e.tuple = Tuple{999999, {0.5, 0.5}, 0.5};
  const UpdateStats stats = maintainer.apply(e);
  EXPECT_FALSE(stats.skylineChanged);
  EXPECT_EQ(stats.tuplesShipped, 0u);
  expectSkylineMatchesTruth(maintainer, mirror, kQ, "missing delete");
}

/// Data shape of one update stream: dimensionality, value distribution and
/// the maintained skyline's subspace.
struct StreamShape {
  const char* name;
  std::size_t dims;
  ValueDistribution dist;
  DimMask mask;
};

class UpdateStreamTest
    : public ::testing::TestWithParam<
          std::tuple<StreamShape, std::uint64_t, MaintenanceStrategy>> {};

TEST_P(UpdateStreamTest, RandomStreamStaysExact) {
  const auto [shape, seed, strategy] = GetParam();
  auto sites = initialSites(seed, 300, 4, shape.dims, shape.dist);
  InProcCluster cluster(Topology::fromPartitions(sites));
  QueryConfig config;
  config.q = kQ;
  config.mask = shape.mask;
  SkylineMaintainer maintainer(cluster.coordinator(), config, strategy);
  maintainer.initialize();
  Mirror mirror(std::move(sites));

  Rng rng(seed + 500);
  TupleId nextId = 1000000;
  for (int step = 0; step < 40; ++step) {
    UpdateEvent e;
    const bool doInsert = rng.uniform() < 0.5;
    if (doInsert) {
      e = randomInsert(rng, 4, nextId++, shape.dims);
    } else {
      // Delete a random existing tuple from a random non-empty site.
      SiteId site = static_cast<SiteId>(rng.below(4));
      while (mirror.sites[site].empty()) {
        site = static_cast<SiteId>(rng.below(4));
      }
      const std::size_t row = rng.below(mirror.sites[site].size());
      const TupleRef ref = mirror.sites[site].at(row);
      e.kind = UpdateEvent::Kind::kDelete;
      e.site = site;
      e.tuple = Tuple{ref.id,
                      std::vector<double>(ref.values.begin(), ref.values.end()),
                      ref.prob};
    }
    mirror.apply(e);
    maintainer.apply(e);
    if (step % 8 == 7) {
      expectSkylineMatchesTruth(maintainer, mirror, kQ,
                                "step " + std::to_string(step), shape.mask);
    }
  }
  expectSkylineMatchesTruth(maintainer, mirror, kQ, "final", shape.mask);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, UpdateStreamTest,
    ::testing::Combine(
        ::testing::Values(
            StreamShape{"ind2d", 2, ValueDistribution::kIndependent, kAllDims},
            StreamShape{"anti3d", 3, ValueDistribution::kAnticorrelated,
                        kAllDims},
            StreamShape{"ind3d_mask01", 3, ValueDistribution::kIndependent,
                        DimMask{0b011}}),
        ::testing::Values(80u, 81u, 82u),
        ::testing::Values(MaintenanceStrategy::kIncremental,
                          MaintenanceStrategy::kNaiveRecompute)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_seed" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) == MaintenanceStrategy::kIncremental
                  ? "_incremental"
                  : "_naive");
    });

TEST(UpdatesTest, IncrementalIsCheaperThanNaive) {
  std::uint64_t incrementalTuples = 0;
  std::uint64_t naiveTuples = 0;
  for (const MaintenanceStrategy strategy :
       {MaintenanceStrategy::kIncremental,
        MaintenanceStrategy::kNaiveRecompute}) {
    auto sites = initialSites(83, 500, 6);
    InProcCluster cluster(Topology::fromPartitions(sites));
    QueryConfig config;
    config.q = kQ;
    SkylineMaintainer maintainer(cluster.coordinator(), config, strategy);
    maintainer.initialize();

    Rng rng(84);
    TupleId nextId = 2000000;
    std::uint64_t total = 0;
    for (int step = 0; step < 20; ++step) {
      const UpdateEvent e = randomInsert(rng, 6, nextId++);
      total += maintainer.apply(e).tuplesShipped;
    }
    (strategy == MaintenanceStrategy::kIncremental ? incrementalTuples
                                                   : naiveTuples) = total;
  }
  EXPECT_LT(incrementalTuples, naiveTuples / 2);
}

TEST(UpdatesTest, ReplicasStayConsistentAcrossSites) {
  auto sites = initialSites(85, 200, 3);
  InProcCluster cluster(Topology::fromPartitions(sites));
  QueryConfig config;
  config.q = kQ;
  SkylineMaintainer maintainer(cluster.coordinator(), config,
                               MaintenanceStrategy::kIncremental);
  maintainer.initialize();

  Rng rng(86);
  TupleId nextId = 3000000;
  for (int step = 0; step < 10; ++step) {
    maintainer.apply(randomInsert(rng, 3, nextId++));
  }

  auto skylineIds = testutil::idsOf(maintainer.skyline());
  std::sort(skylineIds.begin(), skylineIds.end());
  for (std::size_t s = 0; s < cluster.siteCount(); ++s) {
    std::vector<TupleId> replicaIds;
    for (const auto& r : cluster.site(s).replica()) {
      replicaIds.push_back(r.entry.tuple.id);
    }
    std::sort(replicaIds.begin(), replicaIds.end());
    EXPECT_EQ(replicaIds, skylineIds) << "site " << s;
  }
}

}  // namespace
}  // namespace dsud
