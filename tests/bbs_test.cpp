#include "skyline/bbs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "gen/synthetic.hpp"
#include "skyline/linear_skyline.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

TEST(BbsTest, EmptyTree) {
  const PRTree tree(2);
  EXPECT_TRUE(bbsSkyline(tree, {.q = 0.3}).empty());
}

TEST(BbsTest, SingleTuple) {
  Dataset data = testutil::makeDataset(2, {{0.5, 0.5, 0.7}});
  const PRTree tree = PRTree::bulkLoad(data);
  const auto sky = bbsSkyline(tree, {.q = 0.3});
  ASSERT_EQ(sky.size(), 1u);
  EXPECT_DOUBLE_EQ(sky[0].skyProb, 0.7);
  EXPECT_TRUE(bbsSkyline(tree, {.q = 0.8}).empty());
}

struct BbsCase {
  std::size_t n;
  std::size_t dims;
  ValueDistribution dist;
  double q;
  std::uint64_t seed;
};

class BbsParamTest : public ::testing::TestWithParam<BbsCase> {};

TEST_P(BbsParamTest, MatchesLinearScanExactly) {
  const BbsCase& c = GetParam();
  const Dataset data =
      generateSynthetic(SyntheticSpec{c.n, c.dims, c.dist, c.seed});
  const PRTree tree = PRTree::bulkLoad(data);

  const auto expected = linearSkyline(data, {.q = c.q});
  const auto got = bbsSkyline(tree, {.q = c.q});

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, expected[i].id);
    EXPECT_NEAR(got[i].skyProb, expected[i].skyProb, 1e-9);
    EXPECT_EQ(got[i].values, expected[i].values);
    EXPECT_EQ(got[i].prob, expected[i].prob);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BbsParamTest,
    ::testing::Values(
        BbsCase{200, 2, ValueDistribution::kIndependent, 0.3, 21},
        BbsCase{200, 2, ValueDistribution::kAnticorrelated, 0.3, 22},
        BbsCase{200, 3, ValueDistribution::kIndependent, 0.5, 23},
        BbsCase{500, 3, ValueDistribution::kAnticorrelated, 0.3, 24},
        BbsCase{500, 4, ValueDistribution::kIndependent, 0.7, 25},
        BbsCase{500, 2, ValueDistribution::kCorrelated, 0.3, 26},
        BbsCase{1000, 2, ValueDistribution::kIndependent, 0.9, 27},
        BbsCase{1000, 5, ValueDistribution::kIndependent, 0.3, 28},
        BbsCase{2000, 3, ValueDistribution::kAnticorrelated, 0.5, 29}),
    [](const ::testing::TestParamInfo<BbsCase>& info) {
      const BbsCase& c = info.param;
      return "n" + std::to_string(c.n) + "_d" + std::to_string(c.dims) + "_" +
             distributionName(c.dist) + "_q" +
             std::to_string(static_cast<int>(c.q * 10));
    });

TEST(BbsTest, SubspaceMatchesLinearScan) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{400, 3, ValueDistribution::kIndependent, 31});
  const PRTree tree = PRTree::bulkLoad(data);
  for (const DimMask mask :
       {DimMask{0b011}, DimMask{0b101}, DimMask{0b110}, DimMask{0b001}}) {
    const auto expected = linearSkyline(data, {.mask = mask, .q = 0.3});
    const auto got = bbsSkyline(tree, {.mask = mask, .q = 0.3});
    EXPECT_EQ(testutil::idsOf(got), testutil::idsOf(expected))
        << "mask=" << mask;
  }
}

TEST(BbsTest, PruningActuallyHappens) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{5000, 2, ValueDistribution::kIndependent, 33});
  const PRTree tree = PRTree::bulkLoad(data);
  BbsStats stats;
  bbsSkyline(tree, {.q = 0.3}, &stats);
  EXPECT_GT(stats.nodesPruned, 0u);
  // Far fewer tuples evaluated than stored: the point of the index.
  EXPECT_LT(stats.tuplesEvaluated, data.size() / 2);
}

TEST(BbsTest, HigherThresholdPrunesMore) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{5000, 3, ValueDistribution::kAnticorrelated, 34});
  const PRTree tree = PRTree::bulkLoad(data);
  BbsStats low;
  BbsStats high;
  bbsSkyline(tree, {.q = 0.3}, &low);
  bbsSkyline(tree, {.q = 0.9}, &high);
  EXPECT_LE(high.tuplesEvaluated, low.tuplesEvaluated);
}

TEST(BbsTest, StreamEmitsInAscendingL1Order) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{1000, 2, ValueDistribution::kAnticorrelated, 35});
  const PRTree tree = PRTree::bulkLoad(data);
  double lastKey = -1e300;
  std::size_t count = 0;
  bbsSkylineStream(tree, {.q = 0.3}, [&](const ProbSkylineEntry& e) {
    const double key = e.values[0] + e.values[1];
    EXPECT_GE(key, lastKey);
    lastKey = key;
    ++count;
    return true;
  });
  EXPECT_EQ(count, bbsSkyline(tree, {.q = 0.3}).size());
}

TEST(BbsTest, StreamEarlyExitStops) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{1000, 2, ValueDistribution::kAnticorrelated, 36});
  const PRTree tree = PRTree::bulkLoad(data);
  std::size_t count = 0;
  bbsSkylineStream(tree, {.q = 0.3}, [&](const ProbSkylineEntry&) {
    return ++count < 3;
  });
  EXPECT_EQ(count, 3u);
}

TEST(BbsTest, CertainDataGivesClassicSkyline) {
  Dataset data(2);
  // Grid of points with P = 1: the skyline is the anti-diagonal staircase.
  for (int x = 0; x < 10; ++x) {
    for (int y = 0; y < 10; ++y) {
      const std::array<double, 2> v = {double(x), double(y)};
      data.add(v, 1.0);
    }
  }
  const PRTree tree = PRTree::bulkLoad(data);
  const auto sky = bbsSkyline(tree, {.q = 0.5});
  // Only (0, 0) is undominated in a full grid.
  ASSERT_EQ(sky.size(), 1u);
  EXPECT_EQ(sky[0].values, (std::vector<double>{0.0, 0.0}));
}

TEST(BbsTest, WorksOnDynamicallyBuiltTree) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{600, 3, ValueDistribution::kIndependent, 37});
  PRTree tree(3);
  for (std::size_t row = 0; row < data.size(); ++row) {
    tree.insert(data.id(row), data.values(row), data.prob(row));
  }
  EXPECT_EQ(testutil::idsOf(bbsSkyline(tree, {.q = 0.3})),
            testutil::idsOf(linearSkyline(data, {.q = 0.3})));
}


// ---------------------------------------------------------------------------
// Region-restricted search (delete repair, paper Sec. 5.4)

/// Anticorrelated data snapped to an integer grid of 6 steps per dimension:
/// many tuples share values, and many skyline tuples share an L1 key, so
/// dominance ties and heap-key ties are the rule, not the exception.
Dataset integerGrid(std::size_t n, std::size_t dims, std::uint64_t seed) {
  const Dataset smooth = generateSynthetic(
      SyntheticSpec{n, dims, ValueDistribution::kAnticorrelated, seed});
  Dataset data(dims);
  std::vector<double> v(dims);
  for (std::size_t row = 0; row < smooth.size(); ++row) {
    const auto values = smooth.values(row);
    for (std::size_t j = 0; j < dims; ++j) v[j] = std::round(values[j] * 5.0);
    data.add(v, smooth.prob(row));
  }
  return data;
}

/// The full-space stream filtered by dominance: the reference the region
/// search must reproduce.
std::vector<ProbSkylineEntry> filteredFullSpace(const PRTree& tree,
                                                const SkylineSpec& spec,
                                                std::span<const double> p) {
  const DimMask mask = effectiveMask(spec.mask, tree.dims());
  std::vector<ProbSkylineEntry> out;
  bbsSkylineStream(tree, spec, [&](const ProbSkylineEntry& e) {
    if (dominates(p, e.values, mask)) out.push_back(e);
    return true;
  });
  return out;
}

std::vector<ProbSkylineEntry> regionSearch(const PRTree& tree,
                                           const SkylineSpec& spec,
                                           std::span<const double> p,
                                           BbsStats* stats = nullptr) {
  std::vector<ProbSkylineEntry> out;
  bbsSkylineDominatedBy(
      tree, spec, p,
      [&](const ProbSkylineEntry& e) {
        out.push_back(e);
        return true;
      },
      stats);
  return out;
}

/// Delete points on the frontier (the lowest-key tuples: skyline members
/// and their neighbours) and far from it (the highest-key tuples).
std::vector<std::vector<double>> probePoints(const Dataset& data) {
  std::vector<std::size_t> rows(data.size());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  const auto key = [&](std::size_t row) {
    double s = 0.0;
    for (const double x : data.values(row)) s += x;
    return s;
  };
  std::sort(rows.begin(), rows.end(), [&](std::size_t a, std::size_t b) {
    return key(a) < key(b);
  });
  std::vector<std::vector<double>> points;
  for (const std::size_t row : {rows[0], rows[1], rows[5], rows[rows.size() / 2],
                                rows[rows.size() - 8], rows.back()}) {
    const auto v = data.values(row);
    points.emplace_back(v.begin(), v.end());
  }
  return points;
}

struct RegionCase {
  const char* name;
  ValueDistribution dist;
  bool grid;
};

class BbsRegionTest : public ::testing::TestWithParam<RegionCase> {};

TEST_P(BbsRegionTest, MatchesFilteredFullSpaceSearchExactly) {
  const RegionCase& c = GetParam();
  for (std::size_t dims = 2; dims <= 4; ++dims) {
    const std::uint64_t seed = 600 + dims;
    const Dataset data =
        c.grid ? integerGrid(700, dims, seed)
               : generateSynthetic(SyntheticSpec{700, dims, c.dist, seed});
    const PRTree tree = PRTree::bulkLoad(data);
    const auto points = probePoints(data);
    for (DimMask mask = 1; mask <= fullMask(dims); ++mask) {
      for (const double q : {0.1, 0.3, 0.5}) {
        const SkylineSpec spec{.mask = mask, .q = q};
        for (std::size_t p = 0; p < points.size(); ++p) {
          const auto want = filteredFullSpace(tree, spec, points[p]);
          const auto got = regionSearch(tree, spec, points[p]);
          const std::string where = "d=" + std::to_string(dims) +
                                    " mask=" + std::to_string(mask) +
                                    " q=" + std::to_string(q) +
                                    " point=" + std::to_string(p);
          ASSERT_EQ(got.size(), want.size()) << where;
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].id, want[i].id) << where << " rank " << i;
            // Bit-identical: both come from the same whole-tree survival.
            ASSERT_EQ(got[i].skyProb, want[i].skyProb) << where;
            ASSERT_EQ(got[i].values, want[i].values) << where;
            ASSERT_EQ(got[i].prob, want[i].prob) << where;
          }
        }
      }
    }
  }
}

TEST_P(BbsRegionTest, FarFromFrontierVisitsFewerNodes) {
  const RegionCase& c = GetParam();
  for (std::size_t dims = 2; dims <= 4; ++dims) {
    const std::uint64_t seed = 620 + dims;
    const Dataset data =
        c.grid ? integerGrid(3000, dims, seed)
               : generateSynthetic(SyntheticSpec{3000, dims, c.dist, seed});
    const PRTree tree = PRTree::bulkLoad(data);
    const auto far = probePoints(data).back();
    const SkylineSpec spec{.q = 0.3};
    BbsStats full;
    bbsSkyline(tree, spec, &full);
    BbsStats region;
    regionSearch(tree, spec, far, &region);
    EXPECT_LT(region.nodesVisited, full.nodesVisited) << "d=" << dims;
    EXPECT_LE(region.tuplesEvaluated, full.tuplesEvaluated) << "d=" << dims;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Data, BbsRegionTest,
    ::testing::Values(
        RegionCase{"independent", ValueDistribution::kIndependent, false},
        RegionCase{"anticorrelated", ValueDistribution::kAnticorrelated,
                   false},
        RegionCase{"grid", ValueDistribution::kIndependent, true}),
    [](const ::testing::TestParamInfo<RegionCase>& info) {
      return std::string(info.param.name);
    });

TEST(BbsTest, RegionSearchOnMaintainedTreeAfterErase) {
  // The repair runs on a tree that has just lost the deleted tuple.
  const Dataset data = generateSynthetic(
      SyntheticSpec{800, 3, ValueDistribution::kIndependent, 640});
  PRTree tree = PRTree::bulkLoad(data);
  const auto points = probePoints(data);
  for (std::size_t row = 0; row < data.size(); row += 7) {
    ASSERT_TRUE(tree.erase(data.id(row), data.values(row)));
  }
  for (const auto& p : points) {
    const SkylineSpec spec{.q = 0.3};
    EXPECT_EQ(testutil::idsOf(regionSearch(tree, spec, p)),
              testutil::idsOf(filteredFullSpace(tree, spec, p)));
  }
}

TEST(BbsTest, RegionSearchRejectsBadDimensionality) {
  const PRTree tree = PRTree::bulkLoad(generateSynthetic(
      SyntheticSpec{50, 3, ValueDistribution::kIndependent, 641}));
  const std::vector<double> p = {0.5, 0.5};
  EXPECT_THROW(regionSearch(tree, {.q = 0.3}, p), std::invalid_argument);
}

}  // namespace
}  // namespace dsud
