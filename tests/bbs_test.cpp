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

Dataset caseData(const RegionCase& c, std::size_t n, std::size_t dims,
                 std::uint64_t seed) {
  return c.grid ? integerGrid(n, dims, seed)
                : generateSynthetic(SyntheticSpec{n, dims, c.dist, seed});
}

class BbsRegionTest : public ::testing::TestWithParam<RegionCase> {};

TEST_P(BbsRegionTest, MatchesFilteredFullSpaceSearchExactly) {
  const RegionCase& c = GetParam();
  for (std::size_t dims = 2; dims <= 4; ++dims) {
    const std::uint64_t seed = 600 + dims;
    const Dataset data = caseData(c, 700, dims, seed);
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
    const Dataset data = caseData(c, 3000, dims, seed);
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


// ---------------------------------------------------------------------------
// Per-tuple in-leaf bound: a leaf tuple reaches the exact survival query only
// when P(t) · S(lo) · Π_{s in its leaf, s ≺ t} (1 − P(s)) clears q.

/// Every stored tuple's exact P_sky, computed as BBS computes it at pop time
/// (P(t) times the whole tree's dominance survival), kept when in the window
/// and at or above q, in bbsSkyline's order: what BBS must reproduce bit for
/// bit however many tuples its bounds skip.
std::vector<ProbSkylineEntry> exhaustiveSkyline(const PRTree& tree,
                                                const SkylineSpec& spec) {
  const std::size_t dims = tree.dims();
  const DimMask mask = effectiveMask(spec.mask, dims);
  std::vector<ProbSkylineEntry> out;
  tree.forEach([&](const PRTree::LeafEntry& e) {
    const auto v = e.valueSpan(dims);
    if (spec.clip != nullptr && !spec.clip->containsPoint(v)) return;
    const double skyProb = e.prob * tree.dominanceSurvival(v, mask, spec.clip);
    if (skyProb >= spec.q) {
      out.push_back({e.id, {v.begin(), v.end()}, e.prob, skyProb});
    }
  });
  sortBySkylineProbability(out);
  return out;
}

/// The tuples the node bound alone lets through: every slot of every leaf
/// whose whole root path passes P₂ · S(lo) >= q.  Before the per-tuple
/// bound, each of them cost one exact survival query.
std::size_t nodeBoundSurvivors(const PRTree& tree,
                               const PRTree::NodeRef& node, double q) {
  const DimMask mask = fullMask(tree.dims());
  if (node.pMax() * tree.dominanceSurvival(node.mbr().loSpan(), mask) < q) {
    return 0;
  }
  if (node.isLeaf()) return node.fanout();
  std::size_t n = 0;
  for (std::size_t i = 0; i < node.fanout(); ++i) {
    n += nodeBoundSurvivors(tree, node.child(i), q);
  }
  return n;
}

/// [lo + f0·(hi − lo), lo + f1·(hi − lo)] per dimension over the data's
/// bounding box.
Rect windowOf(const Dataset& data, double f0, double f1) {
  Rect box(data.dims());
  for (std::size_t row = 0; row < data.size(); ++row) {
    box.expand(data.values(row));
  }
  std::vector<double> lo(data.dims());
  std::vector<double> hi(data.dims());
  for (std::size_t j = 0; j < data.dims(); ++j) {
    const double span = box.hi(j) - box.lo(j);
    lo[j] = box.lo(j) + f0 * span;
    hi[j] = box.lo(j) + f1 * span;
  }
  Rect window(data.dims());
  window.expand(lo);
  window.expand(hi);
  return window;
}

/// Counts leaves inside `window` and leaves it cuts.
void countLeaves(const PRTree::NodeRef& node, const Rect& window,
                 std::size_t& inside, std::size_t& straddling) {
  if (!node.mbr().intersects(window)) return;
  if (node.isLeaf()) {
    ++(window.containsRect(node.mbr()) ? inside : straddling);
    return;
  }
  for (std::size_t i = 0; i < node.fanout(); ++i) {
    countLeaves(node.child(i), window, inside, straddling);
  }
}

/// bbsSkyline and bbsSkylineStream against the exhaustive reference (same
/// ids, same order, bit-identical skyProb) and against the linear scan
/// (same ids in the same order; its log-space skyProb agrees to 1e-9).
void expectExact(const PRTree& tree, const SkylineSpec& spec,
                 const std::vector<ProbSkylineEntry>& linear,
                 const std::string& where) {
  const auto want = exhaustiveSkyline(tree, spec);
  const auto got = bbsSkyline(tree, spec);
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].id, want[i].id) << where << " rank " << i;
    ASSERT_EQ(got[i].skyProb, want[i].skyProb) << where;
    ASSERT_EQ(got[i].values, want[i].values) << where;
    ASSERT_EQ(got[i].prob, want[i].prob) << where;
  }
  ASSERT_EQ(got.size(), linear.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].id, linear[i].id) << where << " rank " << i;
    ASSERT_NEAR(got[i].skyProb, linear[i].skyProb, 1e-9) << where;
  }

  // The stream emits the same entries in (L1 key, id) order.
  auto byKey = want;
  const auto key = [](const ProbSkylineEntry& e) {
    double k = 0.0;
    for (const double x : e.values) k += x;
    return k;
  };
  std::sort(byKey.begin(), byKey.end(),
            [&](const ProbSkylineEntry& a, const ProbSkylineEntry& b) {
              if (key(a) != key(b)) return key(a) < key(b);
              return a.id < b.id;
            });
  std::vector<ProbSkylineEntry> streamed;
  bbsSkylineStream(tree, spec, [&](const ProbSkylineEntry& e) {
    streamed.push_back(e);
    return true;
  });
  ASSERT_EQ(streamed, byKey) << where;
}

class BbsBoundTest : public ::testing::TestWithParam<RegionCase> {};

TEST_P(BbsBoundTest, MatchesExhaustiveAndLinearAcrossFanoutsAndWindows) {
  const RegionCase& c = GetParam();
  for (std::size_t dims = 2; dims <= 4; ++dims) {
    const Dataset data = caseData(c, 500, dims, 700 + dims);
    std::vector<PRTree> trees;
    for (const std::size_t fanout : {4, 12, 32, 64}) {
      const std::size_t minEntries = std::max<std::size_t>(2, fanout * 2 / 5);
      trees.push_back(PRTree::bulkLoad(data, {fanout, minEntries}));
    }
    // A wide window holds whole leaves and cuts the ones at its border; a
    // narrow one cuts most of the leaves it reaches.
    const Rect wide = windowOf(data, 0.05, 0.9);
    const Rect narrow = windowOf(data, 0.25, 0.6);
    std::size_t inside = 0;
    std::size_t straddling = 0;
    countLeaves(trees[0].root(), wide, inside, straddling);
    EXPECT_GT(inside, 0u) << "d=" << dims;
    EXPECT_GT(straddling, 0u) << "d=" << dims;
    for (DimMask mask = 1; mask <= fullMask(dims); ++mask) {
      for (const Rect* clip : {static_cast<const Rect*>(nullptr), &wide,
                               &narrow}) {
        for (const double q : {0.1, 0.3, 0.5}) {
          const SkylineSpec spec{.mask = mask, .q = q, .clip = clip};
          const auto linear = linearSkyline(data, spec);
          for (std::size_t t = 0; t < trees.size(); ++t) {
            const std::string where =
                "d=" + std::to_string(dims) + " mask=" + std::to_string(mask) +
                " window=" +
                (clip == nullptr ? "none" : clip == &wide ? "wide" : "narrow") +
                " q=" + std::to_string(q) +
                " fanout=" + std::to_string(trees[t].options().maxEntries);
            expectExact(trees[t], spec, linear, where);
          }
        }
      }
    }
  }
}

TEST_P(BbsBoundTest, TupleExactlyAtThresholdIsEmitted) {
  // q set to an emitted tuple's own exact skyProb: its bound may round a few
  // ulps below the exact value, and it must still be emitted.
  const RegionCase& c = GetParam();
  for (std::size_t dims = 2; dims <= 3; ++dims) {
    const Dataset data = caseData(c, 1000, dims, 720 + dims);
    const PRTree tree = PRTree::bulkLoad(data);
    const Rect wide = windowOf(data, 0.05, 0.9);
    for (const DimMask mask : {fullMask(dims), DimMask{0b011}}) {
      for (const Rect* clip : {static_cast<const Rect*>(nullptr), &wide}) {
        const SkylineSpec loose{.mask = mask, .q = 0.02, .clip = clip};
        for (const ProbSkylineEntry& e : bbsSkyline(tree, loose)) {
          const SkylineSpec atEdge{.mask = mask, .q = e.skyProb, .clip = clip};
          const auto ids = testutil::idsOf(bbsSkyline(tree, atEdge));
          EXPECT_NE(std::find(ids.begin(), ids.end(), e.id), ids.end())
              << "d=" << dims << " mask=" << mask
              << " window=" << (clip != nullptr) << " id=" << e.id;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Data, BbsBoundTest,
    ::testing::Values(
        RegionCase{"independent", ValueDistribution::kIndependent, false},
        RegionCase{"anticorrelated", ValueDistribution::kAnticorrelated,
                   false},
        RegionCase{"grid", ValueDistribution::kIndependent, true}),
    [](const ::testing::TestParamInfo<RegionCase>& info) {
      return std::string(info.param.name);
    });

TEST(BbsTest, TupleBoundCutsExactQueries) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{1000, 3, ValueDistribution::kIndependent, 730});
  const PRTree tree = PRTree::bulkLoad(data);
  const SkylineSpec spec{.q = 0.3};
  BbsStats stats;
  const auto got = bbsSkyline(tree, spec, &stats);
  EXPECT_EQ(testutil::idsOf(got), testutil::idsOf(linearSkyline(data, spec)));
  EXPECT_LT(stats.tuplesEvaluated, nodeBoundSurvivors(tree, tree.root(), 0.3));
  EXPECT_GE(stats.tuplesEvaluated, got.size());
}

TEST(BbsTest, WorksOnDynamicallyBuiltTree) {
  // Leaves built by inserts, splits and swap-removals rather than STR.
  const Dataset data = generateSynthetic(
      SyntheticSpec{900, 3, ValueDistribution::kAnticorrelated, 740});
  PRTree tree(3, PRTreeOptions{12, 5});
  Dataset kept(3);
  for (std::size_t row = 0; row < data.size(); ++row) {
    tree.insert(data.id(row), data.values(row), data.prob(row));
  }
  for (std::size_t row = 0; row < data.size(); ++row) {
    if (row % 5 == 0) {
      ASSERT_TRUE(tree.erase(data.id(row), data.values(row)));
    } else {
      kept.add(data.id(row), data.values(row), data.prob(row));
    }
  }
  const Rect wide = windowOf(kept, 0.05, 0.9);
  for (DimMask mask = 1; mask <= fullMask(3); ++mask) {
    for (const Rect* clip : {static_cast<const Rect*>(nullptr), &wide}) {
      for (const double q : {0.1, 0.3, 0.5}) {
        const SkylineSpec spec{.mask = mask, .q = q, .clip = clip};
        expectExact(tree, spec, linearSkyline(kept, spec),
                    "mask=" + std::to_string(mask) +
                        " window=" + std::to_string(clip != nullptr) +
                        " q=" + std::to_string(q));
      }
    }
  }
}

}  // namespace
}  // namespace dsud
