// Exact gate on the paper's query cost (Sec. 7, Figs. 8–10): small seeded
// versions of the fig08 (dimensionality), fig09 (site count) and fig10
// (threshold) sweeps, each run with DSUD and e-DSUD over independent and
// anticorrelated data, with every query's tuples shipped, bytes shipped,
// round trips and per-site sorted-access rounds pinned to a golden table.
//
// The costs are deterministic, so a change to how sites prune, what the
// coordinator pulls or what the wire carries shows up here even when the
// answers stay exact.  A site-side search change (e.g. BBS bounds) must
// leave every row unchanged.  A golden row may change only deliberately,
// with the reason recorded in CHANGES.md.  To print fresh tables:
//
//     DSUD_PRINT_GOLDEN=1 build/tests/query_cost_golden_test
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "gen/synthetic.hpp"

namespace dsud {
namespace {

constexpr std::size_t kN = 1000;

struct Shape {
  const char* fig;  // which sweep the shape belongs to
  std::size_t dims;
  std::size_t sites;
  double q;
};

/// fig08 varies d (m=5, q=0.3), fig09 varies m (d=3, q=0.3), fig10 varies
/// q (d=3, m=5; its q=0.3 point is fig08's d=3 row) — the paper's sweeps
/// at a scale a unit test can afford.
constexpr Shape kShapes[] = {
    {"fig08", 2, 5, 0.3}, {"fig08", 3, 5, 0.3}, {"fig08", 4, 5, 0.3},
    {"fig09", 3, 3, 0.3}, {"fig09", 3, 6, 0.3}, {"fig09", 3, 9, 0.3},
    {"fig10", 3, 5, 0.5}, {"fig10", 3, 5, 0.7}, {"fig10", 3, 5, 0.9},
};

/// One line per query: "<fig> d=<d> m=<m> q=<q> <algo> tuples bytes
/// roundTrips | rounds of site 0, site 1, ...".
std::vector<std::string> run(ValueDistribution dist, std::uint64_t seed) {
  std::vector<std::string> rows;
  for (const Shape& s : kShapes) {
    const Dataset global =
        generateSynthetic(SyntheticSpec{kN, s.dims, dist, seed + s.dims});
    InProcCluster cluster(Topology::uniform(global, s.sites, seed));
    QueryConfig config;
    config.q = s.q;
    for (const Algo algo : {Algo::kDsud, Algo::kEdsud}) {
      const QueryResult r = cluster.engine().run(algo, config);
      std::ostringstream row;
      row << s.fig << " d=" << s.dims << " m=" << s.sites << " q=" << s.q
          << ' ' << (algo == Algo::kDsud ? "dsud" : "edsud") << ' '
          << r.stats.tuplesShipped << ' ' << r.stats.bytesShipped << ' '
          << r.stats.roundTrips << " |";
      for (const SiteProfile& p : r.profile.sites) row << ' ' << p.rounds;
      rows.push_back(row.str());
    }
  }
  return rows;
}

std::vector<std::string> splitLines(const char* table) {
  std::vector<std::string> rows;
  std::istringstream in(table);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) rows.push_back(line);
  }
  return rows;
}

void expectGolden(ValueDistribution dist, std::uint64_t seed,
                  const char* golden) {
  const auto got = run(dist, seed);
  if (std::getenv("DSUD_PRINT_GOLDEN") != nullptr) {
    std::printf("--- %s seed %llu\n", distributionName(dist),
                static_cast<unsigned long long>(seed));
    for (const std::string& row : got) std::printf("%s\n", row.c_str());
  }
  const auto want = splitLines(golden);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "query " << i;
  }
}

// Rows: shape, algorithm, tuples shipped, bytes shipped, round trips, then
// after '|' the sorted-access rounds each site served, in site order.

constexpr const char* kIndependentGolden = R"(
fig08 d=2 m=5 q=0.3 dsud 35 2760 50 | 3 2 2 3 2
fig08 d=2 m=5 q=0.3 edsud 35 2700 50 | 3 4 10 3 4
fig08 d=3 m=5 q=0.3 dsud 165 13180 180 | 7 7 6 11 7
fig08 d=3 m=5 q=0.3 edsud 134 10726 149 | 7 7 6 12 7
fig08 d=4 m=5 q=0.3 dsud 490 42450 505 | 20 16 29 21 17
fig08 d=4 m=5 q=0.3 edsud 474 41058 489 | 20 16 29 21 17
fig09 d=3 m=3 q=0.3 dsud 81 6450 90 | 13 9 8
fig09 d=3 m=3 q=0.3 edsud 77 6134 86 | 13 9 8
fig09 d=3 m=6 q=0.3 dsud 210 16787 228 | 9 5 5 8 8 6
fig09 d=3 m=6 q=0.3 edsud 159 12738 177 | 10 5 5 8 10 7
fig09 d=3 m=9 q=0.3 dsud 324 25974 351 | 8 5 4 5 5 4 4 5 5
fig09 d=3 m=9 q=0.3 edsud 242 19466 269 | 9 6 5 5 6 4 4 7 5
fig10 d=3 m=5 q=0.5 dsud 155 12400 170 | 6 7 6 11 6
fig10 d=3 m=5 q=0.5 edsud 124 9946 139 | 6 7 6 12 6
fig10 d=3 m=5 q=0.7 dsud 120 9670 135 | 5 5 5 9 5
fig10 d=3 m=5 q=0.7 edsud 93 7532 108 | 5 5 5 10 5
fig10 d=3 m=5 q=0.9 dsud 60 4990 75 | 3 1 3 7 3
fig10 d=3 m=5 q=0.9 edsud 48 4042 63 | 3 1 3 7 3
)";

constexpr const char* kAnticorrelatedGolden = R"(
fig08 d=2 m=5 q=0.3 dsud 140 10110 155 | 7 6 7 9 4
fig08 d=2 m=5 q=0.3 edsud 114 8254 129 | 8 6 8 9 4
fig08 d=3 m=5 q=0.3 dsud 595 46720 610 | 17 33 30 22 22
fig08 d=3 m=5 q=0.3 edsud 563 44192 578 | 17 33 30 22 22
fig08 d=4 m=5 q=0.3 dsud 1050 90610 1065 | 47 36 41 45 46
fig08 d=4 m=5 q=0.3 edsud 1018 87826 1033 | 47 36 41 45 46
fig09 d=3 m=3 q=0.3 dsud 333 25938 342 | 39 38 37
fig09 d=3 m=3 q=0.3 edsud 329 25622 338 | 39 38 37
fig09 d=3 m=6 q=0.3 dsud 738 58059 756 | 19 24 17 25 21 23
fig09 d=3 m=6 q=0.3 edsud 694 54578 712 | 19 24 17 26 21 23
fig09 d=3 m=9 q=0.3 dsud 1197 94456 1224 | 17 15 19 16 21 12 16 12 14
fig09 d=3 m=9 q=0.3 edsud 1056 83302 1083 | 18 15 19 17 22 12 16 12 14
fig10 d=3 m=5 q=0.5 dsud 465 36580 480 | 14 25 26 17 16
fig10 d=3 m=5 q=0.5 edsud 441 34684 456 | 14 25 26 17 16
fig10 d=3 m=5 q=0.7 dsud 245 19420 260 | 10 14 13 8 9
fig10 d=3 m=5 q=0.7 edsud 225 17840 240 | 10 14 13 8 9
fig10 d=3 m=5 q=0.9 dsud 70 5770 85 | 2 6 4 4 3
fig10 d=3 m=5 q=0.9 edsud 70 5770 85 | 2 6 4 4 3
)";

TEST(QueryCostGoldenTest, IndependentQueryCostsArePinned) {
  expectGolden(ValueDistribution::kIndependent, 1500, kIndependentGolden);
}

TEST(QueryCostGoldenTest, AnticorrelatedQueryCostsArePinned) {
  expectGolden(ValueDistribution::kAnticorrelated, 1510,
               kAnticorrelatedGolden);
}

}  // namespace
}  // namespace dsud
