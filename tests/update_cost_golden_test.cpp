// Exact gate on the paper's update cost (Sec. 5.4, Fig. 14): a seeded
// fig14-style stream — N=2000 over m=5 sites, d=3, q=0.3, 100 updates in a
// 50/50 insert/delete mix whose deletes always hit live tuples — replayed
// through incremental SkylineMaintainer, with every update's UpdateStats
// (tuples, bytes, broadcasts, skylineChanged) pinned to a golden table.
//
// The costs are deterministic, so any change to what maintenance ships or
// how many broadcasts it needs shows up here even when the maintained
// skyline stays exact.  A golden row may change only deliberately, with the
// reason recorded in CHANGES.md.  To print fresh tables:
//
//     DSUD_PRINT_GOLDEN=1 build/tests/update_cost_golden_test
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/updates.hpp"
#include "gen/partition.hpp"
#include "gen/synthetic.hpp"

namespace dsud {
namespace {

constexpr std::size_t kN = 2000;
constexpr std::size_t kSites = 5;
constexpr std::size_t kUpdates = 100;
constexpr double kQ = 0.3;

/// The stream, planned against a mirror of the site databases so every
/// delete names a live tuple (the bench/fig14_updates recipe).
std::vector<UpdateEvent> makeStream(std::vector<Dataset> mirror,
                                    std::uint64_t seed) {
  Rng rng(seed);
  TupleId nextId = 10'000'000;
  std::vector<UpdateEvent> events;
  for (std::size_t i = 0; i < kUpdates; ++i) {
    UpdateEvent e;
    if (rng.uniform() < 0.5) {
      e.kind = UpdateEvent::Kind::kInsert;
      e.site = static_cast<SiteId>(rng.below(mirror.size()));
      e.tuple = Tuple{nextId++, {rng.uniform(), rng.uniform(), rng.uniform()},
                      rng.existentialUniform()};
      mirror[e.site].add(e.tuple.id, e.tuple.values, e.tuple.prob);
    } else {
      SiteId site = static_cast<SiteId>(rng.below(mirror.size()));
      while (mirror[site].empty()) {
        site = static_cast<SiteId>(rng.below(mirror.size()));
      }
      const std::size_t row = rng.below(mirror[site].size());
      const TupleRef t = mirror[site].at(row);
      e.kind = UpdateEvent::Kind::kDelete;
      e.site = site;
      e.tuple = Tuple{t.id, std::vector<double>(t.values.begin(),
                                                t.values.end()),
                      t.prob};
      mirror[site].eraseRow(row);
    }
    events.push_back(std::move(e));
  }
  return events;
}

/// One line per update: "<i|d> tuples bytes broadcasts changed".
std::vector<std::string> replay(ValueDistribution dist, std::uint64_t seed) {
  const Dataset global = generateSynthetic(SyntheticSpec{kN, 3, dist, seed});
  Rng partitionRng(seed + 1);
  const auto sites = partitionUniform(global, kSites, partitionRng);
  const auto events = makeStream(sites, seed + 2);

  InProcCluster cluster(Topology::fromPartitions(sites));
  QueryConfig config;
  config.q = kQ;
  SkylineMaintainer maintainer(cluster.coordinator(), config,
                               MaintenanceStrategy::kIncremental);
  maintainer.initialize();

  std::vector<std::string> rows;
  for (const UpdateEvent& e : events) {
    const UpdateStats s = maintainer.apply(e);
    std::ostringstream row;
    row << (e.kind == UpdateEvent::Kind::kInsert ? 'i' : 'd') << ' '
        << s.tuplesShipped << ' ' << s.bytesShipped << ' ' << s.broadcasts
        << ' ' << (s.skylineChanged ? 1 : 0);
    rows.push_back(row.str());
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
  const auto got = replay(dist, seed);
  if (std::getenv("DSUD_PRINT_GOLDEN") != nullptr) {
    std::printf("--- %s seed %llu\n", distributionName(dist),
                static_cast<unsigned long long>(seed));
    for (const std::string& row : got) std::printf("%s\n", row.c_str());
  }
  const auto want = splitLines(golden);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "update " << i;
  }
}

// Rows: kind (i = insert, d = delete), tuples shipped, bytes shipped,
// broadcasts, skyline changed (0/1).

constexpr const char* kIndependentGolden = R"(
i 0 77 0 0
d 4 379 5 0
d 4 379 5 0
d 4 379 5 0
i 0 77 0 0
i 8 718 1 1
i 0 77 0 0
d 4 379 5 0
i 0 77 0 0
d 4 379 5 0
i 0 77 0 0
i 0 77 0 0
d 4 379 5 0
d 4 379 5 0
d 4 379 5 0
i 0 77 0 0
i 0 77 0 0
i 0 77 0 0
d 4 379 5 0
d 4 379 5 0
i 0 77 0 0
i 0 77 0 0
i 0 77 0 0
d 4 379 5 0
d 4 379 5 0
i 0 77 0 0
d 9 796 6 1
i 0 77 0 0
d 4 379 5 0
d 9 751 6 0
i 0 77 0 0
i 0 77 0 0
i 0 77 0 0
i 0 77 0 0
i 0 77 0 0
d 4 379 5 0
d 4 379 5 0
d 4 379 5 0
d 4 379 5 0
i 0 77 0 0
i 0 77 0 0
i 0 77 0 0
i 0 77 0 0
d 4 379 5 0
i 0 77 0 0
i 0 77 0 0
d 4 379 5 0
i 0 77 0 0
i 0 77 0 0
i 0 77 0 0
i 0 77 0 0
i 0 77 0 0
d 4 379 5 0
d 4 379 5 0
i 0 77 0 0
d 4 379 5 0
i 0 77 0 0
i 0 77 0 0
d 4 379 5 0
d 4 379 5 0
d 4 379 5 0
d 4 379 5 0
i 0 77 0 0
d 4 379 5 0
i 0 77 0 0
i 0 77 0 0
d 4 379 5 0
d 4 379 5 0
i 0 77 0 0
i 0 77 0 0
i 0 77 0 0
i 0 77 0 0
i 0 77 0 0
d 4 379 5 0
i 0 77 0 0
i 0 77 0 0
i 0 77 0 0
d 4 379 5 0
d 4 379 5 0
d 4 379 5 0
d 4 379 5 0
d 4 379 5 0
d 4 379 5 0
d 4 379 5 0
i 0 77 0 0
i 0 77 0 0
i 0 77 0 0
d 4 379 5 0
i 0 77 0 0
d 4 379 5 0
i 0 77 0 0
i 0 77 0 0
d 4 379 5 0
i 0 77 0 0
i 8 726 1 1
i 0 77 0 0
d 4 379 5 0
i 0 77 0 0
i 0 77 0 0
i 0 77 0 0
)";

constexpr const char* kAnticorrelatedGolden = R"(
i 0 77 0 0
i 0 85 0 0
i 0 77 0 0
i 0 77 0 0
d 4 379 5 0
i 0 77 0 0
d 4 379 5 0
d 28 2237 9 1
d 4 379 5 0
i 0 77 0 0
i 0 77 0 0
i 0 77 0 0
i 0 77 0 0
d 4 379 5 0
i 0 77 0 0
i 0 77 0 0
i 0 77 0 0
d 4 379 5 0
i 0 77 0 0
i 0 77 0 0
d 4 379 5 0
i 0 77 0 0
d 4 424 5 1
i 0 77 0 0
i 0 77 0 0
d 4 379 5 0
d 4 379 5 0
i 0 77 0 0
d 4 379 5 0
i 8 718 1 1
i 0 77 0 0
d 4 379 5 0
d 4 379 5 0
d 4 379 5 0
d 4 379 5 0
d 4 379 5 0
i 0 77 0 0
d 4 379 5 0
d 4 379 5 0
i 8 771 1 1
d 4 379 5 0
d 4 379 5 0
i 0 77 0 0
d 4 379 5 0
i 0 77 0 0
i 0 77 0 0
d 4 379 5 0
d 4 379 5 0
d 4 379 5 0
d 4 379 5 0
i 0 77 0 0
i 0 77 0 0
i 0 77 0 0
d 4 379 5 0
d 4 379 5 0
i 0 77 0 0
i 0 77 0 0
d 4 379 5 0
i 8 771 1 1
d 4 379 5 0
i 0 77 0 0
i 0 77 0 0
i 0 77 0 0
i 0 77 0 0
i 0 77 0 0
d 4 379 5 0
d 4 379 5 0
i 0 77 0 0
d 4 379 5 0
d 4 379 5 0
d 4 379 5 0
i 8 718 1 1
d 4 379 5 0
i 0 77 0 0
d 4 379 5 0
d 4 379 5 0
d 4 379 5 0
d 4 424 5 1
d 4 379 5 0
d 4 379 5 0
d 4 379 5 0
d 4 379 5 0
d 18 1493 7 1
d 4 379 5 0
i 8 1301 1 1
d 4 379 5 0
i 8 991 1 1
d 4 379 5 0
i 8 983 1 1
i 0 77 0 0
i 0 77 0 0
i 0 77 0 0
i 8 824 1 1
i 0 77 0 0
i 0 77 0 0
i 8 1089 1 1
i 0 77 0 0
i 0 77 0 0
i 0 77 0 0
d 4 379 5 0
)";

TEST(UpdateCostGoldenTest, IndependentStreamCostsArePinned) {
  expectGolden(ValueDistribution::kIndependent, 1400, kIndependentGolden);
}

TEST(UpdateCostGoldenTest, AnticorrelatedStreamCostsArePinned) {
  expectGolden(ValueDistribution::kAnticorrelated, 1410,
               kAnticorrelatedGolden);
}

}  // namespace
}  // namespace dsud
