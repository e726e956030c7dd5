// Figure 14 (paper Sec. 7.6): update performance.  Response time per update
// (time until SKY(H) is exact again) as a function of the update rate
// (20%..100% of a base update batch), comparing the Incremental maintenance
// strategy against the Naive restart, on Independent and Anticorrelated
// data.  Updates are a 50/50 insert/delete mix at random sites.  The
// incremental time is printed in microseconds, the naive restart's in
// milliseconds: they differ by two orders of magnitude.
//
// Maintenance involves a from-scratch e-DSUD per update in the naive
// strategy, so this bench uses a reduced default scale:
//   DSUD_UPD_N (default 20000), DSUD_UPD_M (default 20),
//   DSUD_UPD_BATCH (default 100 updates at rate 100%).
#include "bench_util.hpp"

#include "core/updates.hpp"
#include "gen/partition.hpp"

namespace {

using namespace dsud;
using namespace dsud::bench;

struct UpdScale {
  std::size_t n;
  std::size_t m;
  std::size_t batch;
};

UpdScale updScale() {
  UpdScale s;
  s.n = static_cast<std::size_t>(envOr("DSUD_UPD_N", std::int64_t(20000)));
  s.m = static_cast<std::size_t>(envOr("DSUD_UPD_M", std::int64_t(20)));
  s.batch = static_cast<std::size_t>(envOr("DSUD_UPD_BATCH", std::int64_t(100)));
  return s;
}

std::vector<UpdateEvent> makeStream(const std::vector<Dataset>& sites,
                                    std::size_t count, std::uint64_t seed) {
  // Pre-plan the stream against a mirror so deletes always hit live tuples.
  std::vector<Dataset> mirror;
  for (const Dataset& s : sites) {
    Dataset copy(s.dims());
    for (std::size_t row = 0; row < s.size(); ++row) {
      const TupleRef t = s.at(row);
      copy.add(t.id, t.values, t.prob);
    }
    mirror.push_back(std::move(copy));
  }
  Rng rng(seed);
  TupleId nextId = 10'000'000;
  std::vector<UpdateEvent> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
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

void runPanel(const Scale& scale, const UpdScale& upd,
              ValueDistribution dist) {
  printTitle(std::string("Fig. 14: update response time (") +
             distributionName(dist) + ")");
  printHeader({"rate %", "updates", "Incr us/upd", "Naive ms/upd",
               "Incr tup/upd", "Naive tup/upd"});

  const Dataset global =
      generateSynthetic(SyntheticSpec{upd.n, 3, dist, scale.seed + 140});
  Rng partitionRng(scale.seed + 141);
  const auto siteData = partitionUniform(global, upd.m, partitionRng);

  QueryConfig config;
  config.q = scale.q;

  for (const std::size_t rate : {20u, 40u, 60u, 80u, 100u}) {
    const std::size_t count = upd.batch * rate / 100;
    const auto events = makeStream(siteData, count, scale.seed + rate);

    double seconds[2] = {0.0, 0.0};
    double tuples[2] = {0.0, 0.0};
    const MaintenanceStrategy strategies[2] = {
        MaintenanceStrategy::kIncremental,
        MaintenanceStrategy::kNaiveRecompute};
    for (int s = 0; s < 2; ++s) {
      InProcCluster cluster(Topology::fromPartitions(siteData));
      SkylineMaintainer maintainer(cluster.coordinator(), config,
                                   strategies[s]);
      maintainer.initialize();
      for (const UpdateEvent& e : events) {
        const UpdateStats stats = maintainer.apply(e);
        seconds[s] += stats.seconds;
        tuples[s] += static_cast<double>(stats.tuplesShipped);
      }
    }
    const auto d = static_cast<double>(count);
    printRow(std::to_string(rate), std::to_string(count),
             seconds[0] / d * 1e6, seconds[1] / d * 1e3, tuples[0] / d,
             tuples[1] / d);
  }
}

}  // namespace

int main() {
  const Scale scale = defaultScale();
  const UpdScale upd = updScale();
  std::printf("update scale: N=%zu, m=%zu, batch=%zu\n", upd.n, upd.m,
              upd.batch);
  runPanel(scale, upd, ValueDistribution::kIndependent);
  runPanel(scale, upd, ValueDistribution::kAnticorrelated);
  return 0;
}
