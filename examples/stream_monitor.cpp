// Live market monitor: distributed exchanges stream deals into per-site
// sliding windows while the coordinator continuously maintains the global
// probabilistic skyline — the streaming face of the paper's stock-market
// motivation (Sec. 1) built from the Sec. 5.4 maintenance machinery.
//
// Flags: --m=<exchanges> --window=<per-site window> --events=<stream length>
#include <cstdio>

#include "common/options.hpp"
#include "core/cluster.hpp"
#include "core/continuous.hpp"
#include "gen/nyse.hpp"

using namespace dsud;

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  const auto m = static_cast<std::size_t>(args.getInt("m", 4));
  const auto window = static_cast<std::size_t>(args.getInt("window", 200));
  const auto events = static_cast<std::size_t>(args.getInt("events", 2000));
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 20001201));
  const double q = args.getDouble("q", 0.3);
  if (const auto problem = args.problem()) {
    std::fprintf(stderr, "stream_monitor: %s\n", problem->c_str());
    return 2;
  }

  // One long synthetic trade stream; the first m*window trades pre-fill the
  // windows, the rest arrive live, round-robin across exchanges.
  NyseSpec spec;
  spec.n = m * window + events;
  spec.seed = seed;
  const Dataset trades = generateNyse(spec);

  std::vector<Dataset> siteData(m, Dataset(2));
  std::vector<std::vector<Tuple>> windows(m);
  std::size_t row = 0;
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t i = 0; i < window; ++i, ++row) {
      const Tuple t = trades.tuple(row);
      siteData[s].add(t.id, t.values, t.prob);
      windows[s].push_back(t);
    }
  }

  InProcCluster cluster(Topology::fromPartitions(siteData));
  QueryConfig config;
  config.q = q;
  std::printf("monitoring %zu exchanges, window %zu deals each, q = %.2f\n",
              m, window, config.q);

  ContinuousDistributedSkyline monitor(cluster.coordinator(), config, window,
                                       windows);
  std::printf("initial skyline: %zu deals\n\n", monitor.skyline().size());

  std::uint64_t totalTuples = 0;
  double totalSeconds = 0.0;
  std::size_t changes = 0;
  for (std::size_t e = 0; e < events; ++e, ++row) {
    const auto site = static_cast<SiteId>(e % m);
    const UpdateStats stats = monitor.append(site, trades.tuple(row));
    totalTuples += stats.tuplesShipped;
    totalSeconds += stats.seconds;
    if (stats.skylineChanged) {
      ++changes;
      if (changes <= 10) {
        const auto sky = monitor.skyline();
        std::printf("  event %-6zu skyline changed (%zu deals; best $%.2f x "
                    "%.0f shares, P_gsky %.3f)\n",
                    e, sky.size(), sky.front().tuple.values[0],
                    -sky.front().tuple.values[1],
                    sky.front().globalSkyProb);
      }
    }
  }
  if (changes > 10) std::printf("  ... %zu more changes\n", changes - 10);

  std::printf("\n%zu events: %.2f tuples and %.3f ms per event on average; "
              "skyline changed %zu times\n",
              events, double(totalTuples) / double(events),
              totalSeconds / double(events) * 1e3, changes);
  std::printf("final skyline holds %zu deals\n", monitor.skyline().size());
  return 0;
}
