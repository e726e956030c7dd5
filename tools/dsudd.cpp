// dsudd — the long-running query-serving daemon.
//
//   dsudd [--in=data.bin] [--n=20000] [--d=3] [--seed=1]
//         [--dist=independent|correlated|anticorrelated|nyse]
//         [--m=10] [--replicas=1] [--port=7411] [--http-port=7412]
//         [--workers=4] [--max-inflight=64] [--max-queued=256]
//         [--rate=0] [--burst=32] [--breaker-shed=0.5]
//         [--drain-ms=5000] [--port-file=<path>]
//         [--cache-capacity=256] [--batch-window-ms=0]
//         [--log-file=<path>] [--log-level=debug|info|warn|error]
//         [--recorder-capacity=8192] [--recorder-dir=<dir>]
//         [--recorder-window-s=30] [--chaos-kill-site=<id>]
//         [--chaos-kill-after=<n>]
//
// Hosts one in-process cluster (loaded from --in, or synthetic when absent)
// behind a persistent coordinator: any number of clients connect to the
// query port and speak the line-delimited JSON protocol of
// docs/PROTOCOL.md ("Client protocol"); `dsudctl query --connect=<port>`
// is the reference client.  The HTTP port serves GET /metrics (Prometheus
// text exposition of the shared registry — engine, transport, and server
// series on one page) and GET /healthz (200 "ok", 503 "draining").
//
// Admission control: --max-inflight bounds concurrently executing queries
// (the engine-wide in-flight gauges count too), --max-queued bounds the
// priority-ordered wait queue, --rate/--burst set the default per-tenant
// token bucket (0 rate = unlimited), and --breaker-shed sheds new queries
// outright once that fraction of site circuit breakers is open.  Beyond
// every limit the server answers `overloaded`/`unavailable` with a
// retry-after hint — explicit load shedding, never an unbounded queue.
//
// Elasticity: --replicas=k keeps k bit-identical copies of every partition
// (failover with zero result loss when k >= 2), and the `{"op":"admin"}`
// protocol surface — `dsudctl admin {add-site,remove-site,rebalance,
// topology} --connect=<port>` — joins and drains members and triggers
// background rebalances at runtime.  Rebalances run on a worker thread;
// queries keep completing against the pinned previous epoch meanwhile.
//
// Shared work: --cache-capacity sizes the global-skyline result cache
// (entries; 0 disables) and --batch-window-ms opens a shared-work batching
// window — concurrent compatible queries merge into one site-side descent
// (0, the default, keeps every query a private session).  Both layers are
// answer-preserving: responses stay bit-identical to solo runs.
//
// Observability: --log-file appends every structured event (docs/
// ARCHITECTURE.md §14) as NDJSON, --log-level sets the emission floor, and
// the flight recorder — always on — keeps the last --recorder-capacity
// events in memory and dumps the trailing --recorder-window-s seconds to
// --recorder-dir on anomalies (degraded queries, failovers, fatal
// signals).  The HTTP port additionally serves GET /debug/{queries,
// topology,cache,recorder} as JSON.  --chaos-kill-site/--chaos-kill-after
// wire deterministic fault injection into the cluster so the CI smoke job
// can provoke a degraded query and assert the recorder explains it.
//
// SIGTERM/SIGINT drain gracefully: stop accepting, finish in-flight
// queries within --drain-ms, then cancel stragglers.  A second signal
// stops immediately.  --port-file writes "<port> <http-port>\n" once both
// listeners are bound, so scripts (the CI server-smoke job) can use
// --port=0 and discover the chosen ports race-free.
//
// Exit code 0 on a clean shutdown, 1 on usage errors, 2 on runtime errors
// and on a flag dsudd does not know or a number that does not parse
// (checked before the daemon does any work).
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <string>

#include "common/io.hpp"
#include "common/options.hpp"
#include "core/cluster.hpp"
#include "gen/nyse.hpp"
#include "gen/synthetic.hpp"
#include "obs/log.hpp"
#include "obs/recorder.hpp"
#include "server/server.hpp"

namespace {

using namespace dsud;

// Signal handlers may only touch these and write(2) to the wake fd.
volatile sig_atomic_t g_signals = 0;
int g_wakeFd = -1;

void onSignal(int) {
  g_signals = g_signals + 1;
  if (g_wakeFd >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(g_wakeFd, &one, sizeof one);
  }
}

void onFatalSignal(int sig) {
  // Last-gasp flight-recorder dump.  anomaly() allocates and writes a file,
  // neither of which is async-signal-safe — but the process is already
  // dying, so a torn dump beats no dump.  The handler then restores the
  // default disposition and re-raises, preserving the crash exit status.
  obs::flightRecorder().anomaly("fatal_signal");
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

bool endsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// The --in file, or the synthetic --n/--d/--seed/--dist dataset.
Dataset loadOrGenerate(const std::string& in, const SyntheticSpec& synthetic,
                       const std::string& dist) {
  if (!in.empty()) {
    return endsWith(in, ".csv") ? loadDatasetCsv(in) : loadDatasetBinary(in);
  }
  if (dist == "nyse") {
    NyseSpec spec;
    spec.n = synthetic.n;
    spec.seed = synthetic.seed;
    return generateNyse(spec, uniformProbability());
  }
  SyntheticSpec spec = synthetic;
  if (dist == "correlated") {
    spec.dist = ValueDistribution::kCorrelated;
  } else if (dist == "anticorrelated") {
    spec.dist = ValueDistribution::kAnticorrelated;
  } else if (dist != "independent") {
    throw std::runtime_error("dsudd: unknown --dist=" + dist);
  }
  return generateSynthetic(spec, uniformProbability());
}

int run(const ArgParser& args) {
  // Every flag is read before anything happens, so an unknown flag or a
  // malformed number stops the daemon before it binds a port.
  const std::int64_t recorderCapacity = args.getInt("recorder-capacity", 0);
  const std::string recorderDir = args.get("recorder-dir", "");
  const double recorderWindowS = args.getDouble("recorder-window-s", 0.0);
  const std::string levelName = args.get("log-level", "info");
  const std::string logFile = args.get("log-file", "");

  const std::string in = args.get("in", "");
  SyntheticSpec synthetic;
  synthetic.n = static_cast<std::size_t>(args.getInt("n", 20000));
  synthetic.dims = static_cast<std::size_t>(args.getInt("d", 3));
  synthetic.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
  const std::string dist = args.get("dist", "independent");
  const auto m = static_cast<std::size_t>(args.getInt("m", 10));
  const std::uint64_t seed = synthetic.seed;
  const auto replicas =
      static_cast<std::size_t>(args.getInt("replicas", 1));

  ClusterConfig clusterConfig;
  const std::int64_t killAfter = args.getInt("chaos-kill-after", 0);
  const std::int64_t killSite = args.getInt("chaos-kill-site", -1);
  if (killAfter > 0) {
    ChaosSpec chaos;
    chaos.killAfter = static_cast<std::uint32_t>(killAfter);
    chaos.seed = seed;
    if (killSite >= 0) chaos.onlySite = static_cast<SiteId>(killSite);
    clusterConfig.chaos = chaos;
  }

  server::ServerConfig config;
  config.port = static_cast<std::uint16_t>(args.getInt("port", 7411));
  config.httpPort = static_cast<std::uint16_t>(args.getInt("http-port", 7412));
  config.workers = static_cast<std::size_t>(args.getInt("workers", 4));
  config.drainSeconds = args.getDouble("drain-ms", 5000.0) / 1e3;
  config.admission.maxInFlight =
      static_cast<std::size_t>(args.getInt("max-inflight", 64));
  config.admission.maxQueued =
      static_cast<std::size_t>(args.getInt("max-queued", 256));
  config.admission.defaultQuota.ratePerSec = args.getDouble("rate", 0.0);
  config.admission.defaultQuota.burst = args.getDouble("burst", 32.0);
  config.admission.breakerShedFraction = args.getDouble("breaker-shed", 0.5);
  config.cacheCapacity =
      static_cast<std::size_t>(args.getInt("cache-capacity", 256));
  const double batchWindowMs = args.getDouble("batch-window-ms", 0.0);
  if (batchWindowMs > 0.0) {
    config.batching.enabled = true;
    config.batching.windowSeconds = batchWindowMs / 1e3;
  }
  const std::string portFile = args.get("port-file", "");
  if (const auto problem = args.problem()) {
    std::fprintf(stderr, "dsudd: %s\n", problem->c_str());
    return 2;
  }

  // Recorder sizing must land before the first event is emitted anywhere —
  // the ring is built at first use and never resized.
  if (recorderCapacity > 0) {
    obs::configureFlightRecorder(static_cast<std::size_t>(recorderCapacity));
  }
  obs::FlightRecorder& recorder = obs::flightRecorder();
  if (!recorderDir.empty()) recorder.setDumpDir(recorderDir);
  if (recorderWindowS > 0.0) recorder.setWindowSeconds(recorderWindowS);
  if (levelName == "debug") {
    obs::eventLog().setLevel(LogLevel::kDebug);
  } else if (levelName == "info") {
    obs::eventLog().setLevel(LogLevel::kInfo);
  } else if (levelName == "warn") {
    obs::eventLog().setLevel(LogLevel::kWarn);
  } else if (levelName == "error") {
    obs::eventLog().setLevel(LogLevel::kError);
  } else {
    std::fprintf(stderr, "dsudd: unknown --log-level=%s\n", levelName.c_str());
    return 1;
  }
  if (!logFile.empty()) {
    auto sink = std::make_shared<obs::FileSink>(logFile);
    if (!sink->ok()) {
      std::fprintf(stderr, "dsudd: cannot open --log-file=%s\n",
                   logFile.c_str());
      return 2;
    }
    obs::eventLog().addSink(std::move(sink));
  }

  const Dataset data = loadOrGenerate(in, synthetic, dist);
  InProcCluster cluster(Topology::uniform(data, m, seed, replicas),
                        clusterConfig);

  config.admin.addSite = [&cluster] { return cluster.addSite(); };
  config.admin.removeSite = [&cluster](SiteId id) { cluster.removeSite(id); };
  config.admin.rebalance = [&cluster] { cluster.rebalance(); };
  config.admin.topology = [&cluster] { return cluster.topology(); };

  server::QueryServer server(cluster.engine(), cluster.metricsRegistry(),
                             config);
  server.start();

  if (!portFile.empty()) {
    std::FILE* f = std::fopen(portFile.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "dsudd: cannot write %s\n", portFile.c_str());
      return 2;
    }
    std::fprintf(f, "%u %u\n", server.port(), server.httpPort());
    std::fclose(f);
  }

  // Graceful shutdown: the handler writes to the loop's eventfd
  // (async-signal-safe), the wake handler runs on the loop thread and
  // translates the count into drain / immediate stop.
  g_wakeFd = server.loop().wakeFd();
  struct sigaction action = {};
  action.sa_handler = onSignal;
  ::sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // peers may vanish mid-write
  // Crashes dump the recorder window before the default disposition runs.
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE}) {
    ::signal(sig, onFatalSignal);
  }
  server.loop().setWakeHandler([&server] {
    if (g_signals >= 2) {
      server.stop();
    } else if (g_signals == 1) {
      server.requestDrain();  // idempotent
    }
  });

  std::fprintf(stderr,
               "dsudd: serving %zu tuples over %zu sites — query port %u, "
               "http port %u (%zu workers, max %zu in flight)\n",
               data.size(), m, server.port(), server.httpPort(),
               config.workers, config.admission.maxInFlight);
  obs::eventLog().emit(LogLevel::kInfo, "dsudd", "daemon.start",
                       {obs::field("port", server.port()),
                        obs::field("http_port", server.httpPort()),
                        obs::field("sites", m),
                        obs::field("tuples", data.size())});
  server.run();
  obs::eventLog().emit(LogLevel::kInfo, "dsudd", "daemon.stop", {});
  std::fprintf(stderr, "dsudd: shut down cleanly\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dsudd: %s\n", e.what());
    return 2;
  }
}
