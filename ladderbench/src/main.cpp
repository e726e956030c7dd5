// The repository's layer-ladder benchmark.
//
//   ladder --workload <name> --seed <n> --seconds <s> --trace <0|1>
//          [--scale full|tiny]
//
// Generates its inputs from the seed, runs one workload, checks every answer
// against a centralised oracle, and prints human-readable rows followed by
// one JSON line: {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end ones, measured on the untraced
// library exactly as a user builds it.  With --trace 1 they are the
// per-layer ones, from a separate run that drives the same operations
// through three wirings (see stack.hpp) and decomposes each operation's time
// into ladder rows.
//
// A run walks through several datasets drawn from the seed, one after
// another: each is set up, measured and torn down before the next.  One
// dataset's skyline structure moves the paper's costs by a fifth from seed
// to seed; the average over many is steady, and the repeated set-ups give
// set-up time its median.  The untraced run then replays that identical
// work in a second pass, half a run later, and pools both passes' samples
// (see Samples).  Each run does a fixed amount of work scaled from --seconds
// (not a time limit), so the paper's costs -- tuples, bytes and round trips
// -- cover the same operations on every run and repeat exactly.  Its
// single-threaded phases run on whichever core is least slowed by other
// tenants at the time (see QuietCpu).
//
// Workloads (scales and rates are fixed, never derived from measured
// capacity):
//   engine_indep  N=20000 m=20 d=3 independent.  One client thread in a
//                 closed loop on QueryEngine::run with default options and no
//                 result cache: DSUD/e-DSUD x q {0.2,0.3,0.5} x masks
//                 {all,{0,1},{1,2}}.  Per-site BBS and ~1.3k round trips per
//                 query.
//   serve_anti    N=8000 m=8 d=3 anticorrelated behind a default QueryServer
//                 (4 workers, 256-entry result cache) on TCP loopback.
//                 Progressive e-DSUD, in every ten requests: four from 8 hot
//                 (mask, q) shapes, one top-10 on a 2-d hot mask, five with
//                 a fresh window.  Open loop at 50/s over 4 connections,
//                 then a closed loop of 4 connections x depth 2.
//   update_indep  engine_indep's data under SkylineMaintainer (incremental,
//                 q=0.3): a 50/50 insert/delete stream with one DSUD q=0.3
//                 read after every 10 updates.
// engine_indep and serve_anti end each dataset with a short maintenance
// probe, so every workload reports update latency.  Most inserts cost tens
// of microseconds and most deletes milliseconds, so a median over both sits
// on the edge between the two and flips from run to run; the run reports
// the delete median and the p95 over all updates instead.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/updates.hpp"
#include "gen/partition.hpp"
#include "gen/synthetic.hpp"
#include "oracle.hpp"
#include "serve.hpp"
#include "server/server.hpp"
#include "skyline/bbs.hpp"
#include "stack.hpp"

namespace ladder {
namespace {

using namespace dsud;
using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Moves the calling thread to the allowed CPU that runs a short fixed probe
/// fastest right now.  On a shared host, other tenants slow each core by up
/// to a third for seconds at a time, and not all cores at once; the
/// single-threaded phases re-pick their core often, so they measure the
/// code rather than the neighbours.  A pinned thread stays where it is
/// unless another core is clearly faster, so caches are not refilled for
/// nothing.  Threads started while pinned inherit the pin, so
/// multi-threaded phases run unpinned.
class QuietCpu {
 public:
  QuietCpu() {
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) CPU_ZERO(&allowed_);
  }

  void pin() {
    const int current = pinned_;
    int best = -1;
    double bestMs = 0, currentMs = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed_) || !pinTo(cpu)) continue;
      const double ms = std::min(probeMs(), probeMs());
      if (cpu == current) currentMs = ms;
      if (best < 0 || ms < bestMs) {
        best = cpu;
        bestMs = ms;
      }
    }
    if (current >= 0 && currentMs > 0 && currentMs <= kStay * bestMs) best = current;
    if (best >= 0 && pinTo(best)) {
      pinned_ = best;
    } else {
      unpin();
    }
  }

  void unpin() {
    pinned_ = -1;
    if (CPU_COUNT(&allowed_) > 0) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }

 private:
  static bool pinTo(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0;
  }

  /// About half a millisecond of integer work over an L1-sized table.
  double probeMs() {
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    const auto t0 = Clock::now();
    for (int i = 0; i < 200000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      table_[x & (table_.size() - 1)] += static_cast<std::uint32_t>(x >> 32);
    }
    const double ms = msSince(t0);
    sink_ += table_[x & (table_.size() - 1)];
    return ms;
  }

  /// The current core is kept while its probe is within this factor of the
  /// fastest.
  static constexpr double kStay = 1.1;

  cpu_set_t allowed_{};
  int pinned_ = -1;
  std::array<std::uint32_t, 4096> table_{};
  std::uint32_t sink_ = 0;
};

// ---------------------------------------------------------------------------
// Metric names and units.  BENCHMARK.json lists the same names; the
// self-check compares the two.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"query_p50_ms", "ms"},
    {"query_p95_ms", "ms"},
    {"first_answer_p50_ms", "ms"},
    {"throughput_qps", "1/s"},
    {"tuples_per_query", "count"},
    {"bytes_per_query", "bytes"},
    {"round_trips_per_query", "count"},
    {"delete_p50_ms", "ms"},
    {"update_p95_ms", "ms"},
    {"tuples_per_update", "count"},
    {"peak_rss_mb", "MiB"},
    {"ok_frac", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"ladder.top_ms_per_query", "ms"},
    {"ladder.residue_ms_per_query", "ms"},
    {"skyline.bbs_ms_per_query", "ms"},
    {"skyline.local_size", "count"},
    {"site.prepare_ms_per_query", "ms"},
    {"site.prepare_share", "ratio"},
    {"site.next_us_per_call", "us"},
    {"site.next_calls_per_query", "count"},
    {"site.evaluate_us_per_call", "us"},
    {"site.evaluate_calls_per_query", "count"},
    {"codec.us_per_call", "us"},
    {"transport.us_per_call", "us"},
    {"rpc.overhead_us_per_call", "us"},
    {"rpc.bytes_per_call", "bytes"},
    {"coord.self_ms_per_query", "ms"},
    {"trace.bench_overhead_frac", "ratio"},
    {"trace.lib_ms_per_query", "ms"},
    {"ladder.top_ms_per_update", "ms"},
    {"ladder.residue_ms_per_update", "ms"},
    {"site.apply_us_per_update", "us"},
    {"maint.insert_p50_ms", "ms"},
    {"maint.delete_p50_ms", "ms"},
    {"maint.broadcasts_per_update", "count"},
    {"cache.hit_frac", "ratio"},
    {"server.ack_p50_ms", "ms"},
    {"server.overhead_p50_ms", "ms"},
    {"server.shed_frac", "ratio"},
    {"gen.late_p95_ms", "ms"},
};

/// The ladder rows must add up to the untraced top row within this share of
/// it; whatever is left is reported as the residue row.  The rows add up to
/// the timed leg's time by construction, so this bounds what the bench's
/// timers and wiring add (trace.bench_overhead_frac).  A run that exceeds it
/// fails.
constexpr double kLadderTolerance = 0.15;

// ---------------------------------------------------------------------------
// Statistics

/// Nearest-rank percentile of `values` (copied and sorted).
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p * n));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Samples beyond the p95 rank, for the sample-count lines.
std::size_t beyondP95(std::size_t n) {
  return n - static_cast<std::size_t>(std::ceil(0.95 * static_cast<double>(n)));
}

double peakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Mean paper cost over a set of queries.
struct Costs {
  double tuples = 0, bytes = 0, roundTrips = 0;
  std::uint64_t n = 0;
  void add(const QueryStats& s) {
    tuples += static_cast<double>(s.tuplesShipped);
    bytes += static_cast<double>(s.bytesShipped);
    roundTrips += static_cast<double>(s.roundTrips);
    ++n;
  }
};

// ---------------------------------------------------------------------------
// Workloads

enum class Kind : std::uint8_t { kEngine, kServe, kUpdate };

struct Workload {
  const char* name;
  Kind kind;
  ValueDistribution dist;
  std::size_t n;
  std::size_t m;
  /// Fixed open-loop rate of the workload's server leg, requests/s.
  double serveRate;
};

constexpr Workload kWorkloads[] = {
    {"engine_indep", Kind::kEngine, ValueDistribution::kIndependent, 20000, 20,
     20.0},
    {"serve_anti", Kind::kServe, ValueDistribution::kAnticorrelated, 8000, 8,
     50.0},
    {"update_indep", Kind::kUpdate, ValueDistribution::kIndependent, 20000, 20,
     20.0},
};

constexpr double kMaintQ = 0.3;
constexpr std::size_t kCheckEvery = 10;  ///< updates between oracle checks
/// Engine queries between two picks of the quietest CPU (see QuietCpu).
constexpr std::size_t kRepinEvery = 6;
constexpr std::size_t kServeConnsOpen = 4;
constexpr std::size_t kServeConnsClosed = 4;
constexpr std::size_t kServeDepth = 2;

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
};

/// Fixed work of one run.  The number of datasets grows with --seconds;
/// what each dataset gets is fixed.  On a 4-core x86-64 container an
/// untraced run takes 1.0-1.8x --seconds, oracle and set-ups included, as
/// other tenants slow the host.
struct Budget {
  std::size_t passes = 2;         ///< identical repeats of the whole work
  std::size_t datasets = 1;
  std::size_t rounds = 0;         ///< passes over the 18 engine_indep shapes
  std::size_t ladderQueries = 0;  ///< serve_anti queries on the engine ladder
  std::size_t open = 0;           ///< open-loop (or server-leg) requests
  std::size_t closed = 0;         ///< closed-loop requests
  std::size_t updates = 0;        ///< update stream (or maintenance probe)

  static Budget from(const Args& a, Kind kind) {
    const auto datasets = [&](double perSecond) {
      return std::max<std::size_t>(
          1, static_cast<std::size_t>(std::llround(perSecond * a.seconds)));
    };
    Budget b;
    switch (kind) {
      case Kind::kEngine:
        b.datasets = datasets(0.7);
        b.rounds = 2;
        b.open = 20;
        b.updates = 30;
        break;
      case Kind::kServe:
        b.datasets = datasets(0.5);
        b.ladderQueries = 40;
        b.open = a.trace ? 100 : 40;
        b.closed = 60;
        b.updates = 30;
        break;
      case Kind::kUpdate:
        b.datasets = datasets(0.6);
        b.updates = 100;
        b.open = 20;
        break;
    }
    // The traced run has no bounds to meet: one pass over three datasets.
    if (a.trace) {
      b.passes = 1;
      b.datasets = 3;
    }
    if (a.tiny) b.datasets = 2;
    return b;
  }
};

// Query shapes --------------------------------------------------------------

constexpr DimMask kEngineMasks[] = {0, 0b011, 0b110};
constexpr double kEngineQs[] = {0.2, 0.3, 0.5};
constexpr std::uint32_t kEngineShapes = 18;

QuerySpec engineShape(std::uint32_t shape) {
  QuerySpec s;
  s.algo = shape < 9 ? Algo::kDsud : Algo::kEdsud;
  s.q = kEngineQs[(shape % 9) / 3];
  s.mask = kEngineMasks[shape % 3];
  s.shape = shape;
  return s;
}

/// `rounds` shuffled passes over all 18 shapes.
std::vector<QuerySpec> engineStream(std::size_t rounds, Rng& rng) {
  std::vector<QuerySpec> out;
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<std::uint32_t> order(kEngineShapes);
    for (std::uint32_t i = 0; i < kEngineShapes; ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    for (const std::uint32_t shape : order) out.push_back(engineShape(shape));
  }
  return out;
}

constexpr DimMask kServeMasks[] = {0, 0b011, 0b110, 0b101};
constexpr double kServeQs[] = {0.3, 0.5};
constexpr std::uint32_t kServeHot = 8;
constexpr std::size_t kTopK = 10;
constexpr double kTopKFloor = 0.1;

QuerySpec serveHotShape(std::uint32_t shape) {
  QuerySpec s;
  s.algo = Algo::kEdsud;
  s.mask = kServeMasks[shape % 4];
  s.q = kServeQs[shape / 4];
  s.shape = shape;
  return s;
}

/// serve_anti's mix, exact in every block of ten requests: half from the 8
/// hot (mask, q) shapes -- four as threshold queries, which fit the
/// 256-entry result cache, one as a top-k query, which the cache never
/// serves -- and five with a fresh window, which can never hit.  Keeping the
/// cache hits (40%) away from half of the requests keeps the latency median
/// inside one mode of the distribution instead of on the edge between two.
/// The top-k queries are the slowest tenth and set the p95.  On the full
/// mask one costs about three 2-d ones, which put a small, slow mode right at
/// the p95 and made it jump between runs, so they cycle through the three
/// 2-d hot masks, block by block.
std::vector<QuerySpec> serveStream(std::size_t count, Rng& rng) {
  std::vector<QuerySpec> out;
  std::array<int, 10> block{0, 0, 0, 0, 1, 2, 2, 2, 2, 2};
  for (std::size_t i = 0; i < count; ++i) {
    if (i % block.size() == 0) {
      for (std::size_t j = block.size(); j > 1; --j) {
        std::swap(block[j - 1], block[rng.below(j)]);
      }
    }
    const int kind = block[i % block.size()];
    if (kind == 0) {
      out.push_back(serveHotShape(static_cast<std::uint32_t>(rng.below(kServeHot))));
      continue;
    }
    QuerySpec s;
    s.algo = Algo::kEdsud;
    const auto maskIndex =
        static_cast<std::uint32_t>(kind == 1 ? 1 + i / block.size() % 3 : rng.below(4));
    s.mask = kServeMasks[maskIndex];
    if (kind == 1) {
      s.topk = true;
      s.k = kTopK;
      s.q = kTopKFloor;
      s.shape = kServeHot + maskIndex;  // repeats: same cost every time
    } else {
      s.q = kServeQs[rng.below(2)];
      Rect window(3);
      std::array<double, 3> lo{}, hi{};
      for (std::size_t j = 0; j < 3; ++j) {
        lo[j] = rng.uniform(0.0, 0.5);
        hi[j] = lo[j] + 0.5;
      }
      window.expand(lo);
      window.expand(hi);
      s.window = window;
      s.shape = QuerySpec::kFresh;
    }
    out.push_back(std::move(s));
  }
  return out;
}

QuerySpec maintRead() {
  QuerySpec s;
  s.algo = Algo::kDsud;
  s.q = kMaintQ;
  s.shape = QuerySpec::kFresh;  // the data changes between reads
  return s;
}

// ---------------------------------------------------------------------------
// Execution helpers

struct Exec {
  double wallMs = 0;
  double firstMs = -1;
  QueryStats stats;
  AnswerSet answers;
};

Exec execute(QueryEngine& engine, const QuerySpec& s,
             const QueryOptions& options) {
  Exec e;
  const auto t0 = Clock::now();
  {
    QueryResult r;
    if (s.topk) {
      TopKConfig c;
      c.k = s.k;
      c.floorQ = s.q;
      c.mask = s.mask;
      c.window = s.window;
      r = engine.runTopK(c, options);
    } else {
      QueryConfig c;
      c.q = s.q;
      c.mask = s.mask;
      c.window = s.window;
      r = engine.run(s.algo, c, options);
    }
    if (!r.progress.empty()) e.firstMs = r.progress.front().seconds * 1e3;
    e.stats = r.stats;
    e.answers = toAnswerSet(r.skyline);
  }
  e.wallMs = msSince(t0);
  return e;
}

bool sameAnswers(const AnswerSet& a, const AnswerSet& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].prob != b[i].prob) return false;
  }
  return true;
}

/// A QueryServer with the default ServerConfig, its event loop on its own
/// thread.
class Daemon {
 public:
  Daemon(QueryEngine& engine, obs::MetricsRegistry& metrics)
      : server_(engine, metrics, server::ServerConfig{}) {
    server_.start();
    loop_ = std::thread([this] {
      try {
        server_.run();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "ladder: server loop failed: %s\n", e.what());
        failed_ = true;
      }
    });
    // EventLoop::run() clears a stop requested before it started, so wait
    // until the loop is serving; this also makes set-up end when the server
    // can answer.
    std::promise<void> serving;
    server_.loop().post([&serving] { serving.set_value(); });
    if (serving.get_future().wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
      server_.stop();
      loop_.join();
      throw std::runtime_error("ladder: server loop did not start");
    }
  }
  ~Daemon() {
    server_.stop();
    loop_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return server_.port(); }
  bool failed() const { return failed_; }

 private:
  server::QueryServer server_;
  std::atomic<bool> failed_{false};
  std::thread loop_;
};

// ---------------------------------------------------------------------------
// Ladder accumulation (traced run)

struct LadderAcc {
  std::uint64_t ops = 0;
  double topNs = 0;    ///< untraced cluster leg
  double timedNs = 0;  ///< bench-wired leg with decorators
  double altNs = 0;    ///< cluster leg with the other traceCapacity
  double bbsNs = 0;
  double localSize = 0;
  double bytes = 0, roundTrips = 0;
  LayerTimes timed, direct;
};

void addTimes(LayerTimes& into, const LayerTimes& from) {
  for (std::size_t i = 0; i < kOpCount; ++i) {
    into.handle[i].ns += from.handle[i].ns;
    into.handle[i].calls += from.handle[i].calls;
  }
  into.server.ns += from.server.ns;
  into.server.calls += from.server.calls;
}

/// Prints one ladder and returns its residue (top minus the rows' sum), in
/// nanoseconds over all operations.
double printLadder(const char* what, const LadderAcc& acc) {
  const double ops = static_cast<double>(std::max<std::uint64_t>(acc.ops, 1));
  const LayerTimes& d = acc.direct;
  const LayerTimes& t = acc.timed;
  struct Row {
    const char* name;
    double ns;
  };
  const Row rows[] = {
      {"site.prepare (LocalSite, direct)", d.at(Op::kPrepare).ns},
      {"site.next (LocalSite, direct)", d.at(Op::kNext).ns},
      {"site.evaluate (LocalSite, direct)", d.at(Op::kEvaluate).ns},
      {"site.apply (LocalSite, direct)", d.at(Op::kApply).ns},
      {"site.replica (LocalSite, direct)", d.at(Op::kReplica).ns},
      {"site.other (LocalSite, direct)", d.at(Op::kOther).ns},
      {"codec (SiteServer::handle - LocalSite)", t.server.ns - d.handleNs()},
      {"transport (SiteHandle - SiteServer::handle)",
       t.handleNs() - t.server.ns},
      {"coord.self (engine or maintainer - SiteHandle)",
       acc.timedNs - t.handleNs()},
  };
  double sum = 0;
  std::printf("# ladder per %s (%llu ops; ms per op; share of top)\n", what,
              static_cast<unsigned long long>(acc.ops));
  std::printf("#   %-48s %10.4f  100.0%%\n", "top: untraced run (InProcCluster)",
              acc.topNs / ops / 1e6);
  for (const Row& r : rows) {
    sum += r.ns;
    std::printf("#   %-48s %10.4f %6.1f%%\n", r.name, r.ns / ops / 1e6,
                acc.topNs > 0 ? 100.0 * r.ns / acc.topNs : 0.0);
  }
  const double residue = acc.topNs - sum;
  std::printf("#   %-48s %10.4f %6.1f%%\n", "residue (top - rows)",
              residue / ops / 1e6,
              acc.topNs > 0 ? 100.0 * residue / acc.topNs : 0.0);
  std::printf("#   rows sum to the top row within %.0f%%: %s\n",
              kLadderTolerance * 100,
              std::abs(residue) <= kLadderTolerance * acc.topNs ? "yes" : "NO");
  return residue;
}

/// Everything measured.  The untraced run replays its work in identical
/// passes; the percentiles and means pool every pass's samples, so a slow
/// stretch of the host weighs as much as it lasted and a tail regression
/// shows wherever it strikes.  The passes must agree exactly on every
/// operation's paper cost.
struct Samples {
  std::vector<double> queryMs, firstMs, updateMs, deleteMs, setupS;
  Costs costs;
  double updateTuples = 0;
  double loopDone = 0, loopSeconds = 0;  ///< closed-loop phases
  std::size_t openOffered = 0, openDone = 0;
  double openWindowS = 0;
  /// Paper cost of every operation of the first pass, which later passes
  /// must repeat.
  std::vector<QueryStats> queryCost;
  std::vector<std::uint64_t> updateCost;
  std::size_t pass = 0, qi = 0, ui = 0;  ///< position in the pass
  // Traced run.
  std::vector<double> maintInsertMs, maintDeleteMs;  ///< UpdateStats
  double broadcasts = 0;
  std::vector<double> ack, overhead, late;  ///< server leg
  std::size_t legRequests = 0, legShed = 0;
  double hits = 0, misses = 0;
};

// ---------------------------------------------------------------------------

class Bench {
 public:
  explicit Bench(const Args& args)
      : args_(args),
        w_(*args.workload),
        budget_(Budget::from(args, w_.kind)),
        rng_(args.seed) {
    // serve_anti's queries run with the server's trace capacity (0); the
    // engine workloads use default QueryOptions, as a library user gets them.
    if (w_.kind == Kind::kServe) base_.traceCapacity = 0;
    alt_ = base_;
    alt_.traceCapacity = base_.traceCapacity == 0 ? QueryOptions{}.traceCapacity : 0;
  }

  void run();
  void print() const;
  bool correct() const { return wrong_ == 0 && mismatches_ == 0; }

 private:
  // --- Data and oracle -----------------------------------------------------
  void makeData();
  const AnswerSet& want(const QuerySpec& s);
  void checkAnswer(const QuerySpec& s, const AnswerSet& got, const char* where);
  void checkCost(const QuerySpec& s, const QueryStats& st);
  void crossCheckOracle(const QuerySpec& s);
  void problem(const std::string& what) {
    if (problems_.size() < 20) problems_.push_back(what);
  }

  // --- Phases (one dataset each) -------------------------------------------
  void untracedDataset(bool first);
  void tracedDataset(bool first);
  void recordQuery(double ms, double firstMs, const QueryStats& stats,
                   bool exact);
  void recordUpdate(double ms, bool insert, const UpdateStats& stats);
  void recordLoop(double done, double seconds);
  void checkLadder(const char* what, const LadderAcc& acc, double residueNs);
  void engineLoop(Stack& cluster, bool warmUp);
  void serveLoops(Daemon& daemon);
  void serveLeg(Stack& cluster, const std::vector<QuerySpec>& specs);
  void verifyServe(const std::vector<QuerySpec>& specs, LoadResult& result);
  void updateLoop(const std::vector<Stack*>& stacks, bool reads,
                  std::vector<std::unique_ptr<SkylineMaintainer>> maint);
  std::unique_ptr<SkylineMaintainer> maintainer(Stack& stack);
  Exec queryOnLegs(const QuerySpec& s);
  void ladderQueries(const std::vector<QuerySpec>& specs);

  // --- Results ---------------------------------------------------------------
  void finishEndToEnd();
  void finishPerLayer();
  void set(const std::string& name, double value) { metrics_[name] = value; }

  Args args_;
  const Workload& w_;
  Budget budget_;
  Rng rng_;
  QueryOptions base_;  ///< options the workload's queries run with
  QueryOptions alt_;   ///< base_ with the other trace capacity

  std::vector<Dataset> parts_;
  Dataset global_{3};  ///< oracle mirror of the live global data
  std::map<std::uint32_t, AnswerSet> oracleCache_;  // by shape, current data
  AnswerSet freshWant_;
  std::map<std::uint32_t, QueryStats> costBaseline_;  // by shape, this dataset

  // Traced-run wirings of the current dataset and the run's accumulators.
  std::unique_ptr<Stack> cluster_, timed_, direct_;
  LadderAcc queryAcc_, updateAcc_;
  std::size_t rotate_ = 0;

  Samples samples_;
  std::uint64_t attempted_ = 0, failed_ = 0, shed_ = 0, wrong_ = 0;
  std::uint64_t mismatches_ = 0;
  std::vector<std::string> problems_;
  std::map<std::string, double> metrics_;
  QuietCpu quiet_;  ///< the untraced run's single-threaded phases
};

void Bench::makeData() {
  const std::size_t n = args_.tiny ? 1000 : w_.n;
  const std::size_t m = args_.tiny ? 4 : w_.m;
  const Dataset data =
      generateSynthetic(SyntheticSpec{n, 3, w_.dist, rng_.next()});
  Rng partRng(rng_.next());
  parts_ = partitionUniform(data, m, partRng);
  global_ = unionOf(parts_);
  oracleCache_.clear();
  costBaseline_.clear();
}

const AnswerSet& Bench::want(const QuerySpec& s) {
  if (s.shape == QuerySpec::kFresh) {
    freshWant_ = exactAnswer(global_, s);
    return freshWant_;
  }
  auto it = oracleCache_.find(s.shape);
  if (it == oracleCache_.end()) {
    it = oracleCache_.emplace(s.shape, exactAnswer(global_, s)).first;
  }
  return it->second;
}

void Bench::checkAnswer(const QuerySpec& s, const AnswerSet& got,
                        const char* where) {
  if (matches(got, want(s), s)) return;
  ++wrong_;
  problem(std::string("wrong answer (") + where + ", shape " +
          std::to_string(s.shape) + ", q " + std::to_string(s.q) + ")");
}

void Bench::checkCost(const QuerySpec& s, const QueryStats& st) {
  if (s.shape == QuerySpec::kFresh) return;
  const auto [it, inserted] = costBaseline_.try_emplace(s.shape, st);
  if (inserted) return;
  const QueryStats& b = it->second;
  if (b.tuplesShipped != st.tuplesShipped || b.bytesShipped != st.bytesShipped ||
      b.roundTrips != st.roundTrips) {
    ++mismatches_;
    problem("paper cost of shape " + std::to_string(s.shape) +
            " changed between repeats");
  }
}

void Bench::crossCheckOracle(const QuerySpec& s) {
  AnswerSet exact = exactAnswer(global_, s);
  std::erase_if(exact, [&](const Answer& a) { return a.prob < s.q; });
  if (!matches(exact, linearAnswer(global_, s), s)) {
    ++mismatches_;
    problem("oracle disagrees with linearSkyline");
  }
}

std::unique_ptr<SkylineMaintainer> Bench::maintainer(Stack& stack) {
  QueryConfig config;
  config.q = kMaintQ;
  auto m = std::make_unique<SkylineMaintainer>(
      stack.coordinator(), config, MaintenanceStrategy::kIncremental);
  m->initialize();
  return m;
}

// --- Untraced engine closed loop ---------------------------------------------

void Bench::engineLoop(Stack& cluster, bool warmUp) {
  // One untimed pass over every shape lets the process's lazy set-up finish
  // before anything is timed.
  if (warmUp) {
    for (std::uint32_t shape = 0; shape < kEngineShapes; ++shape) {
      const QuerySpec s = engineShape(shape);
      checkAnswer(s, execute(cluster.engine(), s, base_).answers, "warm-up");
    }
  }
  // The closed loop's time leaves out the untimed oracle checks.
  const std::vector<QuerySpec> stream = engineStream(budget_.rounds, rng_);
  double untimedMs = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const QuerySpec& s = stream[i];
    const Exec e = execute(cluster.engine(), s, base_);
    const auto c0 = Clock::now();
    ++attempted_;
    recordQuery(e.wallMs, e.firstMs, e.stats, true);
    checkAnswer(s, e.answers, "engine");
    checkCost(s, e.stats);
    if ((i + 1) % kRepinEvery == 0) quiet_.pin();
    untimedMs += msSince(c0);
  }
  recordLoop(static_cast<double>(stream.size()), (msSince(t0) - untimedMs) / 1e3);
}

// --- Traced engine ladder ----------------------------------------------------

/// Runs one query on every leg, rotating which goes first, checks that the
/// legs agree with the untraced run, and returns the untraced run.
Exec Bench::queryOnLegs(const QuerySpec& s) {
  std::array<Exec, 4> legs;
  for (std::size_t k = 0; k < legs.size(); ++k) {
    const std::size_t leg = (k + rotate_) % legs.size();
    switch (leg) {
      case 0:
        legs[0] = execute(cluster_->engine(), s, base_);
        break;
      case 1:
        timed_->times() = LayerTimes{};
        legs[1] = execute(timed_->engine(), s, base_);
        addTimes(queryAcc_.timed, timed_->times());
        break;
      case 2: {
        direct_->times() = LayerTimes{};
        direct_->prepares().clear();
        legs[2] = execute(direct_->engine(), s, base_);
        addTimes(queryAcc_.direct, direct_->times());
        // The same descents again, straight on the site trees.
        for (const PrepareLog& p : direct_->prepares()) {
          const Rect* clip = p.request.window ? &*p.request.window : nullptr;
          const SkylineSpec spec{
              .mask = p.request.mask == 0 ? fullMask(3) : p.request.mask,
              .q = p.request.q,
              .clip = clip};
          const auto t0 = Clock::now();
          const auto local = bbsSkyline(p.site->tree(), spec);
          queryAcc_.bbsNs += msSince(t0) * 1e6;
          queryAcc_.localSize += static_cast<double>(local.size());
        }
        break;
      }
      default:
        legs[3] = execute(cluster_->engine(), s, alt_);
        break;
    }
  }
  ++rotate_;
  for (std::size_t leg = 1; leg < legs.size(); ++leg) {
    const QueryStats& a = legs[0].stats;
    const QueryStats& b = legs[leg].stats;
    const bool bytesKnown = leg != 2;  // the direct leg has no wire
    if (!sameAnswers(legs[0].answers, legs[leg].answers) ||
        a.tuplesShipped != b.tuplesShipped || a.roundTrips != b.roundTrips ||
        (bytesKnown && a.bytesShipped != b.bytesShipped)) {
      ++mismatches_;
      problem("ladder leg " + std::to_string(leg) +
              " disagrees with the untraced run");
    }
  }
  ++queryAcc_.ops;
  queryAcc_.topNs += legs[0].wallMs * 1e6;
  queryAcc_.timedNs += legs[1].wallMs * 1e6;
  queryAcc_.altNs += legs[3].wallMs * 1e6;
  queryAcc_.bytes += static_cast<double>(legs[0].stats.bytesShipped);
  queryAcc_.roundTrips += static_cast<double>(legs[0].stats.roundTrips);
  return legs[0];
}

void Bench::ladderQueries(const std::vector<QuerySpec>& specs) {
  for (const QuerySpec& s : specs) {
    const Exec e = queryOnLegs(s);
    ++attempted_;
    checkAnswer(s, e.answers, "ladder");
    checkCost(s, e.stats);
  }
}

// --- Updates ---------------------------------------------------------------

/// Applies the dataset's update stream on every stack (one maintainer
/// each), checking SKY(H) against the oracle every kCheckEvery updates; with
/// `reads`, a DSUD read follows each check point, and the untraced run times
/// the reads and updates as one closed loop.
void Bench::updateLoop(const std::vector<Stack*>& stacks, bool reads,
                       std::vector<std::unique_ptr<SkylineMaintainer>> maint) {
  const std::vector<UpdateEvent> events =
      makeUpdates(parts_, budget_.updates, w_.dist, rng_);
  const bool traced = stacks.size() > 1;
  const QuerySpec read = maintRead();
  double untimedMs = 0, readsDone = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const UpdateEvent& e = events[i];
    std::vector<UpdateStats> stats(stacks.size());
    std::vector<double> wall(stacks.size());
    for (std::size_t k = 0; k < stacks.size(); ++k) {
      const std::size_t leg = (k + rotate_) % stacks.size();
      Stack& stack = *stacks[leg];
      stack.times() = LayerTimes{};
      const auto t0 = Clock::now();
      stats[leg] = maint[leg]->apply(e);
      wall[leg] = msSince(t0);
      if (stack.kind() == Stack::Kind::kTimed) addTimes(updateAcc_.timed, stack.times());
      if (stack.kind() == Stack::Kind::kDirect) addTimes(updateAcc_.direct, stack.times());
    }
    const auto c0 = Clock::now();
    ++rotate_;
    ++attempted_;
    for (std::size_t leg = 1; leg < stacks.size(); ++leg) {
      // UpdateStats counts tuples off the wire meter, which the direct leg
      // (no wire) never feeds.
      const bool wire = stacks[leg]->kind() != Stack::Kind::kDirect;
      if ((wire && stats[leg].tuplesShipped != stats[0].tuplesShipped) ||
          stats[leg].broadcasts != stats[0].broadcasts ||
          stats[leg].skylineChanged != stats[0].skylineChanged) {
        ++mismatches_;
        problem("update cost differs between ladder legs");
      }
    }
    if (traced) {
      ++updateAcc_.ops;
      updateAcc_.topNs += wall[0] * 1e6;
      updateAcc_.timedNs += wall[1] * 1e6;
    }
    const bool insert = e.kind == UpdateEvent::Kind::kInsert;
    recordUpdate(wall[0], insert, stats[0]);
    (insert ? samples_.maintInsertMs : samples_.maintDeleteMs)
        .push_back(stats[0].seconds * 1e3);
    samples_.broadcasts += static_cast<double>(stats[0].broadcasts);
    applyToMirror(global_, e);
    oracleCache_.clear();
    untimedMs += msSince(c0);

    if ((i + 1) % kCheckEvery != 0 && i + 1 != events.size()) continue;
    if (reads) {
      const Exec r = traced ? queryOnLegs(read)
                            : execute(stacks[0]->engine(), read, base_);
      const auto r0 = Clock::now();
      ++attempted_;
      readsDone += 1;
      recordQuery(r.wallMs, r.firstMs, r.stats, true);
      checkAnswer(read, r.answers, "read");
      untimedMs += msSince(r0);
    }
    const auto k0 = Clock::now();
    for (std::size_t leg = 0; leg < stacks.size(); ++leg) {
      checkAnswer(read, toAnswerSet(maint[leg]->skyline()), "SKY(H)");
    }
    if (!traced) quiet_.pin();
    untimedMs += msSince(k0);
  }
  if (reads && !traced) recordLoop(readsDone, (msSince(t0) - untimedMs) / 1e3);
}

// --- Server ------------------------------------------------------------------

void Bench::verifyServe(const std::vector<QuerySpec>& specs,
                        LoadResult& result) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Outcome& o = result.outcomes[i];
    ++attempted_;
    switch (o.status) {
      case Outcome::Status::kDone:
        checkAnswer(specs[i], o.answers, "server");
        break;
      case Outcome::Status::kShed:
        ++shed_;
        break;
      default:
        ++failed_;
        problem("server request failed");
        break;
    }
  }
}

void Bench::serveLoops(Daemon& daemon) {
  // Fill the result cache with every hot shape first (untimed), so every
  // dataset measures the same 40% of cache hits.
  std::vector<QuerySpec> warm;
  for (std::uint32_t s = 0; s < kServeHot; ++s) warm.push_back(serveHotShape(s));
  LoadResult w = runClosedLoop(daemon.port(), warm, kServeConnsClosed, 1, false);
  verifyServe(warm, w);

  const std::vector<QuerySpec> open = serveStream(budget_.open, rng_);
  LoadResult o =
      runOpenLoop(daemon.port(), open, w_.serveRate, kServeConnsOpen, false);
  const std::vector<QuerySpec> closed = serveStream(budget_.closed, rng_);
  LoadResult c = runClosedLoop(daemon.port(), closed, kServeConnsClosed,
                               kServeDepth, false);
  verifyServe(open, o);
  verifyServe(closed, c);

  samples_.openOffered += open.size();
  samples_.openWindowS += static_cast<double>(open.size()) / w_.serveRate;
  // Cache hits depend on timing here, so the costs are not held to exact
  // repetition.
  for (const Outcome& x : o.outcomes) {
    if (x.status != Outcome::Status::kDone) continue;
    ++samples_.openDone;
    recordQuery(x.doneMs - x.dueMs,
                x.firstAnswerMs >= 0 ? x.firstAnswerMs - x.dueMs : -1.0,
                x.stats, false);
  }
  double done = 0;
  for (const Outcome& x : c.outcomes) {
    if (x.status == Outcome::Status::kDone) done += 1;
  }
  recordLoop(done, c.elapsedS);
}

/// The traced run's server leg: the workload's queries through a default
/// QueryServer, open loop at the workload's fixed rate, with profiles.
void Bench::serveLeg(Stack& cluster, const std::vector<QuerySpec>& specs) {
  obs::MetricsRegistry& reg = cluster.metrics();
  Daemon daemon(cluster.engine(), reg);
  const std::uint64_t hits0 = reg.counter("dsud_cache_hits_total").value();
  const std::uint64_t miss0 = reg.counter("dsud_cache_misses_total").value();
  LoadResult r = runOpenLoop(daemon.port(), specs, w_.serveRate,
                             kServeConnsOpen, true);
  samples_.hits +=
      static_cast<double>(reg.counter("dsud_cache_hits_total").value() - hits0);
  samples_.misses +=
      static_cast<double>(reg.counter("dsud_cache_misses_total").value() - miss0);
  verifyServe(specs, r);
  if (daemon.failed()) {
    ++failed_;
    problem("server loop failed");
  }
  samples_.legRequests += specs.size();
  for (const Outcome& o : r.outcomes) {
    samples_.late.push_back(o.sentMs - o.dueMs);
    if (o.status == Outcome::Status::kShed) ++samples_.legShed;
    if (o.status != Outcome::Status::kDone) continue;
    if (o.ackMs >= 0) samples_.ack.push_back(o.ackMs - o.dueMs);
    if (o.engineMs >= 0) {
      samples_.overhead.push_back(o.doneMs - o.dueMs - o.engineMs);
    }
  }
}

// --- Run -------------------------------------------------------------------

void Bench::untracedDataset(bool first) {
  // Set-up: the cluster, plus the started server (serve_anti) or the
  // initialised maintainer (update_indep).  Data generation and the oracle
  // stay outside.  Everything but the server runs on one thread, pinned.
  std::vector<Dataset> copy = parts_;
  if (w_.kind != Kind::kServe) quiet_.pin();
  const auto t0 = Clock::now();
  auto cluster = std::make_unique<Stack>(Stack::Kind::kCluster, std::move(copy), 3);
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<SkylineMaintainer>> maint;
  if (w_.kind == Kind::kServe) {
    daemon = std::make_unique<Daemon>(cluster->engine(), cluster->metrics());
  }
  if (w_.kind == Kind::kUpdate) maint.push_back(maintainer(*cluster));
  samples_.setupS.push_back(msSince(t0) / 1e3);

  switch (w_.kind) {
    case Kind::kEngine:
      engineLoop(*cluster, first);
      maint.push_back(maintainer(*cluster));
      updateLoop({cluster.get()}, false, std::move(maint));
      break;
    case Kind::kServe:
      serveLoops(*daemon);
      if (daemon->failed()) {
        ++failed_;
        problem("server loop failed");
      }
      daemon.reset();
      quiet_.pin();
      maint.push_back(maintainer(*cluster));
      updateLoop({cluster.get()}, false, std::move(maint));
      break;
    case Kind::kUpdate:
      updateLoop({cluster.get()}, true, std::move(maint));
      break;
  }
  quiet_.unpin();
}

void Bench::recordQuery(double ms, double firstMs, const QueryStats& stats,
                        bool exact) {
  Samples& s = samples_;
  s.queryMs.push_back(ms);
  if (firstMs >= 0) s.firstMs.push_back(firstMs);
  s.costs.add(stats);
  const std::size_t i = s.qi++;
  if (s.pass == 0) {
    s.queryCost.push_back(stats);
    return;
  }
  const QueryStats& b = s.queryCost.at(i);
  if (exact && (b.tuplesShipped != stats.tuplesShipped ||
                b.bytesShipped != stats.bytesShipped ||
                b.roundTrips != stats.roundTrips)) {
    ++mismatches_;
    problem("paper cost of query " + std::to_string(i) +
            " differs between passes");
  }
}

void Bench::recordUpdate(double ms, bool insert, const UpdateStats& stats) {
  Samples& s = samples_;
  s.updateMs.push_back(ms);
  if (!insert) s.deleteMs.push_back(ms);
  s.updateTuples += static_cast<double>(stats.tuplesShipped);
  const std::size_t i = s.ui++;
  if (s.pass == 0) {
    s.updateCost.push_back(stats.tuplesShipped);
    return;
  }
  if (s.updateCost.at(i) != stats.tuplesShipped) {
    ++mismatches_;
    problem("paper cost of update " + std::to_string(i) +
            " differs between passes");
  }
}

void Bench::recordLoop(double done, double seconds) {
  samples_.loopDone += done;
  samples_.loopSeconds += seconds;
}

void Bench::tracedDataset(bool first) {
  cluster_ = std::make_unique<Stack>(Stack::Kind::kCluster, parts_, 3);
  timed_ = std::make_unique<Stack>(Stack::Kind::kTimed, parts_, 3);
  direct_ = std::make_unique<Stack>(Stack::Kind::kDirect, parts_, 3);
  const std::vector<Stack*> legs = {cluster_.get(), timed_.get(), direct_.get()};
  const auto maintainers = [&] {
    std::vector<std::unique_ptr<SkylineMaintainer>> m;
    for (Stack* s : legs) m.push_back(maintainer(*s));
    return m;
  };
  // A first untimed pass lets the process's lazy set-up finish.
  const auto warmUp = [&](std::uint32_t shapes, QuerySpec (*shape)(std::uint32_t)) {
    if (!first) return;
    for (std::uint32_t s = 0; s < shapes; ++s) queryOnLegs(shape(s));
    queryAcc_ = LadderAcc{};
  };

  switch (w_.kind) {
    case Kind::kEngine: {
      warmUp(kEngineShapes, engineShape);
      ladderQueries(engineStream(budget_.rounds, rng_));
      std::vector<QuerySpec> specs;
      for (std::size_t i = 0; i < budget_.open; ++i) {
        specs.push_back(engineShape(static_cast<std::uint32_t>(rng_.below(kEngineShapes))));
      }
      serveLeg(*cluster_, specs);
      updateLoop(legs, false, maintainers());
      break;
    }
    case Kind::kServe:
      warmUp(kServeHot, serveHotShape);
      ladderQueries(serveStream(budget_.ladderQueries, rng_));
      serveLeg(*cluster_, serveStream(budget_.open, rng_));
      updateLoop(legs, false, maintainers());
      break;
    case Kind::kUpdate:
      updateLoop(legs, true, maintainers());
      serveLeg(*cluster_, std::vector<QuerySpec>(budget_.open, maintRead()));
      break;
  }
  direct_.reset();
  timed_.reset();
  cluster_.reset();
}

void Bench::run() {
  for (std::size_t pass = 0; pass < budget_.passes; ++pass) {
    // Every pass replays the same inputs.
    rng_ = Rng(args_.seed);
    samples_.pass = pass;
    samples_.qi = samples_.ui = 0;
    for (std::size_t d = 0; d < budget_.datasets; ++d) {
      makeData();
      if (pass == 0 && d == 0) {
        crossCheckOracle(w_.kind == Kind::kServe ? serveHotShape(0)
                                                 : engineShape(0));
      }
      if (args_.trace) {
        tracedDataset(d == 0);
      } else {
        untracedDataset(pass == 0 && d == 0);
      }
    }
  }
  // The oracle once more against the reference scan, on churned data.
  crossCheckOracle(maintRead());
  if (args_.trace) {
    finishPerLayer();
  } else {
    finishEndToEnd();
  }
}

void Bench::finishEndToEnd() {
  const Samples& s = samples_;
  std::printf("# %zu passes over %zu datasets; percentiles pool every "
              "pass\n",
              budget_.passes, budget_.datasets);
  std::printf("# query latencies: %zu (%zu beyond p95); updates: %zu (%zu "
              "beyond p95); set-ups: %zu\n",
              s.queryMs.size(), beyondP95(s.queryMs.size()), s.updateMs.size(),
              beyondP95(s.updateMs.size()), s.setupS.size());
  if (w_.kind == Kind::kServe) {
    std::printf("# open loop: %zu requests offered at %.1f/s, %zu completed "
                "(%.2f/s over the %.2f s offered window)\n",
                s.openOffered, w_.serveRate, s.openDone,
                static_cast<double>(s.openDone) / s.openWindowS, s.openWindowS);
  }
  const double queries = static_cast<double>(std::max<std::uint64_t>(s.costs.n, 1));
  const double updates = static_cast<double>(std::max<std::size_t>(s.updateMs.size(), 1));
  set("setup_s", median(s.setupS));
  set("query_p50_ms", percentile(s.queryMs, 0.5));
  set("query_p95_ms", percentile(s.queryMs, 0.95));
  set("first_answer_p50_ms", median(s.firstMs));
  // Closed loops: the engine loop, update_indep's reads with the updates
  // between them, or the server's closed-loop phases.
  set("throughput_qps", s.loopSeconds > 0 ? s.loopDone / s.loopSeconds : 0.0);
  set("tuples_per_query", s.costs.tuples / queries);
  set("bytes_per_query", s.costs.bytes / queries);
  set("round_trips_per_query", s.costs.roundTrips / queries);
  set("delete_p50_ms", median(s.deleteMs));
  set("update_p95_ms", percentile(s.updateMs, 0.95));
  set("tuples_per_update", s.updateTuples / updates);
  set("peak_rss_mb", peakRssMiB());
  const double bad = static_cast<double>(failed_ + shed_ + wrong_);
  set("ok_frac", 1.0 - bad / static_cast<double>(std::max<std::uint64_t>(attempted_, 1)));
}

void Bench::checkLadder(const char* what, const LadderAcc& acc,
                        double residueNs) {
  if (std::abs(residueNs) <= kLadderTolerance * acc.topNs) return;
  ++mismatches_;
  problem(std::string(what) + " ladder rows miss the top row by more than " +
          std::to_string(static_cast<int>(kLadderTolerance * 100)) + "%");
}

void Bench::finishPerLayer() {
  const auto perCall = [](double ns, std::uint64_t calls) {
    return calls == 0 ? 0.0 : ns / static_cast<double>(calls) / 1e3;
  };
  {
    const LadderAcc& a = queryAcc_;
    const double ops = static_cast<double>(std::max<std::uint64_t>(a.ops, 1));
    const double residueNs = printLadder("query", a);
    checkLadder("query", a, residueNs);
    std::printf("#   of site.prepare, BBS on the site trees: %.4f ms\n",
                a.bbsNs / ops / 1e6);
    const LayerTimes& d = a.direct;
    const LayerTimes& t = a.timed;
    set("ladder.top_ms_per_query", a.topNs / ops / 1e6);
    set("ladder.residue_ms_per_query", residueNs / ops / 1e6);
    set("skyline.bbs_ms_per_query", a.bbsNs / ops / 1e6);
    set("skyline.local_size", a.localSize / ops);
    set("site.prepare_ms_per_query", d.at(Op::kPrepare).ns / ops / 1e6);
    set("site.prepare_share", a.topNs > 0 ? d.at(Op::kPrepare).ns / a.topNs : 0.0);
    set("site.next_us_per_call", perCall(d.at(Op::kNext).ns, d.at(Op::kNext).calls));
    set("site.next_calls_per_query", static_cast<double>(d.at(Op::kNext).calls) / ops);
    set("site.evaluate_us_per_call",
        perCall(d.at(Op::kEvaluate).ns, d.at(Op::kEvaluate).calls));
    set("site.evaluate_calls_per_query",
        static_cast<double>(d.at(Op::kEvaluate).calls) / ops);
    set("codec.us_per_call", perCall(t.server.ns - d.handleNs(), t.server.calls));
    set("transport.us_per_call",
        perCall(t.handleNs() - t.server.ns, t.handleCalls()));
    set("rpc.overhead_us_per_call",
        perCall(t.handleNs() - d.handleNs(), t.handleCalls()));
    set("rpc.bytes_per_call", a.roundTrips > 0 ? a.bytes / a.roundTrips : 0.0);
    set("coord.self_ms_per_query", (a.timedNs - t.handleNs()) / ops / 1e6);
    set("trace.bench_overhead_frac", a.topNs > 0 ? a.timedNs / a.topNs - 1.0 : 0.0);
    // Library tracing: default traceCapacity minus traceCapacity=0.
    const double tracedNs = base_.traceCapacity > 0 ? a.topNs : a.altNs;
    const double untracedNs = base_.traceCapacity > 0 ? a.altNs : a.topNs;
    set("trace.lib_ms_per_query", (tracedNs - untracedNs) / ops / 1e6);
  }
  {
    const LadderAcc& a = updateAcc_;
    const double ops = static_cast<double>(std::max<std::uint64_t>(a.ops, 1));
    const double residueNs = printLadder("update", a);
    checkLadder("update", a, residueNs);
    set("ladder.top_ms_per_update", a.topNs / ops / 1e6);
    set("ladder.residue_ms_per_update", residueNs / ops / 1e6);
    set("site.apply_us_per_update", a.timed.at(Op::kApply).ns / ops / 1e3);
    set("maint.insert_p50_ms", median(samples_.maintInsertMs));
    set("maint.delete_p50_ms", median(samples_.maintDeleteMs));
    set("maint.broadcasts_per_update", samples_.broadcasts / ops);
  }
  const Samples& s = samples_;
  std::printf("# server leg: %zu requests at %.1f/s; cache hits %.0f of %.0f "
              "share-eligible\n",
              s.legRequests, w_.serveRate, s.hits, s.hits + s.misses);
  set("cache.hit_frac", s.hits + s.misses > 0 ? s.hits / (s.hits + s.misses) : 0.0);
  set("server.ack_p50_ms", median(s.ack));
  set("server.overhead_p50_ms", median(s.overhead));
  set("server.shed_frac", static_cast<double>(s.legShed) /
                              static_cast<double>(std::max<std::size_t>(s.legRequests, 1)));
  set("gen.late_p95_ms", percentile(s.late, 0.95));
}

void Bench::print() const {
  for (const std::string& p : problems_) std::printf("# ERROR: %s\n", p.c_str());
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_ + shed_ + wrong_);
  json += ", \"metrics\": {";
  bool firstMetric = true;
  const auto emit = [&](const MetricDef& def) {
    const auto it = metrics_.find(def.name);
    if (it == metrics_.end()) {
      throw std::logic_error(std::string("ladder: metric not measured: ") + def.name);
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", it->second);
    json += firstMetric ? "" : ", ";
    json += std::string("\"") + def.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + def.unit + "\"}";
    firstMetric = false;
  };
  if (args_.trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "ladder: %s\nusage: ladder --workload <engine_indep|serve_anti|"
               "update_indep> --seed <n> --seconds <s> --trace <0|1> "
               "[--scale full|tiny]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace ladder

int main(int argc, char** argv) {
  using namespace ladder;
  Args args;
  if (argc % 2 == 0) return usage("options come in pairs");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        for (const Workload& w : kWorkloads) {
          if (value == w.name) args.workload = &w;
        }
        if (args.workload == nullptr) return usage("unknown workload");
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (key == "--scale") {
        if (value != "full" && value != "tiny") return usage("bad --scale");
        args.tiny = value == "tiny";
      } else {
        return usage(("unknown option " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (args.workload == nullptr) return usage("--workload is required");
  if (!(args.seconds > 0)) return usage("--seconds must be positive");
  try {
    Bench bench(args);
    bench.run();
    bench.print();
    // Wrong answers and paper-cost mismatches fail the run.
    if (!bench.correct()) return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ladder: %s\n", e.what());
    return 1;
  }
  return 0;
}
