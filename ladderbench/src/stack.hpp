// Three wirings of one partitioned database, each ending in a QueryEngine.
//
//   kCluster  InProcCluster, exactly as a library user builds it.  Untimed
//             inside: this is the ladder's top row and the only wiring the
//             untraced run uses.
//   kTimed    The public pieces InProcCluster wires (LocalSite -> SiteServer
//             -> InProcChannel -> ChannelPool -> RpcSiteHandle ->
//             Coordinator -> QueryEngine), with bench timers around
//             SiteServer::handle and around every SiteHandle call.
//   kDirect   A SiteHandle that calls LocalSite's public methods with no RPC
//             at all, timing each call.
//
// Every stack owns its own LocalSites, so the legs never share site sessions
// or PR-tree state and may run the same operation stream one after another.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/dataset.hpp"
#include "core/cluster.hpp"
#include "core/coordinator.hpp"
#include "core/local_site.hpp"
#include "core/query_engine.hpp"
#include "net/bandwidth.hpp"
#include "obs/metrics.hpp"

namespace ladder {

/// Site operations grouped the way the ladder reports them.
enum class Op : std::uint8_t {
  kPrepare,
  kNext,
  kEvaluate,
  kApply,    ///< applyInsert, applyDelete, repairDelete
  kReplica,  ///< replicaAdd, replicaRemove
  kOther,    ///< finishQuery, shipAll, fetchTrace
};
inline constexpr std::size_t kOpCount = 6;

struct OpTotals {
  double ns = 0.0;
  std::uint64_t calls = 0;
};

/// Time spent below the coordinator, summed over every site of one stack.
/// The legs run on one thread, so plain counters suffice.
struct LayerTimes {
  /// Per-op time seen by the SiteHandle decorator (kTimed) or by the direct
  /// LocalSite call (kDirect).
  std::array<OpTotals, kOpCount> handle{};
  /// SiteServer::handle, all ops (kTimed only).
  OpTotals server;

  double handleNs() const;
  std::uint64_t handleCalls() const;
  const OpTotals& at(Op op) const { return handle[static_cast<std::size_t>(op)]; }
};

/// One PrepareRequest as the direct leg saw it, so the bench can rerun the
/// same BBS descent on the same tree.
struct PrepareLog {
  const dsud::LocalSite* site = nullptr;
  dsud::PrepareRequest request;
};

class Stack {
 public:
  enum class Kind : std::uint8_t { kCluster, kTimed, kDirect };

  Stack(Kind kind, std::vector<dsud::Dataset> parts, std::size_t dims);
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  Kind kind() const noexcept { return kind_; }
  dsud::Coordinator& coordinator();
  dsud::QueryEngine& engine();
  dsud::obs::MetricsRegistry& metrics();

  /// Timers of the kTimed and kDirect wirings (all zero for kCluster).
  LayerTimes& times() noexcept { return times_; }
  /// Prepares the direct leg served since the last clear.
  std::vector<PrepareLog>& prepares() noexcept { return prepares_; }

 private:
  Kind kind_;
  LayerTimes times_;
  std::vector<PrepareLog> prepares_;

  std::unique_ptr<dsud::InProcCluster> cluster_;

  // kTimed / kDirect wiring.  Declared before the coordinator so the sites
  // outlive every handle that points at them.
  dsud::BandwidthMeter meter_;
  dsud::obs::MetricsRegistry ownMetrics_;
  std::vector<std::shared_ptr<dsud::LocalSite>> sites_;
  std::unique_ptr<dsud::Coordinator> coordinator_;
  std::unique_ptr<dsud::QueryEngine> engine_;
};

}  // namespace ladder
