#include "stack.hpp"

#include <chrono>
#include <utility>

#include "core/site_handle.hpp"
#include "core/topology.hpp"
#include "net/channel_pool.hpp"
#include "net/inproc_transport.hpp"
#include "net/transport.hpp"

namespace ladder {

using namespace dsud;

double LayerTimes::handleNs() const {
  double sum = 0.0;
  for (const OpTotals& t : handle) sum += t.ns;
  return sum;
}

std::uint64_t LayerTimes::handleCalls() const {
  std::uint64_t sum = 0;
  for (const OpTotals& t : handle) sum += t.calls;
  return sum;
}

namespace {

using Clock = std::chrono::steady_clock;

template <typename Fn>
auto timed(OpTotals& into, Fn&& fn) {
  const auto start = Clock::now();
  struct Stop {
    OpTotals& into;
    Clock::time_point start;
    ~Stop() {
      into.ns += std::chrono::duration<double, std::nano>(Clock::now() - start)
                     .count();
      ++into.calls;
    }
  } stop{into, start};
  return fn();
}

OpTotals& slot(LayerTimes& times, Op op) {
  return times.handle[static_cast<std::size_t>(op)];
}

/// Decorator timing every call a coordinator makes on one RpcSiteHandle (or
/// on a per-query session opened from it).
class TimedHandle final : public SiteHandle {
 public:
  TimedHandle(std::unique_ptr<SiteHandle> inner, LayerTimes& times)
      : inner_(std::move(inner)), times_(&times) {}

  SiteId siteId() const noexcept override { return inner_->siteId(); }

  PrepareResponse prepare(const PrepareRequest& r) override {
    return timed(slot(*times_, Op::kPrepare), [&] { return inner_->prepare(r); });
  }
  NextCandidateResponse nextCandidate(const NextCandidateRequest& r) override {
    return timed(slot(*times_, Op::kNext),
                 [&] { return inner_->nextCandidate(r); });
  }
  EvaluateResponse evaluate(const EvaluateRequest& r) override {
    return timed(slot(*times_, Op::kEvaluate),
                 [&] { return inner_->evaluate(r); });
  }
  ShipAllResponse shipAll() override {
    return timed(slot(*times_, Op::kOther), [&] { return inner_->shipAll(); });
  }
  void finishQuery(const FinishQueryRequest& r) override {
    timed(slot(*times_, Op::kOther), [&] { inner_->finishQuery(r); });
  }
  ApplyInsertResponse applyInsert(const ApplyInsertRequest& r) override {
    return timed(slot(*times_, Op::kApply),
                 [&] { return inner_->applyInsert(r); });
  }
  ApplyDeleteResponse applyDelete(const ApplyDeleteRequest& r) override {
    return timed(slot(*times_, Op::kApply),
                 [&] { return inner_->applyDelete(r); });
  }
  RepairDeleteResponse repairDelete(const RepairDeleteRequest& r) override {
    return timed(slot(*times_, Op::kApply),
                 [&] { return inner_->repairDelete(r); });
  }
  void replicaAdd(const ReplicaAddRequest& r) override {
    timed(slot(*times_, Op::kReplica), [&] { inner_->replicaAdd(r); });
  }
  void replicaRemove(const ReplicaRemoveRequest& r) override {
    timed(slot(*times_, Op::kReplica), [&] { inner_->replicaRemove(r); });
  }
  FetchTraceResponse fetchTrace(const FetchTraceRequest& r) override {
    return timed(slot(*times_, Op::kOther),
                 [&] { return inner_->fetchTrace(r); });
  }
  void setTraceSink(obs::QueryTrace* sink) override {
    inner_->setTraceSink(sink);
  }

  std::unique_ptr<SiteHandle> openSession(QueryUsage* scope) override {
    return std::make_unique<TimedHandle>(inner_->openSession(scope), *times_);
  }
  std::unique_ptr<SiteHandle> openSession(QueryUsage* scope,
                                          const FaultOptions& fault,
                                          SiteHealth* health,
                                          obs::MetricsRegistry* metrics) override {
    return std::make_unique<TimedHandle>(
        inner_->openSession(scope, fault, health, metrics), *times_);
  }

  std::uint32_t lastAttempts() const noexcept override {
    return inner_->lastAttempts();
  }
  std::uint64_t lastNextSeq() const noexcept override {
    return inner_->lastNextSeq();
  }
  std::uint64_t lastEvalSeq() const noexcept override {
    return inner_->lastEvalSeq();
  }
  SiteHealth* sessionHealth() const noexcept override {
    return inner_->sessionHealth();
  }
  std::uint64_t failovers() const noexcept override {
    return inner_->failovers();
  }

 private:
  std::unique_ptr<SiteHandle> inner_;
  LayerTimes* times_;
};

/// Calls LocalSite's public methods directly: no frame codec, no channel,
/// no pool.  Per-query sessions come from SiteHandle's default openSession,
/// which counts tuples and round trips but has no bytes to count.
class DirectHandle final : public SiteHandle {
 public:
  DirectHandle(LocalSite& site, LayerTimes& times,
               std::vector<PrepareLog>& prepares)
      : site_(&site), times_(&times), prepares_(&prepares) {}

  SiteId siteId() const noexcept override { return site_->id(); }

  PrepareResponse prepare(const PrepareRequest& r) override {
    prepares_->push_back(PrepareLog{site_, r});
    return timed(slot(*times_, Op::kPrepare), [&] { return site_->prepare(r); });
  }
  NextCandidateResponse nextCandidate(const NextCandidateRequest& r) override {
    return timed(slot(*times_, Op::kNext),
                 [&] { return site_->nextCandidate(r); });
  }
  EvaluateResponse evaluate(const EvaluateRequest& r) override {
    return timed(slot(*times_, Op::kEvaluate),
                 [&] { return site_->evaluate(r); });
  }
  ShipAllResponse shipAll() override {
    return timed(slot(*times_, Op::kOther), [&] { return site_->shipAll(); });
  }
  void finishQuery(const FinishQueryRequest& r) override {
    timed(slot(*times_, Op::kOther), [&] { site_->finishQuery(r); });
  }
  ApplyInsertResponse applyInsert(const ApplyInsertRequest& r) override {
    return timed(slot(*times_, Op::kApply),
                 [&] { return site_->applyInsert(r); });
  }
  ApplyDeleteResponse applyDelete(const ApplyDeleteRequest& r) override {
    return timed(slot(*times_, Op::kApply),
                 [&] { return site_->applyDelete(r); });
  }
  RepairDeleteResponse repairDelete(const RepairDeleteRequest& r) override {
    return timed(slot(*times_, Op::kApply),
                 [&] { return site_->repairDelete(r); });
  }
  void replicaAdd(const ReplicaAddRequest& r) override {
    timed(slot(*times_, Op::kReplica), [&] { site_->replicaAdd(r); });
  }
  void replicaRemove(const ReplicaRemoveRequest& r) override {
    timed(slot(*times_, Op::kReplica), [&] { site_->replicaRemove(r); });
  }

 private:
  LocalSite* site_;
  LayerTimes* times_;
  std::vector<PrepareLog>* prepares_;
};

}  // namespace

Stack::Stack(Kind kind, std::vector<Dataset> parts, std::size_t dims)
    : kind_(kind) {
  if (kind == Kind::kCluster) {
    cluster_ = std::make_unique<InProcCluster>(
        Topology::fromPartitions(std::move(parts)));
    return;
  }
  // Same defaults InProcCluster uses: default tree options, one metrics
  // registry shared by sites and coordinator, the in-process channel count
  // from TransportConfig.
  const ClusterConfig defaults;
  std::vector<std::unique_ptr<SiteHandle>> handles;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const auto id = static_cast<SiteId>(i);
    auto site = std::make_shared<LocalSite>(id, parts[i], defaults.tree);
    site->setMetrics(&ownMetrics_);
    sites_.push_back(site);
    if (kind == Kind::kDirect) {
      handles.push_back(
          std::make_unique<DirectHandle>(*site, times_, prepares_));
      continue;
    }
    // The pool's factory keeps the server alive for as long as the handle.
    auto server = std::make_shared<SiteServer>(*site);
    auto pool = std::make_shared<ChannelPool>(
        [id, server, times = &times_, meter = &meter_,
         metrics = &ownMetrics_] {
          auto channel = std::make_unique<InProcChannel>(
              [server, times](const Frame& f) {
                return timed(times->server, [&] { return server->handle(f); });
              });
          channel->bindAccounting(id, meter, metrics);
          return std::unique_ptr<ClientChannel>(std::move(channel));
        },
        defaults.transport.inprocChannelsPerSite);
    handles.push_back(std::make_unique<TimedHandle>(
        std::make_unique<RpcSiteHandle>(id, std::move(pool), &meter_),
        times_));
  }
  coordinator_ = std::make_unique<Coordinator>(std::move(handles), &meter_,
                                               dims, &ownMetrics_);
  engine_ = std::make_unique<QueryEngine>(*coordinator_);
}

Stack::~Stack() = default;

Coordinator& Stack::coordinator() {
  return cluster_ ? cluster_->coordinator() : *coordinator_;
}

QueryEngine& Stack::engine() {
  return cluster_ ? cluster_->engine() : *engine_;
}

obs::MetricsRegistry& Stack::metrics() {
  return cluster_ ? cluster_->metricsRegistry() : ownMetrics_;
}

}  // namespace ladder
