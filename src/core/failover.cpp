#include "core/failover.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "obs/log.hpp"
#include "obs/recorder.hpp"

namespace dsud {

FailoverSiteHandle::FailoverSiteHandle(
    SiteId partition, std::vector<std::unique_ptr<SiteHandle>> replicas,
    obs::MetricsRegistry* metrics)
    : partition_(partition), replicas_(std::move(replicas)) {
  if (replicas_.empty()) {
    throw std::invalid_argument(
        "FailoverSiteHandle: at least one replica required");
  }
  for (const auto& r : replicas_) {
    if (!r || r->siteId() != partition_) {
      throw std::invalid_argument(
          "FailoverSiteHandle: replica id mismatch for partition " +
          std::to_string(partition_));
    }
  }
  if (metrics != nullptr) {
    failoverCounter_ = &metrics->counter(obs::labeled(
        "dsud_failovers_total", {{"site", std::to_string(partition_)}}));
  }
}

void FailoverSiteHandle::replayOnto(SiteHandle& replica) {
  if (!prepared_) return;  // session never opened here: nothing to rebuild
  replica.prepare(*prepared_);
  for (const LoggedOp& op : log_) {
    if (op.isNext) {
      replica.nextCandidate(op.next);
    } else {
      replica.evaluate(op.eval);
    }
  }
}

template <typename Fn>
auto FailoverSiteHandle::withFailover(Fn&& fn) {
  for (;;) {
    try {
      SiteHandle& replica = active();
      if (needReplay_) {
        replayOnto(replica);
        needReplay_ = false;
      }
      return fn(replica);
    } catch (const SiteFailure&) {
      // Terminal for this replica (retries and breaker already consulted
      // underneath).  Transport-agnostic errors (std::logic_error, decode
      // failures) propagate — a replica cannot fix a malformed request.
      if (active_ + 1 >= replicas_.size()) throw;
      ++active_;
      needReplay_ = true;
      if (failoverCounter_ != nullptr) failoverCounter_->inc();
      obs::eventLog().emit(
          LogLevel::kWarn, "failover", "failover",
          {obs::field("site", partition_),
           obs::field("replica", static_cast<std::uint64_t>(active_)),
           obs::field("replicas",
                      static_cast<std::uint64_t>(replicas_.size()))});
      // A replica died mid-query: the recent ring (retries, breaker trips)
      // explains why — preserve it.
      obs::flightRecorder().anomaly("failover");
    }
  }
}

PrepareResponse FailoverSiteHandle::prepare(const PrepareRequest& request) {
  PrepareResponse response =
      withFailover([&](SiteHandle& r) { return r.prepare(request); });
  // A (re-)prepare replaces the session wholesale: restart the log.
  prepared_ = request;
  log_.clear();
  return response;
}

NextCandidateResponse FailoverSiteHandle::nextCandidate(
    const NextCandidateRequest& request) {
  NextCandidateResponse response =
      withFailover([&](SiteHandle& r) { return r.nextCandidate(request); });
  LoggedOp op;
  op.isNext = true;
  op.next = request;
  log_.push_back(std::move(op));
  return response;
}

EvaluateResponse FailoverSiteHandle::evaluate(const EvaluateRequest& request) {
  EvaluateResponse response =
      withFailover([&](SiteHandle& r) { return r.evaluate(request); });
  LoggedOp op;
  op.eval = request;
  log_.push_back(std::move(op));
  return response;
}

ShipAllResponse FailoverSiteHandle::shipAll() {
  // Pure read over bit-identical stores: no session state to replay, but a
  // failover still advances so later session ops use the live replica.
  return withFailover([](SiteHandle& r) { return r.shipAll(); });
}

void FailoverSiteHandle::finishQuery(const FinishQueryRequest& request) {
  // Cleanup, not failover-worthy: dead replicas drop the session with the
  // store, and the callers treat finish as best-effort already.
  active().finishQuery(request);
}

ApplyInsertResponse FailoverSiteHandle::applyInsert(
    const ApplyInsertRequest& request) {
  return active().applyInsert(request);
}

ApplyDeleteResponse FailoverSiteHandle::applyDelete(
    const ApplyDeleteRequest& request) {
  return active().applyDelete(request);
}

RepairDeleteResponse FailoverSiteHandle::repairDelete(
    const RepairDeleteRequest& request) {
  return active().repairDelete(request);
}

void FailoverSiteHandle::replicaAdd(const ReplicaAddRequest& request) {
  active().replicaAdd(request);
}

void FailoverSiteHandle::replicaRemove(const ReplicaRemoveRequest& request) {
  active().replicaRemove(request);
}

FetchTraceResponse FailoverSiteHandle::fetchTrace(
    const FetchTraceRequest& request) {
  // Traces are observability, not answers: read the active replica only.
  return active().fetchTrace(request);
}

std::uint32_t FailoverSiteHandle::lastAttempts() const noexcept {
  return active().lastAttempts();
}

std::uint64_t FailoverSiteHandle::lastNextSeq() const noexcept {
  return active().lastNextSeq();
}

std::uint64_t FailoverSiteHandle::lastEvalSeq() const noexcept {
  return active().lastEvalSeq();
}

SiteHealth* FailoverSiteHandle::sessionHealth() const noexcept {
  return active().sessionHealth();
}

}  // namespace dsud
