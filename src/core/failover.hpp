// Replica failover for one partition's query session (ROADMAP item 4).
//
// With replication factor k >= 2 a partition is served by k stores holding
// bit-identical data under the *same* SiteId.  FailoverSiteHandle wraps one
// per-replica session handle per store and presents them as a single
// SiteHandle: operations go to the active replica, and when it fails
// terminally (SiteFailure — retry budget exhausted or breaker open) the
// handle advances to the next replica, *replays the session* onto it, and
// re-issues the failed operation.
//
// Why replay works: site-side session state is a deterministic function of
// the operation sequence — prepare fixes the pending local skyline, each
// nextCandidate pops exactly one entry, each evaluate folds one feedback
// factor.  Replaying the log of *completed* operations (the ones whose
// responses the coordinator already consumed) onto a replica with identical
// data reconstructs the exact cursor position and extSurvival products, so
// the re-issued operation returns byte-for-byte what the dead primary would
// have — zero result loss, invisible to the algorithms above.  Whatever the
// dead store half-applied is irrelevant: nobody will read it.
//
// Only when every replica is exhausted does the SiteFailure propagate, and
// the run degrades (or fails) exactly as a k=1 cluster would.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/site_handle.hpp"
#include "obs/metrics.hpp"

namespace dsud {

class FailoverSiteHandle final : public SiteHandle {
 public:
  /// `replicas` are per-query session handles (openSession results) over the
  /// partition's stores, primary first; all must share the partition's id.
  /// `metrics` (nullable) receives dsud_failovers_total{site}.
  FailoverSiteHandle(SiteId partition,
                     std::vector<std::unique_ptr<SiteHandle>> replicas,
                     obs::MetricsRegistry* metrics = nullptr);

  SiteId siteId() const noexcept override { return partition_; }

  PrepareResponse prepare(const PrepareRequest& request) override;
  NextCandidateResponse nextCandidate(
      const NextCandidateRequest& request) override;
  EvaluateResponse evaluate(const EvaluateRequest& request) override;
  ShipAllResponse shipAll() override;
  void finishQuery(const FinishQueryRequest& request) override;

  ApplyInsertResponse applyInsert(const ApplyInsertRequest&) override;
  ApplyDeleteResponse applyDelete(const ApplyDeleteRequest&) override;
  RepairDeleteResponse repairDelete(const RepairDeleteRequest&) override;
  void replicaAdd(const ReplicaAddRequest&) override;
  void replicaRemove(const ReplicaRemoveRequest&) override;

  FetchTraceResponse fetchTrace(const FetchTraceRequest&) override;

  std::uint32_t lastAttempts() const noexcept override;
  std::uint64_t lastNextSeq() const noexcept override;
  std::uint64_t lastEvalSeq() const noexcept override;
  SiteHealth* sessionHealth() const noexcept override;

  /// Replicas this session has failed away from (0 on the happy path).
  std::uint64_t failovers() const noexcept override { return active_; }

 private:
  SiteHandle& active() const noexcept { return *replicas_[active_]; }
  /// Replays the logged session (prepare + every completed cursor/feedback
  /// op) onto the newly active replica.  No-op before prepare.
  void replayOnto(SiteHandle& replica);
  template <typename Fn>
  auto withFailover(Fn&& fn);

  /// One completed, non-idempotent session operation, in order.
  struct LoggedOp {
    bool isNext = false;  ///< true: nextCandidate; false: evaluate
    NextCandidateRequest next;
    EvaluateRequest eval;
  };

  SiteId partition_;
  std::vector<std::unique_ptr<SiteHandle>> replicas_;
  std::size_t active_ = 0;
  bool needReplay_ = false;  ///< set on failover, cleared after the replay
  std::optional<PrepareRequest> prepared_;
  std::vector<LoggedOp> log_;
  obs::Counter* failoverCounter_ = nullptr;
};

}  // namespace dsud
