// Shared-work batch executor (ROADMAP item 3, tentpole of the sharing
// layer).
//
// N concurrent queries over one cluster used to mean N independent PR-tree
// descents even when they differed only by threshold.  A QueryEngine::run
// with QueryOptions::batching enabled joins a group for a short batching
// window; compatible queries arriving inside the window — same algorithm,
// effective mask, constraint window, prune/bound/expunge knobs, and fault
// handling; ANY thresholds q1 <= q2 <= ... — merge into it.  The group runs
// as a single engine session at the loosest threshold min(q_i), and each
// member's answer is split back out coordinator-side by filtering the
// shared answer stream to globalSkyProb >= q_i.
//
// The executor owns no thread.  The caller that opens a group leads it: it
// waits until the window expires or the group holds maxMerge members, then
// runs the shared descent on its own thread and resolves every member.
// Followers block inside their own run call until the leader resolves
// them, so a group exists only while its leader is inside run.
//
// Why the split is exact: for share-eligible configurations (see
// shareEligible in query_engine.hpp) the emission order is q-invariant and
// every answer's P_gsky is computed by the same site-order survival
// product, so the filtered stream is bit-identical — content, order, and
// probabilities — to a solo run at q_i.  Member progress callbacks fire
// live from the leader's thread with per-member renumbered sequence
// numbers; member stats report the shared descent's totals.
//
// The leader runs through QueryEngine::dispatch, so a result-cache hit
// resolves a whole group without any descent at all.
#pragma once

#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "core/result.hpp"
#include "obs/metrics.hpp"

namespace dsud {

class QueryEngine;

/// One engine's batching window.  Thread-safe.
class BatchExecutor {
 public:
  /// `metrics` may be null.  The merge counters are registered up front so
  /// they expose as zero series from the first scrape.
  BatchExecutor(QueryEngine& engine, obs::MetricsRegistry* metrics);

  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  /// Joins (or opens and leads) a group for this query and blocks until its
  /// answer is ready.  The group runs when its window expires or it reaches
  /// maxMerge members; with a zero window its leader runs at once.
  QueryResult run(Algo algo, const QueryConfig& config,
                  const QueryOptions& options, QueryId id);

 private:
  using Clock = std::chrono::steady_clock;

  struct Member {
    QueryId id = kNoQuery;
    double q = 0.0;
    ProgressCallback progress;
    std::shared_ptr<std::atomic<bool>> cancel;
    std::promise<QueryResult> promise;
  };

  struct Group {
    Algo algo = Algo::kEdsud;
    QueryConfig config;    ///< first member's; q is rewritten at flush
    QueryOptions options;  ///< leader template (fault, tracing)
    std::size_t maxMerge = 64;
    std::vector<Member> members;
    std::condition_variable full;  ///< wakes the leader at maxMerge
  };

  bool compatible(const Group& group, Algo algo, const QueryConfig& config,
                  const QueryOptions& options) const;
  /// Counts the flush, runs the shared descent and resolves every member:
  /// cancelled members with QueryCancelled, errors fanned out to all.
  /// Runs on the leader's thread without the executor mutex.
  void runGroup(Group& group);

  QueryEngine* engine_;
  obs::Counter* merged_ = nullptr;    ///< members beyond the first, per flush
  obs::Counter* flushes_ = nullptr;   ///< groups executed
  obs::Histogram* width_ = nullptr;   ///< members per flushed group

  std::mutex mutex_;
  /// Groups still taking members; each lives on its leader's stack.
  std::vector<Group*> open_;
};

}  // namespace dsud
