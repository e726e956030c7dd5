// e-DSUD (paper Sec. 5.2).
//
// Like DSUD, but the coordinator additionally maintains, for every queued
// candidate s, an upper bound P*_gsky(s) on its exact global skyline
// probability (see core/bound_queue.hpp for the Observation-2 / Corollary-2
// witness machinery).  A candidate whose bound falls below q is *expunged*
// without its (m−1)-tuple broadcast — the source of e-DSUD's bandwidth
// advantage over DSUD.  Two scheduling policies are provided:
//
//   kEager (default): expunge immediately (sweep to a fixpoint each round),
//   keeping every site stream flowing so strong pruners reach the
//   coordinator early;
//
//   kPark (the paper's Sec. 5.3 walkthrough): stall sub-threshold
//   candidates — and their sites — until no broadcastable candidate
//   remains; the stalled streams may be pruned site-side for free.
//
// Feedback selection among qualified candidates is by largest local skyline
// probability (the strongest pruners first); see DESIGN.md 3.4 and the A2
// ablation for why this beats selection by the bound itself.
#include "core/bound_queue.hpp"
#include "core/query_engine.hpp"
#include "core/query_run.hpp"

namespace dsud {

QueryResult QueryEngine::edsudImpl(const QueryConfig& config,
                                   const QueryOptions& options, QueryId id) {
  internal::QueryRun run(*coord_, "edsud", options, id);
  const DimMask mask = config.effectiveMask(coord_->dims());
  const PrepareRequest prep{run.id, config.q, mask, config.prune,
                            config.window};
  const NextCandidateRequest cursor{run.id};

  internal::BoundQueue queue(mask, config.bound);
  const auto pullFrom = [&](SiteId site) {
    if (auto next = run.pull(site, cursor)) {
      queue.add(std::move(*next));
    }
  };
  const auto expunge = [&](std::size_t index) {
    const Candidate victim = queue.take(index);
    {
      obs::TraceSpan span = run.span("expunge");
      span.attr("site", victim.site);
      span.attr("tuple", static_cast<double>(victim.tuple.id));
    }
    ++run.result.stats.expunged;
    pullFrom(victim.site);
  };

  {
    obs::TraceSpan prepare = run.span("prepare");
    run.prepareAll(prep);
    for (const auto& s : run.sessions) {
      pullFrom(s->siteId());
    }
  }

  while (!queue.empty()) {
    const auto round = run.roundScope();

    // Purge candidates whose site died mid-query: they can no longer be
    // broadcast or replaced.  Removing an entry only loses a *witness*,
    // which can only raise the surviving bounds — every expunge after the
    // purge stays provably safe.
    if (!run.dead.empty()) {
      for (std::size_t i = 0; i < queue.size();) {
        if (run.isDead(queue.candidate(i).site)) {
          queue.take(i);
        } else {
          ++i;
        }
      }
      if (queue.empty()) break;
    }

    if (config.expunge == ExpungePolicy::kEager) {
      // Expunge sweep to a fixpoint: replacements pulled for an expunged
      // candidate see all retained witnesses and may be expunged in turn.
      for (std::size_t i = queue.findExpungeable(config.q);
           i != internal::BoundQueue::npos;
           i = queue.findExpungeable(config.q)) {
        expunge(i);
      }
      if (queue.empty()) break;
    }

    const std::size_t best = queue.selectQualified(config.q);
    if (best == internal::BoundQueue::npos) {
      // kPark: every entry is provably unqualified; release one stream.
      expunge(queue.size() - 1);
      continue;
    }

    const Candidate c = queue.take(best);
    double globalSkyProb = 0.0;
    {
      obs::TraceSpan broadcast = run.span("broadcast");
      broadcast.attr("site", c.site);
      broadcast.attr("tuple", static_cast<double>(c.tuple.id));
      globalSkyProb =
          run.evaluateGlobally(c, /*pruneLocal=*/true, mask, config.window);
    }
    queue.confirm(c.tuple, globalSkyProb);
    if (globalSkyProb >= config.q) run.emit(c, globalSkyProb);
    pullFrom(c.site);
  }
  return run.finalize();
}

}  // namespace dsud
