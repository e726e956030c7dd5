// Branch-and-bound probabilistic skyline over the PR-tree (paper Sec. 6.2).
//
// Best-first traversal in ascending L1 key (the paper's "mindist to the
// origin"), with subtree pruning by the threshold rule: a node e can be
// skipped when
//
//     P₂(e) · Π_{t' ≺ e.mbr.lo} (1 − P(t'))  <  q
//
// which generalises the paper's single-witness rule (P₂(b)·(1−P(a)) < q) to
// *all* known dominators of the node's low corner, computed in one aggregate
// descent.  A tuple of a surviving leaf is then bounded by
//
//     P(t) · Π_{t' ≺ e.mbr.lo} (1 − P(t')) · Π_{s in e, s ≺ t} (1 − P(s))
//
// (the two dominator sets are disjoint: no leaf member dominates its own
// leaf's low corner), and each tuple that passes the in-leaf bound gets its
// exact skyline probability from a dominance-survival query, so the
// returned set is exactly {t : P_sky(t, D) >= q} — no approximation is
// introduced by pruning.
#pragma once

#include <functional>
#include <span>

#include "index/prtree.hpp"
#include "skyline/skyline_result.hpp"
#include "skyline/spec.hpp"

namespace dsud {

/// Counters describing how much work a BBS run performed (for benches and
/// pruning-effectiveness tests).
struct BbsStats {
  std::size_t nodesVisited = 0;
  std::size_t nodesPruned = 0;
  std::size_t tuplesEvaluated = 0;  ///< tuples given the exact survival query
};

/// Qualified probabilistic skyline of the indexed database, sorted by
/// descending skyline probability.  A non-null `spec.clip` restricts the
/// query to the window (constrained skyline, Wu et al.): only tuples inside
/// the window are candidates AND only in-window dominators count.
std::vector<ProbSkylineEntry> bbsSkyline(const PRTree& tree,
                                         const SkylineSpec& spec = {},
                                         BbsStats* stats = nullptr);

/// Streaming variant: invokes `emit` for each qualified tuple in ascending
/// L1-key order (the BBS progressive order).  Returning false from `emit`
/// stops the traversal early.
void bbsSkylineStream(
    const PRTree& tree, const SkylineSpec& spec,
    const std::function<bool(const ProbSkylineEntry&)>& emit);

/// bbsSkylineStream restricted to the tuples that `point` dominates on
/// `spec.mask` — the region a deleted tuple leaves to repair (paper
/// Sec. 5.4).  Emits exactly the full-space stream's entries that `point`
/// dominates, in the same order and with bit-identical skyProb, but descends
/// only into subtrees that reach the region and bounds each one at the
/// clipped corner max(mbr.lo, point).  `point` must have tree.dims()
/// values (std::invalid_argument otherwise).
void bbsSkylineDominatedBy(
    const PRTree& tree, const SkylineSpec& spec, std::span<const double> point,
    const std::function<bool(const ProbSkylineEntry&)>& emit,
    BbsStats* stats = nullptr);

}  // namespace dsud
