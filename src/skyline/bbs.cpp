#include "skyline/bbs.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <variant>
#include <vector>

namespace dsud {
namespace {

struct HeapItem {
  double key;  // L1 key of the node MBR / tuple
  std::variant<PRTree::NodeRef, PRTree::LeafEntry> payload;
};

/// Min-heap on the key.  At equal keys nodes pop before tuples and tuples
/// pop in id order, so tuples are emitted in (key, id) order whichever
/// subtrees a traversal pruned: a node's key never exceeds its tuples'.
struct HeapCompare {
  bool operator()(const HeapItem& a, const HeapItem& b) const noexcept {
    if (a.key != b.key) return a.key > b.key;
    const auto* ea = std::get_if<PRTree::LeafEntry>(&a.payload);
    const auto* eb = std::get_if<PRTree::LeafEntry>(&b.payload);
    if (ea == nullptr || eb == nullptr) return ea != nullptr;
    return ea->id > eb->id;
  }
};

double tupleL1Key(const PRTree::LeafEntry& e, std::size_t dims) noexcept {
  double s = 0.0;
  for (std::size_t j = 0; j < dims; ++j) s += e.values[j];
  return s;
}

/// Survival of the dominators of the clipped corner max(lo, point): the
/// tuples of `node` inside the dominance region of `point` all lie at or
/// above it, so every dominator of the corner dominates each of them.
double regionCornerSurvival(const PRTree& tree, const PRTree::NodeRef& node,
                            std::span<const double> point, DimMask mask,
                            const Rect* clip) {
  std::array<double, kMaxDims> corner{};
  const Rect& mbr = node.mbr();
  for (std::size_t j = 0; j < point.size(); ++j) {
    corner[j] = std::max(mbr.lo(j), point[j]);
  }
  return tree.dominanceSurvival({corner.data(), point.size()}, mask, clip);
}

/// A leaf tuple is skipped only when its bound falls below q by more than
/// this relative slack.  The bound multiplies a product-space corner
/// survival by a log-space in-leaf exponent, while the exact query
/// multiplies all factors in product space, so the two may round apart by
/// a few ulps per factor; a tuple whose exact P_sky equals q must never be
/// lost to that.
constexpr double kBoundSlack = 1e-9;

/// False when no point of `mbr` can be dominated by `point`: the MBR ends
/// below it on some selected dimension.
bool reachesRegion(const Rect& mbr, std::span<const double> point,
                   DimMask mask) noexcept {
  for (std::size_t j = 0; j < point.size(); ++j) {
    if ((mask >> j & 1u) != 0 && mbr.hi(j) < point[j]) return false;
  }
  return true;
}

/// Best-first BBS.  With kRegion the search is restricted to the tuples
/// `point` dominates: subtrees outside that region are skipped, kept ones are
/// bounded at their clipped corner, and only dominated tuples are candidates.
/// Dominators still come from the whole tree, so every emitted skyProb is
/// the one the full-space search computes.
template <bool kRegion, typename Emit>
void traverse(const PRTree& tree, const SkylineSpec& spec,
              std::span<const double> point, BbsStats* stats,
              const Emit& emit) {
  if (tree.empty()) return;
  const std::size_t dims = tree.dims();
  const DimMask mask = effectiveMask(spec.mask, dims);
  const double q = spec.q;
  const Rect* clip = spec.clip;

  // Subtrees that miss the region are never pushed, so they cost no visit.
  const auto reaches = [&](const PRTree::NodeRef& node) {
    if constexpr (kRegion) {
      if (!reachesRegion(node.mbr(), point, mask)) {
        if (stats != nullptr) ++stats->nodesPruned;
        return false;
      }
    }
    return true;
  };

  std::vector<double> exponents(tree.options().maxEntries);
  std::priority_queue<HeapItem, std::vector<HeapItem>, HeapCompare> heap;
  if (!reaches(tree.root())) return;
  heap.push(HeapItem{tree.root().mbr().l1Key(), tree.root()});

  while (!heap.empty()) {
    const HeapItem item = heap.top();
    heap.pop();

    if (const auto* entry = std::get_if<PRTree::LeafEntry>(&item.payload)) {
      if (stats != nullptr) ++stats->tuplesEvaluated;
      const double skyProb =
          entry->prob *
          tree.dominanceSurvival(entry->valueSpan(dims), mask, clip);
      if (skyProb >= q) {
        ProbSkylineEntry out;
        out.id = entry->id;
        out.values.assign(entry->values.begin(),
                          entry->values.begin() +
                              static_cast<std::ptrdiff_t>(dims));
        out.prob = entry->prob;
        out.skyProb = skyProb;
        if (!emit(out)) return;
      }
      continue;
    }

    const auto node = std::get<PRTree::NodeRef>(item.payload);
    if (stats != nullptr) ++stats->nodesVisited;
    if (clip != nullptr && !node.mbr().intersects(*clip)) {
      if (stats != nullptr) ++stats->nodesPruned;
      continue;
    }
    // Survival of the tuples guaranteed to dominate every candidate under
    // the node; times P₂ it bounds their P_sky.
    const double survival =
        kRegion ? regionCornerSurvival(tree, node, point, mask, clip)
                : tree.dominanceSurvival(node.mbr().loSpan(), mask, clip);
    if (node.pMax() * survival < q) {
      if (stats != nullptr) ++stats->nodesPruned;
      continue;
    }
    if (node.isLeaf()) {
      // Per-tuple bound before the exact query at pop time:
      // P(t) · survival · Π_{s in this leaf, s ≺ t} (1 − P(s)).  No leaf
      // member dominates the leaf's own low corner, so the in-leaf
      // dominators are disjoint from the corner's and both sets dominate t.
      // Under a window that splits the leaf an in-leaf dominator may lie
      // outside it and not count; in a region search a leaf member may
      // dominate the clipped corner and be counted twice.  Both fall back
      // to P(t) · survival.
      const bool leafFactor =
          !kRegion && (clip == nullptr || clip->containsRect(node.mbr()));
      if (leafFactor) node.leafSurvivalExponents(mask, exponents);
      for (std::size_t i = 0; i < node.fanout(); ++i) {
        const PRTree::LeafEntry e = node.entry(i);
        if (clip != nullptr && !clip->containsPoint(e.valueSpan(dims))) {
          continue;  // outside the constraint window: not a candidate
        }
        if constexpr (kRegion) {
          if (!dominates(point, e.valueSpan(dims), mask)) continue;
        }
        const double bound = e.prob * survival *
                             (leafFactor ? std::exp(exponents[i]) : 1.0);
        if (bound < q * (1.0 - kBoundSlack)) continue;
        heap.push(HeapItem{tupleL1Key(e, dims), e});
      }
    } else {
      for (std::size_t i = 0; i < node.fanout(); ++i) {
        const PRTree::NodeRef child = node.child(i);
        if (reaches(child)) heap.push(HeapItem{child.mbr().l1Key(), child});
      }
    }
  }
}

}  // namespace

std::vector<ProbSkylineEntry> bbsSkyline(const PRTree& tree,
                                         const SkylineSpec& spec,
                                         BbsStats* stats) {
  std::vector<ProbSkylineEntry> result;
  traverse<false>(tree, spec, {}, stats, [&](const ProbSkylineEntry& e) {
    result.push_back(e);
    return true;
  });
  sortBySkylineProbability(result);
  return result;
}

void bbsSkylineStream(
    const PRTree& tree, const SkylineSpec& spec,
    const std::function<bool(const ProbSkylineEntry&)>& emit) {
  traverse<false>(tree, spec, {}, nullptr, emit);
}

void bbsSkylineDominatedBy(
    const PRTree& tree, const SkylineSpec& spec, std::span<const double> point,
    const std::function<bool(const ProbSkylineEntry&)>& emit,
    BbsStats* stats) {
  if (point.size() != tree.dims()) {
    throw std::invalid_argument("bbsSkylineDominatedBy: bad dimensionality");
  }
  traverse<true>(tree, spec, point, stats, emit);
}

}  // namespace dsud
