// What the benchmark asks, and the centralised answers it checks against.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/dataset.hpp"
#include "common/rng.hpp"
#include "core/query_engine.hpp"
#include "core/updates.hpp"
#include "gen/synthetic.hpp"
#include "geometry/rect.hpp"

namespace ladder {

/// One query of a workload stream, independent of how it is sent.
struct QuerySpec {
  bool topk = false;
  dsud::Algo algo = dsud::Algo::kDsud;
  double q = 0.3;     ///< threshold; the enumeration floor for top-k
  std::size_t k = 0;  ///< top-k only
  dsud::DimMask mask = 0;
  std::optional<dsud::Rect> window;
  /// Index of the repeating shape this query belongs to, or kFresh for a
  /// one-off query.  Repeats of one shape must cost exactly the same.
  std::uint32_t shape = 0;
  static constexpr std::uint32_t kFresh = ~0u;
};

struct Answer {
  dsud::TupleId id = 0;
  double prob = 0.0;
};
/// Answers sorted by tuple id.
using AnswerSet = std::vector<Answer>;

AnswerSet toAnswerSet(const std::vector<dsud::GlobalSkylineEntry>& entries);

/// Exact centralised answer by a pruned linear scan: tuples sorted by their
/// coordinate sum on the query's dimensions, each scanned against every
/// tuple that could dominate it until its survival product falls clearly
/// below q.  Tuples that can qualify are scanned in full, so their
/// probabilities are exact.  The result keeps borderline tuples (within
/// kProbTolerance of q) so matches() can accept either verdict on them.
AnswerSet exactAnswer(const dsud::Dataset& global, const QuerySpec& spec);

/// The library's reference scan (linearSkyline), in the same form.
AnswerSet linearAnswer(const dsud::Dataset& global, const QuerySpec& spec);

inline constexpr double kProbTolerance = 1e-9;

/// True when `got` is the answer `want` (from exactAnswer/linearAnswer)
/// describes: same tuples, probabilities within kProbTolerance.
bool matches(const AnswerSet& got, const AnswerSet& want,
             const QuerySpec& spec);

/// A seeded insert/delete stream, one of each in every pair of events, whose
/// deletes always hit live tuples (planned against a mirror of the site
/// contents, as fig14 does).
/// Inserted tuples follow the data's own value distribution and the
/// generator's default existence probabilities.
std::vector<dsud::UpdateEvent> makeUpdates(
    const std::vector<dsud::Dataset>& parts, std::size_t count,
    dsud::ValueDistribution dist, dsud::Rng& rng);

/// Union of the site databases, the oracle's view of the global data.
dsud::Dataset unionOf(const std::vector<dsud::Dataset>& parts);

/// Applies one update to the global mirror.
void applyToMirror(dsud::Dataset& mirror, const dsud::UpdateEvent& event);

}  // namespace ladder
