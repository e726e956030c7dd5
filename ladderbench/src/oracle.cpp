#include "oracle.hpp"

#include <algorithm>
#include <cmath>

#include "gen/probability.hpp"
#include "skyline/linear_skyline.hpp"

namespace ladder {

using namespace dsud;

AnswerSet toAnswerSet(const std::vector<GlobalSkylineEntry>& entries) {
  AnswerSet out;
  out.reserve(entries.size());
  for (const GlobalSkylineEntry& e : entries) {
    out.push_back(Answer{e.tuple.id, e.globalSkyProb});
  }
  std::sort(out.begin(), out.end(),
            [](const Answer& a, const Answer& b) { return a.id < b.id; });
  return out;
}

namespace {

DimMask effectiveMask(const QuerySpec& spec, std::size_t dims) {
  return spec.mask == 0 ? fullMask(dims) : spec.mask;
}

bool dominatesOn(std::span<const double> a, std::span<const double> b,
                 DimMask mask) {
  bool strict = false;
  for (std::size_t j = 0; j < a.size(); ++j) {
    if ((mask & (1u << j)) == 0) continue;
    if (a[j] > b[j]) return false;
    if (a[j] < b[j]) strict = true;
  }
  return strict;
}

}  // namespace

AnswerSet exactAnswer(const Dataset& global, const QuerySpec& spec) {
  const DimMask mask = effectiveMask(spec, global.dims());
  std::vector<std::size_t> rows;
  rows.reserve(global.size());
  for (std::size_t row = 0; row < global.size(); ++row) {
    if (!spec.window || spec.window->containsPoint(global.values(row))) {
      rows.push_back(row);
    }
  }
  // A dominator's coordinate sum is never larger (rounding is monotone), so
  // every dominator of rows[a] sits at a position <= the end of a's tie run.
  std::vector<double> key(global.size(), 0.0);
  for (const std::size_t row : rows) {
    const auto v = global.values(row);
    for (std::size_t j = 0; j < v.size(); ++j) {
      if ((mask & (1u << j)) != 0) key[row] += v[j];
    }
  }
  std::sort(rows.begin(), rows.end(), [&](std::size_t a, std::size_t b) {
    return key[a] < key[b] || (key[a] == key[b] && a < b);
  });

  const double cutoff = spec.q - kProbTolerance;
  AnswerSet out;
  std::size_t tieEnd = 0;
  for (std::size_t a = 0; a < rows.size(); ++a) {
    const std::size_t row = rows[a];
    const double p = global.prob(row);
    if (p < cutoff) continue;
    if (tieEnd <= a) {
      tieEnd = a + 1;
      while (tieEnd < rows.size() && key[rows[tieEnd]] == key[row]) ++tieEnd;
    }
    const auto v = global.values(row);
    double survival = 1.0;
    for (std::size_t b = 0; b < tieEnd && p * survival >= cutoff; ++b) {
      if (b == a) continue;
      if (dominatesOn(global.values(rows[b]), v, mask)) {
        survival *= 1.0 - global.prob(rows[b]);
      }
    }
    if (p * survival >= cutoff) out.push_back(Answer{global.id(row), p * survival});
  }
  std::sort(out.begin(), out.end(),
            [](const Answer& x, const Answer& y) { return x.id < y.id; });
  return out;
}

AnswerSet linearAnswer(const Dataset& global, const QuerySpec& spec) {
  const Rect* clip = spec.window ? &*spec.window : nullptr;
  AnswerSet out;
  for (const ProbSkylineEntry& e : linearSkyline(
           global, {.mask = effectiveMask(spec, global.dims()),
                    .q = spec.q - kProbTolerance,
                    .clip = clip})) {
    out.push_back(Answer{e.id, e.skyProb});
  }
  std::sort(out.begin(), out.end(),
            [](const Answer& x, const Answer& y) { return x.id < y.id; });
  return out;
}

bool matches(const AnswerSet& got, const AnswerSet& want,
             const QuerySpec& spec) {
  if (spec.topk) {
    // The k most probable answers above the floor, ties broken by id.
    AnswerSet best;
    for (const Answer& a : want) {
      if (a.prob >= spec.q) best.push_back(a);
    }
    std::sort(best.begin(), best.end(), [](const Answer& x, const Answer& y) {
      return x.prob > y.prob || (x.prob == y.prob && x.id < y.id);
    });
    if (best.size() > spec.k) best.resize(spec.k);
    std::sort(best.begin(), best.end(),
              [](const Answer& x, const Answer& y) { return x.id < y.id; });
    if (best.size() != got.size()) return false;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (got[i].id != best[i].id ||
          std::abs(got[i].prob - best[i].prob) > kProbTolerance) {
        return false;
      }
    }
    return true;
  }
  // Every answer must be in `want` with its exact probability; every tuple
  // of `want` clearly above q must be answered.  Tuples within the
  // tolerance of q may go either way.
  std::size_t w = 0;
  for (const Answer& g : got) {
    while (w < want.size() && want[w].id < g.id) {
      if (want[w].prob >= spec.q + kProbTolerance) return false;
      ++w;
    }
    if (w == want.size() || want[w].id != g.id ||
        std::abs(want[w].prob - g.prob) > kProbTolerance) {
      return false;
    }
    ++w;
  }
  for (; w < want.size(); ++w) {
    if (want[w].prob >= spec.q + kProbTolerance) return false;
  }
  return true;
}

std::vector<UpdateEvent> makeUpdates(const std::vector<Dataset>& parts,
                                     std::size_t count, ValueDistribution dist,
                                     Rng& rng) {
  std::vector<std::vector<Tuple>> live(parts.size());
  TupleId nextId = 0;
  for (std::size_t s = 0; s < parts.size(); ++s) {
    for (std::size_t row = 0; row < parts[s].size(); ++row) {
      live[s].push_back(parts[s].tuple(row));
      nextId = std::max(nextId, parts[s].id(row) + 1);
    }
  }
  const std::size_t dims = parts.front().dims();
  const ProbSampler prob = uniformProbability();
  std::vector<UpdateEvent> events;
  events.reserve(count);
  bool insertFirst = true;
  for (std::size_t i = 0; i < count; ++i) {
    // Every pair holds one insert and one delete, in random order.
    if (i % 2 == 0) insertFirst = rng.uniform() < 0.5;
    UpdateEvent e;
    if ((i % 2 == 0) == insertFirst) {
      e.kind = UpdateEvent::Kind::kInsert;
      e.site = static_cast<SiteId>(rng.below(parts.size()));
      std::vector<double> values(dims);
      samplePoint(dist, dims, rng, values.data());
      e.tuple = Tuple{nextId++, std::move(values), prob(rng)};
      live[e.site].push_back(e.tuple);
    } else {
      auto site = static_cast<SiteId>(rng.below(parts.size()));
      while (live[site].empty()) {
        site = static_cast<SiteId>(rng.below(parts.size()));
      }
      std::vector<Tuple>& pool = live[site];
      const std::size_t pick = rng.below(pool.size());
      e.kind = UpdateEvent::Kind::kDelete;
      e.site = site;
      e.tuple = std::move(pool[pick]);
      pool[pick] = std::move(pool.back());
      pool.pop_back();
    }
    events.push_back(std::move(e));
  }
  return events;
}

Dataset unionOf(const std::vector<Dataset>& parts) {
  Dataset global(parts.front().dims());
  for (const Dataset& part : parts) {
    for (std::size_t row = 0; row < part.size(); ++row) {
      const TupleRef t = part.at(row);
      global.add(t.id, t.values, t.prob);
    }
  }
  return global;
}

void applyToMirror(Dataset& mirror, const UpdateEvent& event) {
  if (event.kind == UpdateEvent::Kind::kInsert) {
    mirror.add(event.tuple);
  } else {
    mirror.eraseId(event.tuple.id);
  }
}

}  // namespace ladder
