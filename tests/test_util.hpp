// Shared helpers for the dsud test suites.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <initializer_list>
#include <thread>
#include <vector>

#include "common/dataset.hpp"
#include "core/result.hpp"
#include "skyline/linear_skyline.hpp"

namespace dsud::testutil {

/// Builds a dataset from {values..., prob} rows with sequential ids.
inline Dataset makeDataset(std::size_t dims,
                           std::initializer_list<std::vector<double>> rows) {
  Dataset data(dims);
  for (const auto& row : rows) {
    const std::span<const double> values(row.data(), dims);
    data.add(values, row[dims]);
  }
  return data;
}

/// Union of several local databases into one global database.
inline Dataset unionOf(const std::vector<Dataset>& sites) {
  Dataset global(sites.front().dims());
  for (const Dataset& site : sites) {
    for (std::size_t row = 0; row < site.size(); ++row) {
      const TupleRef t = site.at(row);
      global.add(t.id, t.values, t.prob);
    }
  }
  return global;
}

/// Ground truth: the exact global skyline of the union, via the O(N²) scan.
inline std::vector<ProbSkylineEntry> groundTruth(
    const std::vector<Dataset>& sites, double q, DimMask mask = 0) {
  const Dataset global = unionOf(sites);
  const DimMask effective = mask == 0 ? fullMask(global.dims()) : mask;
  return linearSkyline(global, {.mask = effective, .q = q});
}

/// Ids of a centralised answer set.
inline std::vector<TupleId> idsOf(const std::vector<ProbSkylineEntry>& v) {
  std::vector<TupleId> ids;
  ids.reserve(v.size());
  for (const auto& e : v) ids.push_back(e.id);
  return ids;
}

/// Ids of a distributed answer set (sorted canonically first by caller).
inline std::vector<TupleId> idsOf(const std::vector<GlobalSkylineEntry>& v) {
  std::vector<TupleId> ids;
  ids.reserve(v.size());
  for (const auto& e : v) ids.push_back(e.tuple.id);
  return ids;
}

/// Runs every call on its own thread, as concurrent clients would, and
/// returns each outcome (result or exception) in call order once all are
/// done.
inline std::vector<std::future<QueryResult>> runConcurrently(
    const std::vector<std::function<QueryResult()>>& calls) {
  std::vector<std::promise<QueryResult>> outcomes(calls.size());
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(calls.size());
  for (auto& outcome : outcomes) futures.push_back(outcome.get_future());
  std::vector<std::thread> threads;
  threads.reserve(calls.size());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    threads.emplace_back([&calls, &outcomes, i] {
      try {
        outcomes[i].set_value(calls[i]());
      } catch (...) {
        outcomes[i].set_exception(std::current_exception());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return futures;
}

}  // namespace dsud::testutil
