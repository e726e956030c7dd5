// NDJSON load client for the `server` layer (QueryServer over TCP loopback).
//
// The whole client is at most two threads: in the open loop a sender writes
// each request at its due time while a reader polls every connection; in
// the closed loop the reader alone sends the next request on a connection
// as soon as one of that connection's requests completes.
#pragma once

#include <cstdint>
#include <vector>

#include "core/result.hpp"
#include "oracle.hpp"

namespace ladder {

/// What the client saw for one request.  Times are milliseconds since the
/// start of the phase; negative when the event never happened.
struct Outcome {
  enum class Status : std::uint8_t { kPending, kDone, kShed, kFailed };
  Status status = Status::kPending;
  double dueMs = -1.0;  ///< open loop: the schedule; closed loop: the send
  double sentMs = -1.0;
  double ackMs = -1.0;
  double firstAnswerMs = -1.0;
  double doneMs = -1.0;
  /// Engine time from the `done` profile (prepare + execute + finalize),
  /// when the request asked for the profile.
  double engineMs = -1.0;
  AnswerSet answers;  ///< as streamed; sorted by id once complete
  dsud::QueryStats stats;
};

struct LoadResult {
  std::vector<Outcome> outcomes;
  double elapsedS = 0.0;  ///< first send to last terminal line
};

/// Open loop at a fixed `rate`: request i is due at start + i / rate and
/// goes out on connection i % conns, whether or not earlier requests have
/// been answered.
LoadResult runOpenLoop(std::uint16_t port, const std::vector<QuerySpec>& reqs,
                       double rate, std::size_t conns, bool profile);

/// Closed loop: each of `conns` connections keeps `depth` requests
/// outstanding until every request has been sent and answered.
LoadResult runClosedLoop(std::uint16_t port,
                         const std::vector<QuerySpec>& reqs, std::size_t conns,
                         std::size_t depth, bool profile);

}  // namespace ladder
