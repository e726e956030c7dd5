// The dsudd client protocol: line-delimited JSON over one TCP connection.
//
// Framing: every message is one JSON object on one line, terminated by
// '\n'.  The client sends requests; the server answers each request with
// one or more response lines correlated by the client-chosen `id`.  A
// `query` produces `ack`, zero or more streamed `answer` lines (progressive
// results, in engine emission order), and exactly one terminal line —
// `done` on success or `error` otherwise.  Requests on one connection may
// be pipelined; responses to different queries interleave freely (match on
// `id`).  Unknown JSON fields are ignored so clients can be newer than the
// server; unknown ops and malformed documents get an `error` response and
// the connection stays usable.
//
// This header is the codec only — pure functions between protocol structs
// and wire lines, shared by the daemon (src/server/server.cpp), the
// `dsudctl query --connect` client, and the round-trip tests.  See
// docs/PROTOCOL.md ("Client protocol") for the full schema and error codes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/result.hpp"
#include "core/topology.hpp"
#include "server/json.hpp"

namespace dsud::server {

// ---------------------------------------------------------------------------
// Error codes (stable wire strings; see errorCodeName)

enum class ErrorCode : std::uint8_t {
  kBadRequest,   ///< malformed JSON / schema violation / bad field value
  kUnknownOp,    ///< syntactically valid request with an unrecognised op
  kOversized,    ///< request line exceeded the server's line cap
  kOverloaded,   ///< shed by admission control; retry after `retry_after_ms`
  kUnavailable,  ///< cluster unhealthy (breakers open) or server draining
  kCancelled,    ///< query cancelled (client cancel op or disconnect)
  kInternal,     ///< query failed inside the engine
};

const char* errorCodeName(ErrorCode code) noexcept;
std::optional<ErrorCode> errorCodeFromName(std::string_view name) noexcept;

/// Schema violation discovered while decoding a request/response line.
/// Carries the code the responding `error` line should use.
class ProtoError : public std::runtime_error {
 public:
  ProtoError(ErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

// ---------------------------------------------------------------------------
// Requests (client -> server)

/// Scheduling class of a query; high drains before normal before low when
/// admission queues (see server/admission.hpp).
enum class Priority : std::uint8_t { kHigh = 0, kNormal = 1, kLow = 2 };

const char* priorityName(Priority p) noexcept;

/// `{"op":"query", ...}` — one skyline / top-k / subspace / constrained
/// query.  Maps 1:1 onto QueryConfig / TopKConfig + the QueryOptions fault
/// knobs.
struct QueryRequest {
  std::string id;           ///< client correlation id (required, <= 128 B)
  Algo algo = Algo::kEdsud; ///< ignored when k > 0 (top-k has one algorithm)
  double q = 0.3;           ///< threshold; floor for top-k (`floor_q`)
  std::size_t k = 0;        ///< > 0 switches to the top-k extension
  DimMask mask = 0;         ///< dominance subspace; 0 = all dimensions
  std::optional<Rect> window;  ///< constrained-region skyline
  std::string tenant = "default";
  Priority priority = Priority::kNormal;
  std::uint32_t deadlineMs = 0;  ///< per-RPC deadline (QueryOptions::fault)
  std::uint32_t retries = 0;     ///< extra attempts per RPC
  bool degrade = false;          ///< on_failure: "degrade" instead of "fail"
  bool progressive = true;       ///< stream `answer` lines as answers emit
  std::uint64_t limit = 0;       ///< cap streamed answers (0 = unlimited)
  /// Attach the EXPLAIN/ANALYZE profile block to the `done` response.  The
  /// profile is collected either way; this only controls the wire — answers
  /// are bit-identical with it on or off.
  bool profile = false;

  friend bool operator==(const QueryRequest&, const QueryRequest&) = default;
};

struct PingRequest {
  friend bool operator==(const PingRequest&, const PingRequest&) = default;
};

/// Cancels the in-flight query with the given client id on this connection.
struct CancelRequest {
  std::string id;
  friend bool operator==(const CancelRequest&, const CancelRequest&) = default;
};

/// Server-side admission counters (debugging / load tooling).
struct StatsRequest {
  friend bool operator==(const StatsRequest&, const StatsRequest&) = default;
};

/// Elastic-cluster membership operations (wire strings mirror the `dsudctl
/// admin` subcommands).
enum class AdminAction : std::uint8_t {
  kAddSite,     ///< "add-site": join a fresh member (no data until rebalance)
  kRemoveSite,  ///< "remove-site": drain a member's partitions and drop it
  kRebalance,   ///< "rebalance": repartition the database over the members
  kTopology,    ///< "topology": read-only membership / placement snapshot
};

const char* adminActionName(AdminAction action) noexcept;

/// `{"op":"admin", "action":...}` — one membership operation.  Every action
/// answers with an `admin` response describing the resulting topology;
/// mutating actions run on a worker so a background rebalance never blocks
/// the event loop (queries keep flowing meanwhile).
struct AdminRequest {
  std::string id;  ///< client correlation id (required, <= 128 B)
  AdminAction action = AdminAction::kTopology;
  SiteId site = kNoSite;  ///< required for remove-site; ignored otherwise
  friend bool operator==(const AdminRequest&, const AdminRequest&) = default;
};

using Request = std::variant<QueryRequest, PingRequest, CancelRequest,
                             StatsRequest, AdminRequest>;

/// Decodes one request line (without its '\n').  Throws ProtoError with the
/// code the `error` response should carry: kBadRequest for malformed JSON /
/// schema violations, kUnknownOp for an unrecognised op.
Request decodeRequest(std::string_view line);

std::string encodeRequest(const QueryRequest& request);
std::string encodeRequest(const PingRequest&);
std::string encodeRequest(const CancelRequest& request);
std::string encodeRequest(const StatsRequest&);
std::string encodeRequest(const AdminRequest& request);

// ---------------------------------------------------------------------------
// Responses (server -> client)

/// `{"type":"ack"}` — the query was admitted (possibly after queueing) and
/// assigned an engine session id.
struct AckResponse {
  std::string id;
  QueryId query = kNoQuery;  ///< engine session id (joins server/site traces)
  friend bool operator==(const AckResponse&, const AckResponse&) = default;
};

/// `{"type":"answer"}` — one progressive result, in emission order.
struct AnswerResponse {
  std::string id;
  std::uint64_t seq = 0;  ///< 1-based emission index
  GlobalSkylineEntry entry;
  friend bool operator==(const AnswerResponse&, const AnswerResponse&) =
      default;
};

/// `{"type":"done"}` — the query completed; terminal for its id.
struct DoneResponse {
  std::string id;
  std::uint64_t answers = 0;  ///< total answers (>= streamed `answer` lines)
  bool degraded = false;
  std::vector<SiteId> excluded;
  QueryStats stats;
  /// EXPLAIN/ANALYZE block, present only when the request set `profile`
  /// (see docs/PROTOCOL.md "Profile block").
  std::optional<QueryProfile> profile;
  friend bool operator==(const DoneResponse&, const DoneResponse&) = default;
};

/// `{"type":"error"}` — terminal failure for its id (or a request-level
/// error with an empty id when the line had none).
struct ErrorResponse {
  std::string id;
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  std::uint32_t retryAfterMs = 0;  ///< only meaningful for kOverloaded
  friend bool operator==(const ErrorResponse&, const ErrorResponse&) = default;
};

struct PongResponse {
  friend bool operator==(const PongResponse&, const PongResponse&) = default;
};

struct StatsResponse {
  std::uint64_t active = 0;    ///< admitted queries currently executing
  std::uint64_t queued = 0;    ///< waiting for an admission slot
  std::uint64_t admitted = 0;  ///< lifetime admissions
  std::uint64_t shed = 0;      ///< lifetime load-shed requests
  friend bool operator==(const StatsResponse&, const StatsResponse&) = default;
};

/// `{"type":"admin"}` — the topology after (or, for `topology`, instead of)
/// the requested membership change; terminal for its id.
struct AdminResponse {
  std::string id;
  std::uint64_t epoch = 0;       ///< membership epoch of the reported layout
  std::vector<SiteId> members;   ///< members in ring order
  std::vector<PartitionDesc> partitions;  ///< partitions, ordered by id
  SiteId site = kNoSite;  ///< id of the member just added (add-site only)
  friend bool operator==(const AdminResponse&, const AdminResponse&) = default;
};

using Response =
    std::variant<AckResponse, AnswerResponse, DoneResponse, ErrorResponse,
                 PongResponse, StatsResponse, AdminResponse>;

/// Decodes one response line; throws ProtoError(kBadRequest) on anything
/// that is not a well-formed response object.
Response decodeResponse(std::string_view line);

std::string encodeResponse(const AckResponse& response);
std::string encodeResponse(const AnswerResponse& response);
std::string encodeResponse(const DoneResponse& response);
std::string encodeResponse(const ErrorResponse& response);
std::string encodeResponse(const PongResponse&);
std::string encodeResponse(const StatsResponse& response);
std::string encodeResponse(const AdminResponse& response);

}  // namespace dsud::server
