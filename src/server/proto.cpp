#include "server/proto.hpp"

#include <cmath>
#include <limits>

namespace dsud::server {

namespace {

/// Caps on client-chosen strings so a hostile request cannot balloon the
/// server's per-query bookkeeping.
constexpr std::size_t kMaxIdBytes = 128;
constexpr std::size_t kMaxTenantBytes = 64;

[[noreturn]] void bad(const std::string& message) {
  throw ProtoError(ErrorCode::kBadRequest, message);
}

// --- Field accessors -------------------------------------------------------
//
// Every accessor validates kind and range and names the field in its error,
// so a client sees `q must be a number in [0, 1]`, not a JSON stack trace.
// Unknown fields are deliberately never rejected.

const Json& require(const Json& obj, std::string_view key) {
  const Json* v = obj.find(key);
  if (v == nullptr) bad("missing required field '" + std::string(key) + "'");
  return *v;
}

std::string getString(const Json& obj, std::string_view key,
                      std::string fallback, std::size_t maxBytes) {
  const Json* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (!v->isString()) bad("'" + std::string(key) + "' must be a string");
  if (v->asString().size() > maxBytes) {
    bad("'" + std::string(key) + "' exceeds " + std::to_string(maxBytes) +
        " bytes");
  }
  return v->asString();
}

double getNumber(const Json& obj, std::string_view key, double fallback,
                 double lo, double hi) {
  const Json* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (!v->isNumber()) bad("'" + std::string(key) + "' must be a number");
  const double d = v->asNumber();
  if (d < lo || d > hi) {
    bad("'" + std::string(key) + "' out of range [" + std::to_string(lo) +
        ", " + std::to_string(hi) + "]");
  }
  return d;
}

std::uint64_t getUint(const Json& obj, std::string_view key,
                      std::uint64_t fallback, std::uint64_t hi) {
  const Json* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (!v->isNumber()) bad("'" + std::string(key) + "' must be a number");
  const double d = v->asNumber();
  // Order matters: static_cast<double>(hi) rounds UINT64_MAX up to 2^64, so
  // a plain `d > (double)hi` would accept exactly 18446744073709551616 and
  // make the cast below undefined.  Rejecting everything >= 2^64 first keeps
  // the cast defined; the final compare then runs exactly, in integer space.
  if (d < 0 || d != std::floor(d) || d >= std::ldexp(1.0, 64) ||
      static_cast<std::uint64_t>(d) > hi) {
    bad("'" + std::string(key) + "' must be an integer in [0, " +
        std::to_string(hi) + "]");
  }
  return static_cast<std::uint64_t>(d);
}

bool getBool(const Json& obj, std::string_view key, bool fallback) {
  const Json* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (!v->isBool()) bad("'" + std::string(key) + "' must be a boolean");
  return v->asBool();
}

Algo algoFromName(const std::string& name) {
  if (name == "edsud") return Algo::kEdsud;
  if (name == "dsud") return Algo::kDsud;
  if (name == "naive") return Algo::kNaive;
  bad("unknown algo '" + name + "' (expected edsud|dsud|naive)");
}

Priority priorityFromJson(const Json& obj) {
  const Json* v = obj.find("priority");
  if (v == nullptr) return Priority::kNormal;
  if (!v->isString()) bad("'priority' must be \"high\"|\"normal\"|\"low\"");
  const std::string& s = v->asString();
  if (s == "high") return Priority::kHigh;
  if (s == "normal") return Priority::kNormal;
  if (s == "low") return Priority::kLow;
  bad("unknown priority '" + s + "' (expected high|normal|low)");
}

std::optional<Rect> windowFromJson(const Json& obj) {
  const Json* v = obj.find("window");
  if (v == nullptr || v->isNull()) return std::nullopt;
  if (!v->isObject()) bad("'window' must be an object {lo:[...], hi:[...]}");
  const Json& lo = require(*v, "lo");
  const Json& hi = require(*v, "hi");
  if (!lo.isArray() || !hi.isArray() ||
      lo.asArray().size() != hi.asArray().size() || lo.asArray().empty()) {
    bad("'window' lo/hi must be equal-length non-empty arrays");
  }
  Rect rect;
  try {
    rect = Rect(lo.asArray().size());
  } catch (const std::invalid_argument& e) {
    bad(std::string("'window': ") + e.what());
  }
  std::vector<double> corner(lo.asArray().size());
  for (std::size_t j = 0; j < corner.size(); ++j) {
    if (!lo.asArray()[j].isNumber()) bad("'window' lo must hold numbers");
    corner[j] = lo.asArray()[j].asNumber();
  }
  rect.expand(corner);
  for (std::size_t j = 0; j < corner.size(); ++j) {
    if (!hi.asArray()[j].isNumber()) bad("'window' hi must hold numbers");
    const double h = hi.asArray()[j].asNumber();
    if (h < rect.lo(j)) bad("'window' needs lo <= hi per dimension");
    corner[j] = h;
  }
  rect.expand(corner);
  return rect;
}

Json windowToJson(const Rect& rect) {
  Json lo = Json::array();
  Json hi = Json::array();
  for (std::size_t j = 0; j < rect.dims(); ++j) {
    lo.push(rect.lo(j));
    hi.push(rect.hi(j));
  }
  Json out = Json::object();
  out.set("lo", std::move(lo));
  out.set("hi", std::move(hi));
  return out;
}

Json tupleToJson(const Tuple& t) {
  Json values = Json::array();
  for (const double v : t.values) values.push(v);
  Json out = Json::object();
  out.set("id", t.id);
  out.set("prob", t.prob);
  out.set("values", std::move(values));
  return out;
}

Tuple tupleFromJson(const Json& v) {
  if (!v.isObject()) bad("'tuple' must be an object");
  Tuple t;
  t.id = getUint(v, "id", 0, std::numeric_limits<std::uint64_t>::max());
  t.prob = getNumber(v, "prob", 0.0, 0.0, 1.0);
  const Json& values = require(v, "values");
  if (!values.isArray()) bad("'tuple.values' must be an array");
  t.values.reserve(values.asArray().size());
  for (const Json& x : values.asArray()) {
    if (!x.isNumber()) bad("'tuple.values' must hold numbers");
    t.values.push_back(x.asNumber());
  }
  return t;
}

AdminAction adminActionFromName(const std::string& name) {
  if (name == "add-site") return AdminAction::kAddSite;
  if (name == "remove-site") return AdminAction::kRemoveSite;
  if (name == "rebalance") return AdminAction::kRebalance;
  if (name == "topology") return AdminAction::kTopology;
  bad("unknown action '" + name +
      "' (expected add-site|remove-site|rebalance|topology)");
}

Json partitionToJson(const PartitionDesc& partition) {
  Json hosts = Json::array();
  for (const SiteId host : partition.hosts) {
    hosts.push(static_cast<std::uint64_t>(host));
  }
  Json out = Json::object();
  out.set("id", static_cast<std::uint64_t>(partition.id));
  out.set("hosts", std::move(hosts));
  return out;
}

PartitionDesc partitionFromJson(const Json& v) {
  if (!v.isObject()) bad("'partitions' must hold objects");
  PartitionDesc partition;
  partition.id = static_cast<SiteId>(
      getUint(v, "id", 0, std::numeric_limits<SiteId>::max()));
  const Json& hosts = require(v, "hosts");
  if (!hosts.isArray()) bad("'partitions[].hosts' must be an array");
  for (const Json& host : hosts.asArray()) {
    if (!host.isNumber()) bad("'partitions[].hosts' must hold site ids");
    partition.hosts.push_back(static_cast<SiteId>(host.asNumber()));
  }
  return partition;
}

Json profileToJson(const QueryProfile& profile) {
  Json phases = Json::object();
  phases.set("prepare_s", profile.prepareSeconds);
  phases.set("execute_s", profile.executeSeconds);
  phases.set("finalize_s", profile.finalizeSeconds);
  Json sites = Json::array();
  for (const SiteProfile& s : profile.sites) {
    Json site = Json::object();
    site.set("site", static_cast<std::uint64_t>(s.site));
    site.set("rounds", s.rounds);
    site.set("round_trips", s.roundTrips);
    site.set("tuples", s.tuples);
    site.set("bytes", s.bytes);
    site.set("candidates", s.candidates);
    site.set("pruned", s.pruned);
    site.set("retries", s.retries);
    site.set("failovers", s.failovers);
    site.set("dead", s.dead);
    sites.push(std::move(site));
  }
  Json out = Json::object();
  out.set("algo", profile.algo);
  out.set("cache", profile.cache);
  out.set("batch", profile.batch);
  out.set("batch_width", profile.batchWidth);
  out.set("failovers", profile.failovers);
  out.set("phases", std::move(phases));
  out.set("sites", std::move(sites));
  return out;
}

QueryProfile profileFromJson(const Json& v) {
  if (!v.isObject()) bad("'profile' must be an object");
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  constexpr double kMaxD = std::numeric_limits<double>::max();
  QueryProfile profile;
  profile.algo = getString(v, "algo", "", 16);
  profile.cache = getString(v, "cache", "bypass", 16);
  profile.batch = getString(v, "batch", "solo", 16);
  profile.batchWidth = getUint(v, "batch_width", 1, kMax);
  profile.failovers = getUint(v, "failovers", 0, kMax);
  if (const Json* phases = v.find("phases"); phases != nullptr) {
    if (!phases->isObject()) bad("'profile.phases' must be an object");
    profile.prepareSeconds = getNumber(*phases, "prepare_s", 0.0, 0.0, kMaxD);
    profile.executeSeconds = getNumber(*phases, "execute_s", 0.0, 0.0, kMaxD);
    profile.finalizeSeconds =
        getNumber(*phases, "finalize_s", 0.0, 0.0, kMaxD);
  }
  if (const Json* sites = v.find("sites"); sites != nullptr) {
    if (!sites->isArray()) bad("'profile.sites' must be an array");
    for (const Json& s : sites->asArray()) {
      if (!s.isObject()) bad("'profile.sites' must hold objects");
      SiteProfile site;
      site.site = static_cast<SiteId>(
          getUint(s, "site", 0, std::numeric_limits<SiteId>::max()));
      site.rounds = getUint(s, "rounds", 0, kMax);
      site.roundTrips = getUint(s, "round_trips", 0, kMax);
      site.tuples = getUint(s, "tuples", 0, kMax);
      site.bytes = getUint(s, "bytes", 0, kMax);
      site.candidates = getUint(s, "candidates", 0, kMax);
      site.pruned = getUint(s, "pruned", 0, kMax);
      site.retries = getUint(s, "retries", 0, kMax);
      site.failovers = getUint(s, "failovers", 0, kMax);
      site.dead = getBool(s, "dead", false);
      profile.sites.push_back(std::move(site));
    }
  }
  return profile;
}

Json parseLine(std::string_view line) {
  try {
    Json doc = Json::parse(line);
    if (!doc.isObject()) bad("message must be a JSON object");
    return doc;
  } catch (const JsonError& e) {
    bad(std::string("malformed JSON: ") + e.what());
  }
}

}  // namespace

const char* errorCodeName(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kUnknownOp: return "unknown_op";
    case ErrorCode::kOversized: return "oversized";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kUnavailable: return "unavailable";
    case ErrorCode::kCancelled: return "cancelled";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

std::optional<ErrorCode> errorCodeFromName(std::string_view name) noexcept {
  for (const ErrorCode code :
       {ErrorCode::kBadRequest, ErrorCode::kUnknownOp, ErrorCode::kOversized,
        ErrorCode::kOverloaded, ErrorCode::kUnavailable, ErrorCode::kCancelled,
        ErrorCode::kInternal}) {
    if (name == errorCodeName(code)) return code;
  }
  return std::nullopt;
}

const char* adminActionName(AdminAction action) noexcept {
  switch (action) {
    case AdminAction::kAddSite: return "add-site";
    case AdminAction::kRemoveSite: return "remove-site";
    case AdminAction::kRebalance: return "rebalance";
    case AdminAction::kTopology: return "topology";
  }
  return "topology";
}

const char* priorityName(Priority p) noexcept {
  switch (p) {
    case Priority::kHigh: return "high";
    case Priority::kNormal: return "normal";
    case Priority::kLow: return "low";
  }
  return "normal";
}

// ---------------------------------------------------------------------------
// Requests

Request decodeRequest(std::string_view line) {
  const Json doc = parseLine(line);
  const Json* op = doc.find("op");
  if (op == nullptr || !op->isString()) {
    bad("missing required string field 'op'");
  }
  const std::string& name = op->asString();
  if (name == "ping") return PingRequest{};
  if (name == "stats") return StatsRequest{};
  if (name == "cancel") {
    CancelRequest r;
    r.id = getString(doc, "id", "", kMaxIdBytes);
    if (r.id.empty()) bad("cancel needs a non-empty 'id'");
    return r;
  }
  if (name == "admin") {
    AdminRequest r;
    r.id = getString(doc, "id", "", kMaxIdBytes);
    if (r.id.empty()) bad("admin needs a non-empty 'id'");
    r.action = adminActionFromName(getString(doc, "action", "", 16));
    if (r.action == AdminAction::kRemoveSite) {
      if (doc.find("site") == nullptr) bad("remove-site needs a 'site'");
      r.site = static_cast<SiteId>(
          getUint(doc, "site", 0, std::numeric_limits<SiteId>::max()));
    }
    return r;
  }
  if (name == "query") {
    QueryRequest r;
    r.id = getString(doc, "id", "", kMaxIdBytes);
    if (r.id.empty()) bad("query needs a non-empty 'id'");
    r.algo = algoFromName(getString(doc, "algo", "edsud", 16));
    r.k = static_cast<std::size_t>(getUint(doc, "k", 0, 1u << 20));
    // One threshold field serves both modes: `q` is the threshold of a
    // threshold query and the enumeration floor of a top-k one (the
    // request may also spell the latter `floor_q`).
    r.q = getNumber(doc, "q", r.k > 0 ? 1e-3 : 0.3, 0.0, 1.0);
    r.q = getNumber(doc, "floor_q", r.q, 0.0, 1.0);
    r.mask = static_cast<DimMask>(
        getUint(doc, "mask", 0, std::numeric_limits<DimMask>::max()));
    r.window = windowFromJson(doc);
    r.tenant = getString(doc, "tenant", "default", kMaxTenantBytes);
    if (r.tenant.empty()) bad("'tenant' must be non-empty");
    r.priority = priorityFromJson(doc);
    r.deadlineMs =
        static_cast<std::uint32_t>(getUint(doc, "deadline_ms", 0, 3600'000));
    r.retries = static_cast<std::uint32_t>(getUint(doc, "retries", 0, 16));
    const std::string onFailure = getString(doc, "on_failure", "fail", 16);
    if (onFailure == "degrade") {
      r.degrade = true;
    } else if (onFailure != "fail") {
      bad("unknown on_failure '" + onFailure + "' (expected fail|degrade)");
    }
    r.progressive = getBool(doc, "progressive", true);
    r.limit = getUint(doc, "limit", 0, std::numeric_limits<std::uint32_t>::max());
    r.profile = getBool(doc, "profile", false);
    return r;
  }
  throw ProtoError(ErrorCode::kUnknownOp, "unknown op '" + name + "'");
}

std::string encodeRequest(const QueryRequest& request) {
  Json doc = Json::object();
  doc.set("op", "query");
  doc.set("id", request.id);
  if (request.k > 0) {
    doc.set("k", request.k);
    doc.set("floor_q", request.q);
  } else {
    doc.set("algo", algoName(request.algo));
    doc.set("q", request.q);
  }
  if (request.mask != 0) doc.set("mask", static_cast<std::uint64_t>(request.mask));
  if (request.window) doc.set("window", windowToJson(*request.window));
  if (request.tenant != "default") doc.set("tenant", request.tenant);
  if (request.priority != Priority::kNormal) {
    doc.set("priority", priorityName(request.priority));
  }
  if (request.deadlineMs != 0) doc.set("deadline_ms", request.deadlineMs);
  if (request.retries != 0) doc.set("retries", request.retries);
  if (request.degrade) doc.set("on_failure", "degrade");
  if (!request.progressive) doc.set("progressive", false);
  if (request.limit != 0) doc.set("limit", request.limit);
  if (request.profile) doc.set("profile", true);
  return doc.dump();
}

std::string encodeRequest(const PingRequest&) {
  return R"({"op":"ping"})";
}

std::string encodeRequest(const CancelRequest& request) {
  Json doc = Json::object();
  doc.set("op", "cancel");
  doc.set("id", request.id);
  return doc.dump();
}

std::string encodeRequest(const StatsRequest&) {
  return R"({"op":"stats"})";
}

std::string encodeRequest(const AdminRequest& request) {
  Json doc = Json::object();
  doc.set("op", "admin");
  doc.set("id", request.id);
  doc.set("action", adminActionName(request.action));
  if (request.action == AdminAction::kRemoveSite) {
    doc.set("site", static_cast<std::uint64_t>(request.site));
  }
  return doc.dump();
}

// ---------------------------------------------------------------------------
// Responses

Response decodeResponse(std::string_view line) {
  const Json doc = parseLine(line);
  const Json* type = doc.find("type");
  if (type == nullptr || !type->isString()) {
    bad("missing required string field 'type'");
  }
  const std::string& name = type->asString();
  if (name == "pong") return PongResponse{};
  if (name == "ack") {
    AckResponse r;
    r.id = getString(doc, "id", "", kMaxIdBytes);
    r.query = getUint(doc, "query", 0, std::numeric_limits<QueryId>::max());
    return r;
  }
  if (name == "answer") {
    AnswerResponse r;
    r.id = getString(doc, "id", "", kMaxIdBytes);
    r.seq = getUint(doc, "seq", 0, std::numeric_limits<std::uint64_t>::max());
    r.entry.site = static_cast<SiteId>(
        getUint(doc, "site", 0, std::numeric_limits<SiteId>::max()));
    r.entry.localSkyProb = getNumber(doc, "p_local", 0.0, 0.0, 1.0);
    r.entry.globalSkyProb = getNumber(doc, "p_gsky", 0.0, 0.0, 1.0);
    r.entry.tuple = tupleFromJson(require(doc, "tuple"));
    return r;
  }
  if (name == "done") {
    DoneResponse r;
    r.id = getString(doc, "id", "", kMaxIdBytes);
    r.answers =
        getUint(doc, "answers", 0, std::numeric_limits<std::uint64_t>::max());
    r.degraded = getBool(doc, "degraded", false);
    if (const Json* excluded = doc.find("excluded"); excluded != nullptr) {
      if (!excluded->isArray()) bad("'excluded' must be an array");
      for (const Json& site : excluded->asArray()) {
        if (!site.isNumber()) bad("'excluded' must hold site ids");
        r.excluded.push_back(static_cast<SiteId>(site.asNumber()));
      }
    }
    if (const Json* stats = doc.find("stats"); stats != nullptr) {
      if (!stats->isObject()) bad("'stats' must be an object");
      constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
      r.stats.tuplesShipped = getUint(*stats, "tuples_shipped", 0, kMax);
      r.stats.bytesShipped = getUint(*stats, "bytes_shipped", 0, kMax);
      r.stats.roundTrips = getUint(*stats, "round_trips", 0, kMax);
      r.stats.candidatesPulled =
          static_cast<std::size_t>(getUint(*stats, "candidates_pulled", 0, kMax));
      r.stats.broadcasts =
          static_cast<std::size_t>(getUint(*stats, "broadcasts", 0, kMax));
      r.stats.expunged =
          static_cast<std::size_t>(getUint(*stats, "expunged", 0, kMax));
      r.stats.prunedAtSites =
          static_cast<std::size_t>(getUint(*stats, "pruned_at_sites", 0, kMax));
      r.stats.seconds = getNumber(*stats, "seconds", 0.0, 0.0,
                                  std::numeric_limits<double>::max());
    }
    if (const Json* profile = doc.find("profile"); profile != nullptr) {
      r.profile = profileFromJson(*profile);
    }
    return r;
  }
  if (name == "error") {
    ErrorResponse r;
    r.id = getString(doc, "id", "", kMaxIdBytes);
    const std::string code = getString(doc, "code", "internal", 32);
    const auto parsed = errorCodeFromName(code);
    if (!parsed) bad("unknown error code '" + code + "'");
    r.code = *parsed;
    r.message = getString(doc, "message", "", 4096);
    r.retryAfterMs = static_cast<std::uint32_t>(
        getUint(doc, "retry_after_ms", 0, 3600'000));
    return r;
  }
  if (name == "stats") {
    StatsResponse r;
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    r.active = getUint(doc, "active", 0, kMax);
    r.queued = getUint(doc, "queued", 0, kMax);
    r.admitted = getUint(doc, "admitted", 0, kMax);
    r.shed = getUint(doc, "shed", 0, kMax);
    return r;
  }
  if (name == "admin") {
    AdminResponse r;
    r.id = getString(doc, "id", "", kMaxIdBytes);
    r.epoch = getUint(doc, "epoch", 0,
                      std::numeric_limits<std::uint64_t>::max());
    r.site = static_cast<SiteId>(
        getUint(doc, "site", kNoSite, std::numeric_limits<SiteId>::max()));
    if (const Json* members = doc.find("members"); members != nullptr) {
      if (!members->isArray()) bad("'members' must be an array");
      for (const Json& member : members->asArray()) {
        if (!member.isNumber()) bad("'members' must hold site ids");
        r.members.push_back(static_cast<SiteId>(member.asNumber()));
      }
    }
    if (const Json* partitions = doc.find("partitions");
        partitions != nullptr) {
      if (!partitions->isArray()) bad("'partitions' must be an array");
      for (const Json& partition : partitions->asArray()) {
        r.partitions.push_back(partitionFromJson(partition));
      }
    }
    return r;
  }
  bad("unknown response type '" + name + "'");
}

std::string encodeResponse(const AckResponse& response) {
  Json doc = Json::object();
  doc.set("type", "ack");
  doc.set("id", response.id);
  doc.set("query", response.query);
  return doc.dump();
}

std::string encodeResponse(const AnswerResponse& response) {
  Json doc = Json::object();
  doc.set("type", "answer");
  doc.set("id", response.id);
  doc.set("seq", response.seq);
  doc.set("site", static_cast<std::uint64_t>(response.entry.site));
  doc.set("tuple", tupleToJson(response.entry.tuple));
  doc.set("p_local", response.entry.localSkyProb);
  doc.set("p_gsky", response.entry.globalSkyProb);
  return doc.dump();
}

std::string encodeResponse(const DoneResponse& response) {
  Json doc = Json::object();
  doc.set("type", "done");
  doc.set("id", response.id);
  doc.set("answers", response.answers);
  doc.set("degraded", response.degraded);
  if (!response.excluded.empty()) {
    Json excluded = Json::array();
    for (const SiteId site : response.excluded) {
      excluded.push(static_cast<std::uint64_t>(site));
    }
    doc.set("excluded", std::move(excluded));
  }
  Json stats = Json::object();
  stats.set("tuples_shipped", response.stats.tuplesShipped);
  stats.set("bytes_shipped", response.stats.bytesShipped);
  stats.set("round_trips", response.stats.roundTrips);
  stats.set("candidates_pulled", response.stats.candidatesPulled);
  stats.set("broadcasts", response.stats.broadcasts);
  stats.set("expunged", response.stats.expunged);
  stats.set("pruned_at_sites", response.stats.prunedAtSites);
  stats.set("seconds", response.stats.seconds);
  doc.set("stats", std::move(stats));
  if (response.profile) doc.set("profile", profileToJson(*response.profile));
  return doc.dump();
}

std::string encodeResponse(const ErrorResponse& response) {
  Json doc = Json::object();
  doc.set("type", "error");
  if (!response.id.empty()) doc.set("id", response.id);
  doc.set("code", errorCodeName(response.code));
  doc.set("message", response.message);
  if (response.retryAfterMs != 0) {
    doc.set("retry_after_ms", response.retryAfterMs);
  }
  return doc.dump();
}

std::string encodeResponse(const PongResponse&) {
  return R"({"type":"pong"})";
}

std::string encodeResponse(const StatsResponse& response) {
  Json doc = Json::object();
  doc.set("type", "stats");
  doc.set("active", response.active);
  doc.set("queued", response.queued);
  doc.set("admitted", response.admitted);
  doc.set("shed", response.shed);
  return doc.dump();
}

std::string encodeResponse(const AdminResponse& response) {
  Json doc = Json::object();
  doc.set("type", "admin");
  doc.set("id", response.id);
  doc.set("epoch", response.epoch);
  if (response.site != kNoSite) {
    doc.set("site", static_cast<std::uint64_t>(response.site));
  }
  Json members = Json::array();
  for (const SiteId member : response.members) {
    members.push(static_cast<std::uint64_t>(member));
  }
  doc.set("members", std::move(members));
  Json partitions = Json::array();
  for (const PartitionDesc& partition : response.partitions) {
    partitions.push(partitionToJson(partition));
  }
  doc.set("partitions", std::move(partitions));
  return doc.dump();
}

}  // namespace dsud::server
