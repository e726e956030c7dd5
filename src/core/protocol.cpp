#include "core/protocol.hpp"

#include <algorithm>

namespace dsud {

void encodeTuple(ByteWriter& w, const Tuple& t) {
  w.putU64(t.id);
  w.putF64(t.prob);
  w.putF64Vector(t.values);
}

Tuple decodeTuple(ByteReader& r) {
  Tuple t;
  t.id = r.getU64();
  t.prob = r.getF64();
  t.values = r.getF64Vector();
  return t;
}

void encodeOptionalRect(ByteWriter& w, const std::optional<Rect>& rect) {
  w.putBool(rect.has_value());
  if (!rect) return;
  w.putU8(static_cast<std::uint8_t>(rect->dims()));
  for (std::size_t j = 0; j < rect->dims(); ++j) w.putF64(rect->lo(j));
  for (std::size_t j = 0; j < rect->dims(); ++j) w.putF64(rect->hi(j));
}

std::optional<Rect> decodeOptionalRect(ByteReader& r) {
  if (!r.getBool()) return std::nullopt;
  const std::uint8_t dims = r.getU8();
  if (dims == 0 || dims > kMaxDims) {
    throw SerializeError("decodeOptionalRect: dims out of range");
  }
  std::array<double, kMaxDims> lo{};
  std::array<double, kMaxDims> hi{};
  for (std::size_t j = 0; j < dims; ++j) lo[j] = r.getF64();
  for (std::size_t j = 0; j < dims; ++j) hi[j] = r.getF64();
  Rect rect(dims);
  rect.expand(std::span<const double>(lo.data(), dims));
  rect.expand(std::span<const double>(hi.data(), dims));
  return rect;
}

void encodeTraceBlock(ByteWriter& w, const obs::QueryTrace& trace) {
  w.putU32(static_cast<std::uint32_t>(trace.events.size()));
  for (const obs::TraceEvent& e : trace.events) {
    w.putString(e.name);
    w.putU32(e.parent);
    w.putU64(e.startNs);
    w.putU64(e.endNs);
    w.putU32(static_cast<std::uint32_t>(e.attrs.size()));
    for (const auto& [key, value] : e.attrs) {
      w.putString(key);
      w.putF64(value);
    }
  }
  w.putU64(trace.droppedEvents);
}

obs::QueryTrace decodeTraceBlock(ByteReader& r) {
  obs::QueryTrace trace;
  const std::uint32_t n = r.getU32();
  trace.events.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    obs::TraceEvent e;
    e.name = r.getString();
    e.parent = r.getU32();
    e.startNs = r.getU64();
    e.endNs = r.getU64();
    const std::uint32_t nattrs = r.getU32();
    e.attrs.reserve(nattrs);
    for (std::uint32_t j = 0; j < nattrs; ++j) {
      std::string key = r.getString();
      const double value = r.getF64();
      e.attrs.emplace_back(std::move(key), value);
    }
    trace.events.push_back(std::move(e));
  }
  trace.droppedEvents = r.getU64();
  return trace;
}

void Candidate::encode(ByteWriter& w) const {
  w.putU32(site);
  w.putF64(localSkyProb);
  encodeTuple(w, tuple);
}

Candidate Candidate::decode(ByteReader& r) {
  Candidate c;
  c.site = r.getU32();
  c.localSkyProb = r.getF64();
  c.tuple = decodeTuple(r);
  return c;
}

void PrepareRequest::encode(ByteWriter& w) const {
  w.putU64(query);
  w.putF64(q);
  w.putU32(mask);
  w.putU8(static_cast<std::uint8_t>(prune));
  encodeOptionalRect(w, window);
  w.putU32(traceCapacity);
}

PrepareRequest PrepareRequest::decode(ByteReader& r) {
  PrepareRequest msg;
  msg.query = r.getU64();
  msg.q = r.getF64();
  msg.mask = r.getU32();
  msg.prune = static_cast<PruneRule>(r.getU8());
  msg.window = decodeOptionalRect(r);
  msg.traceCapacity = r.getU32();
  return msg;
}

void NextCandidateRequest::encode(ByteWriter& w) const {
  w.putU64(query);
  w.putU64(seq);
}

NextCandidateRequest NextCandidateRequest::decode(ByteReader& r) {
  NextCandidateRequest msg;
  msg.query = r.getU64();
  msg.seq = r.getU64();
  return msg;
}

void PrepareResponse::encode(ByteWriter& w) const {
  w.putU64(localSkylineSize);
}

PrepareResponse PrepareResponse::decode(ByteReader& r) {
  PrepareResponse msg;
  msg.localSkylineSize = r.getU64();
  return msg;
}

void NextCandidateResponse::encode(ByteWriter& w) const {
  w.putBool(candidate.has_value());
  if (candidate) candidate->encode(w);
}

NextCandidateResponse NextCandidateResponse::decode(ByteReader& r) {
  NextCandidateResponse msg;
  if (r.getBool()) msg.candidate = Candidate::decode(r);
  return msg;
}

void EvaluateRequest::encode(ByteWriter& w) const {
  w.putU64(query);
  w.putU64(seq);
  encodeTuple(w, tuple);
  w.putU32(mask);
  w.putBool(pruneLocal);
  encodeOptionalRect(w, window);
}

EvaluateRequest EvaluateRequest::decode(ByteReader& r) {
  EvaluateRequest msg;
  msg.query = r.getU64();
  msg.seq = r.getU64();
  msg.tuple = decodeTuple(r);
  msg.mask = r.getU32();
  msg.pruneLocal = r.getBool();
  msg.window = decodeOptionalRect(r);
  return msg;
}

void EvaluateResponse::encode(ByteWriter& w) const {
  w.putF64(survival);
  w.putU32(prunedCount);
}

EvaluateResponse EvaluateResponse::decode(ByteReader& r) {
  EvaluateResponse msg;
  msg.survival = r.getF64();
  msg.prunedCount = r.getU32();
  return msg;
}

void ShipAllResponse::encode(ByteWriter& w) const {
  w.putU32(static_cast<std::uint32_t>(tuples.size()));
  for (const Tuple& t : tuples) encodeTuple(w, t);
}

ShipAllResponse ShipAllResponse::decode(ByteReader& r) {
  ShipAllResponse msg;
  const std::uint32_t n = r.getU32();
  msg.tuples.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) msg.tuples.push_back(decodeTuple(r));
  return msg;
}

void ApplyInsertRequest::encode(ByteWriter& w) const {
  encodeTuple(w, tuple);
  w.putU32(mask);
}

ApplyInsertRequest ApplyInsertRequest::decode(ByteReader& r) {
  ApplyInsertRequest msg;
  msg.tuple = decodeTuple(r);
  msg.mask = r.getU32();
  return msg;
}

void ApplyInsertResponse::encode(ByteWriter& w) const {
  w.putF64(localSkyProb);
  w.putF64(globalUpperBound);
  w.putU32(static_cast<std::uint32_t>(dominatedReplica.size()));
  for (const TupleId id : dominatedReplica) w.putU64(id);
  w.putU64(datasetVersion);
}

ApplyInsertResponse ApplyInsertResponse::decode(ByteReader& r) {
  ApplyInsertResponse msg;
  msg.localSkyProb = r.getF64();
  msg.globalUpperBound = r.getF64();
  const std::uint32_t n = r.getU32();
  msg.dominatedReplica.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) msg.dominatedReplica.push_back(r.getU64());
  msg.datasetVersion = r.getU64();
  return msg;
}

void ApplyDeleteRequest::encode(ByteWriter& w) const {
  w.putU64(id);
  w.putF64Vector(values);
}

ApplyDeleteRequest ApplyDeleteRequest::decode(ByteReader& r) {
  ApplyDeleteRequest msg;
  msg.id = r.getU64();
  msg.values = r.getF64Vector();
  return msg;
}

void ApplyDeleteResponse::encode(ByteWriter& w) const {
  w.putBool(existed);
  w.putF64(prob);
  w.putU64(datasetVersion);
}

ApplyDeleteResponse ApplyDeleteResponse::decode(ByteReader& r) {
  ApplyDeleteResponse msg;
  msg.existed = r.getBool();
  msg.prob = r.getF64();
  msg.datasetVersion = r.getU64();
  return msg;
}

void RepairDeleteRequest::encode(ByteWriter& w) const {
  encodeTuple(w, deleted);
  w.putU32(origin);
  w.putF64(q);
  w.putU32(mask);
}

RepairDeleteRequest RepairDeleteRequest::decode(ByteReader& r) {
  RepairDeleteRequest msg;
  msg.deleted = decodeTuple(r);
  msg.origin = r.getU32();
  msg.q = r.getF64();
  msg.mask = r.getU32();
  return msg;
}

void FinishQueryRequest::encode(ByteWriter& w) const { w.putU64(query); }

FinishQueryRequest FinishQueryRequest::decode(ByteReader& r) {
  FinishQueryRequest msg;
  msg.query = r.getU64();
  return msg;
}

void FetchTraceRequest::encode(ByteWriter& w) const { w.putU64(query); }

FetchTraceRequest FetchTraceRequest::decode(ByteReader& r) {
  FetchTraceRequest msg;
  msg.query = r.getU64();
  return msg;
}

void FetchTraceResponse::encode(ByteWriter& w) const {
  encodeTraceBlock(w, trace);
}

FetchTraceResponse FetchTraceResponse::decode(ByteReader& r) {
  FetchTraceResponse msg;
  msg.trace = decodeTraceBlock(r);
  return msg;
}

void RepairDeleteResponse::encode(ByteWriter& w) const {
  w.putU32(static_cast<std::uint32_t>(candidates.size()));
  for (const Candidate& c : candidates) c.encode(w);
}

RepairDeleteResponse RepairDeleteResponse::decode(ByteReader& r) {
  RepairDeleteResponse msg;
  const std::uint32_t n = r.getU32();
  msg.candidates.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    msg.candidates.push_back(Candidate::decode(r));
  }
  return msg;
}

void ReplicaAddRequest::encode(ByteWriter& w) const {
  entry.encode(w);
  w.putF64(globalSkyProb);
}

ReplicaAddRequest ReplicaAddRequest::decode(ByteReader& r) {
  ReplicaAddRequest msg;
  msg.entry = Candidate::decode(r);
  msg.globalSkyProb = r.getF64();
  return msg;
}

void ReplicaRemoveRequest::encode(ByteWriter& w) const { w.putU64(id); }

ReplicaRemoveRequest ReplicaRemoveRequest::decode(ByteReader& r) {
  ReplicaRemoveRequest msg;
  msg.id = r.getU64();
  return msg;
}

void StreamTuplesRequest::encode(ByteWriter& w) const {
  w.putU32(partition);
  w.putU64(seq);
  w.putU32(static_cast<std::uint32_t>(tuples.size()));
  for (const Tuple& t : tuples) encodeTuple(w, t);
}

StreamTuplesRequest StreamTuplesRequest::decode(ByteReader& r) {
  StreamTuplesRequest msg;
  msg.partition = r.getU32();
  msg.seq = r.getU64();
  const std::uint32_t n = r.getU32();
  // Server-decoded from untrusted frames: bound the reserve by what the
  // buffer could possibly hold (a tuple costs >= 20 bytes on the wire) so a
  // garbage count fails on the reader's bounds check, not on an allocation.
  msg.tuples.reserve(std::min<std::size_t>(n, r.remaining() / 20));
  for (std::uint32_t i = 0; i < n; ++i) msg.tuples.push_back(decodeTuple(r));
  return msg;
}

void StreamTuplesResponse::encode(ByteWriter& w) const { w.putU64(received); }

StreamTuplesResponse StreamTuplesResponse::decode(ByteReader& r) {
  StreamTuplesResponse msg;
  msg.received = r.getU64();
  return msg;
}

void JoinSiteRequest::encode(ByteWriter& w) const { w.putU64(epoch); }

JoinSiteRequest JoinSiteRequest::decode(ByteReader& r) {
  JoinSiteRequest msg;
  msg.epoch = r.getU64();
  return msg;
}

void JoinSiteResponse::encode(ByteWriter& w) const { w.putU64(size); }

JoinSiteResponse JoinSiteResponse::decode(ByteReader& r) {
  JoinSiteResponse msg;
  msg.size = r.getU64();
  return msg;
}

void LeaveSiteRequest::encode(ByteWriter& w) const { w.putU64(epoch); }

LeaveSiteRequest LeaveSiteRequest::decode(ByteReader& r) {
  LeaveSiteRequest msg;
  msg.epoch = r.getU64();
  return msg;
}

void LeaveSiteResponse::encode(ByteWriter& w) const { w.putU64(sessions); }

LeaveSiteResponse LeaveSiteResponse::decode(ByteReader& r) {
  LeaveSiteResponse msg;
  msg.sessions = r.getU64();
  return msg;
}

MsgType frameType(ByteReader& r) {
  return static_cast<MsgType>(r.getU8());
}

}  // namespace dsud
