#include "core/protocol.hpp"

#include <gtest/gtest.h>

#include "core/local_site.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

Tuple sampleTuple() {
  return Tuple{42, {1.5, -2.5, 3.25}, 0.625};
}

template <typename Msg>
Msg reencode(const Msg& msg) {
  ByteWriter w;
  msg.encode(w);
  ByteReader r(w.bytes());
  Msg out = Msg::decode(r);
  r.expectEnd();
  return out;
}

TEST(ProtocolTest, TupleRoundTrip) {
  ByteWriter w;
  encodeTuple(w, sampleTuple());
  ByteReader r(w.bytes());
  const Tuple t = decodeTuple(r);
  EXPECT_EQ(t, sampleTuple());
  r.expectEnd();
}

TEST(ProtocolTest, CandidateRoundTrip) {
  Candidate c;
  c.site = 7;
  c.tuple = sampleTuple();
  c.localSkyProb = 0.375;
  EXPECT_EQ(reencode(c), c);
}

TEST(ProtocolTest, PrepareRequestRoundTrip) {
  PrepareRequest msg;
  msg.query = 77;
  msg.q = 0.45;
  msg.mask = 0b101;
  msg.prune = PruneRule::kDominance;
  const PrepareRequest out = reencode(msg);
  EXPECT_EQ(out.query, 77u);
  EXPECT_EQ(out.q, 0.45);
  EXPECT_EQ(out.mask, 0b101u);
  EXPECT_EQ(out.prune, PruneRule::kDominance);
}

TEST(ProtocolTest, PrepareRequestCarriesTraceSettings) {
  PrepareRequest msg;
  msg.query = 9;
  msg.traceCapacity = 4096;
  const PrepareRequest out = reencode(msg);
  EXPECT_EQ(out.traceCapacity, 4096u);
  // The default (tracing off) must survive the wire too.
  const PrepareRequest off = reencode(PrepareRequest{});
  EXPECT_EQ(off.traceCapacity, 0u);
}

obs::QueryTrace sampleTrace() {
  obs::QueryTrace trace;
  obs::TraceEvent prepare;
  prepare.name = "site.prepare";
  prepare.startNs = 1'000;
  prepare.endNs = 2'500;
  prepare.attrs = {{"tuples", 400.0}, {"pruned", 123.0}};
  obs::TraceEvent next;
  next.name = "site.next";
  next.parent = 0;
  next.startNs = 3'000;
  next.endNs = 0;  // still open: snapshot semantics
  next.attrs = {{"seq", 1.0}};
  trace.events = {prepare, next};
  trace.droppedEvents = 7;
  return trace;
}

void expectTraceEq(const obs::QueryTrace& out, const obs::QueryTrace& in) {
  EXPECT_EQ(out.droppedEvents, in.droppedEvents);
  ASSERT_EQ(out.events.size(), in.events.size());
  for (std::size_t i = 0; i < in.events.size(); ++i) {
    EXPECT_EQ(out.events[i].name, in.events[i].name);
    EXPECT_EQ(out.events[i].parent, in.events[i].parent);
    EXPECT_EQ(out.events[i].startNs, in.events[i].startNs);
    EXPECT_EQ(out.events[i].endNs, in.events[i].endNs);
    EXPECT_EQ(out.events[i].attrs, in.events[i].attrs);
  }
}

TEST(ProtocolTest, TraceBlockRoundTrip) {
  const obs::QueryTrace trace = sampleTrace();
  ByteWriter w;
  encodeTraceBlock(w, trace);
  ByteReader r(w.bytes());
  const obs::QueryTrace out = decodeTraceBlock(r);
  r.expectEnd();
  expectTraceEq(out, trace);

  ByteWriter empty;
  encodeTraceBlock(empty, obs::QueryTrace{});
  ByteReader re(empty.bytes());
  const obs::QueryTrace none = decodeTraceBlock(re);
  re.expectEnd();
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.droppedEvents, 0u);
}

TEST(ProtocolTest, FetchTraceMessagesRoundTrip) {
  FetchTraceRequest req;
  req.query = 321;
  EXPECT_EQ(reencode(req).query, 321u);

  FetchTraceResponse resp;
  resp.trace = sampleTrace();
  ByteWriter w;
  resp.encode(w);
  ByteReader r(w.bytes());
  const FetchTraceResponse out = FetchTraceResponse::decode(r);
  r.expectEnd();
  expectTraceEq(out.trace, resp.trace);
}

TEST(ProtocolTest, ResponseFrameRejectsTrailingBytes) {
  NextCandidateResponse msg;
  msg.candidate = Candidate{3, sampleTuple(), 0.5};
  ByteWriter w;
  msg.encode(w);
  encodeTraceBlock(w, sampleTrace());  // site spans travel by kFetchTrace only
  const Frame padded{w.bytes().begin(), w.bytes().end()};
  EXPECT_THROW(fromResponseFrame<NextCandidateResponse>(padded),
               SerializeError);
}

TEST(ProtocolTest, NextCandidateRequestCarriesQueryId) {
  NextCandidateRequest msg;
  msg.query = 12345;
  EXPECT_EQ(reencode(msg).query, 12345u);
}

TEST(ProtocolTest, NextCandidateRequestCarriesReplaySeq) {
  NextCandidateRequest msg;
  msg.query = 12345;
  msg.seq = 77;
  const auto out = reencode(msg);
  EXPECT_EQ(out.query, 12345u);
  EXPECT_EQ(out.seq, 77u);
  // seq 0 = no replay protection; must survive the wire unchanged.
  EXPECT_EQ(reencode(NextCandidateRequest{}).seq, 0u);
}

TEST(ProtocolTest, FinishQueryRoundTrip) {
  FinishQueryRequest msg;
  msg.query = 9;
  EXPECT_EQ(reencode(msg).query, 9u);
}

TEST(ProtocolTest, NextCandidateResponseEmptyAndFull) {
  NextCandidateResponse empty;
  EXPECT_FALSE(reencode(empty).candidate.has_value());

  NextCandidateResponse full;
  full.candidate = Candidate{3, sampleTuple(), 0.5};
  const auto out = reencode(full);
  ASSERT_TRUE(out.candidate.has_value());
  EXPECT_EQ(*out.candidate, *full.candidate);
}

TEST(ProtocolTest, EvaluateRoundTrip) {
  EvaluateRequest req;
  req.query = 5;
  req.tuple = sampleTuple();
  req.mask = 0b011;
  req.pruneLocal = false;
  req.seq = 4096;
  const auto reqOut = reencode(req);
  EXPECT_EQ(reqOut.query, 5u);
  EXPECT_EQ(reqOut.tuple, sampleTuple());
  EXPECT_EQ(reqOut.mask, 0b011u);
  EXPECT_FALSE(reqOut.pruneLocal);
  EXPECT_EQ(reqOut.seq, 4096u);

  EvaluateResponse resp;
  resp.survival = 0.123;
  resp.prunedCount = 9;
  const auto respOut = reencode(resp);
  EXPECT_EQ(respOut.survival, 0.123);
  EXPECT_EQ(respOut.prunedCount, 9u);
}

TEST(ProtocolTest, ShipAllRoundTrip) {
  ShipAllResponse msg;
  msg.tuples = {sampleTuple(), Tuple{1, {0.0, 0.0, 0.0}, 1.0}};
  const auto out = reencode(msg);
  EXPECT_EQ(out.tuples, msg.tuples);
}

TEST(ProtocolTest, ApplyInsertRoundTrip) {
  ApplyInsertResponse msg;
  msg.localSkyProb = 0.5;
  msg.globalUpperBound = 0.25;
  msg.dominatedReplica = {1, 2, 3};
  msg.datasetVersion = 41;
  const auto out = reencode(msg);
  EXPECT_EQ(out.localSkyProb, 0.5);
  EXPECT_EQ(out.globalUpperBound, 0.25);
  EXPECT_EQ(out.dominatedReplica, (std::vector<TupleId>{1, 2, 3}));
  EXPECT_EQ(out.datasetVersion, 41u);
}

TEST(ProtocolTest, ApplyDeleteRoundTrip) {
  ApplyDeleteRequest req;
  req.id = 99;
  req.values = {4.0, 5.0};
  const auto reqOut = reencode(req);
  EXPECT_EQ(reqOut.id, 99u);
  EXPECT_EQ(reqOut.values, req.values);

  ApplyDeleteResponse resp;
  resp.existed = true;
  resp.prob = 0.75;
  resp.datasetVersion = 7;
  const auto respOut = reencode(resp);
  EXPECT_TRUE(respOut.existed);
  EXPECT_EQ(respOut.prob, 0.75);
  EXPECT_EQ(respOut.datasetVersion, 7u);
}

TEST(ProtocolTest, RepairDeleteRoundTrip) {
  RepairDeleteRequest req;
  req.deleted = sampleTuple();
  req.origin = 4;
  req.q = 0.4;
  req.mask = 0b110;
  const auto reqOut = reencode(req);
  EXPECT_EQ(reqOut.deleted, sampleTuple());
  EXPECT_EQ(reqOut.origin, 4u);
  EXPECT_EQ(reqOut.q, 0.4);
  EXPECT_EQ(reqOut.mask, 0b110u);

  RepairDeleteResponse resp;
  resp.candidates = {Candidate{1, sampleTuple(), 0.5}};
  const auto respOut = reencode(resp);
  ASSERT_EQ(respOut.candidates.size(), 1u);
  EXPECT_EQ(respOut.candidates[0], resp.candidates[0]);
}

TEST(ProtocolTest, ReplicaMessagesRoundTrip) {
  ReplicaAddRequest add;
  add.entry = Candidate{2, sampleTuple(), 0.5};
  add.globalSkyProb = 0.4;
  const auto addOut = reencode(add);
  EXPECT_EQ(addOut.entry, add.entry);
  EXPECT_EQ(addOut.globalSkyProb, 0.4);

  ReplicaRemoveRequest remove;
  remove.id = 1234;
  EXPECT_EQ(reencode(remove).id, 1234u);
}

TEST(ProtocolTest, QueryConfigEffectiveMask) {
  QueryConfig config;
  EXPECT_EQ(config.effectiveMask(3), fullMask(3));
  config.mask = 0b01;
  EXPECT_EQ(config.effectiveMask(3), 0b01u);
}

// ---------------------------------------------------------------------------
// SiteServer dispatch

TEST(SiteServerTest, DispatchesPrepareAndCandidates) {
  const Dataset db = testutil::makeDataset(2, {
                                                  {1.0, 1.0, 0.9},
                                                  {2.0, 2.0, 0.9},
                                              });
  LocalSite site(0, db);
  SiteServer server(site);

  PrepareRequest prep;
  prep.q = 0.3;
  const Frame prepResp = server.handle(toFrame(MsgType::kPrepare, prep));
  EXPECT_EQ(fromResponseFrame<PrepareResponse>(prepResp).localSkylineSize, 1u);

  const Frame candResp =
      server.handle(toFrame(MsgType::kNextCandidate, NextCandidateRequest{}));
  const auto cand = fromResponseFrame<NextCandidateResponse>(candResp);
  ASSERT_TRUE(cand.candidate.has_value());
  EXPECT_EQ(cand.candidate->tuple.values, (std::vector<double>{1.0, 1.0}));
}

TEST(SiteServerTest, DispatchesFinishQueryAndReleasesSession) {
  const Dataset db = testutil::makeDataset(2, {{1.0, 1.0, 0.9}});
  LocalSite site(0, db);
  SiteServer server(site);

  PrepareRequest prep;
  prep.query = 42;
  prep.q = 0.3;
  server.handle(toFrame(MsgType::kPrepare, prep));
  EXPECT_EQ(site.sessionCount(), 1u);

  FinishQueryRequest finish;
  finish.query = 42;
  server.handle(toFrame(MsgType::kFinishQuery, finish));
  EXPECT_EQ(site.sessionCount(), 0u);
  // Idempotent: finishing an unknown query is a no-op.
  server.handle(toFrame(MsgType::kFinishQuery, finish));
  EXPECT_EQ(site.sessionCount(), 0u);
}

TEST(SiteServerTest, InterleavedSessionsKeepIndependentCursors) {
  const Dataset db = testutil::makeDataset(2, {
                                                  {1.0, 4.0, 0.9},
                                                  {4.0, 1.0, 0.9},
                                              });
  LocalSite site(0, db);

  PrepareRequest a;
  a.query = 1;
  a.q = 0.3;
  PrepareRequest b;
  b.query = 2;
  b.q = 0.3;
  site.prepare(a);
  site.prepare(b);
  EXPECT_EQ(site.sessionCount(), 2u);

  NextCandidateRequest pullA;
  pullA.query = 1;
  NextCandidateRequest pullB;
  pullB.query = 2;
  // Draining session 1 must not move session 2's cursor.
  ASSERT_TRUE(site.nextCandidate(pullA).candidate.has_value());
  ASSERT_TRUE(site.nextCandidate(pullA).candidate.has_value());
  EXPECT_FALSE(site.nextCandidate(pullA).candidate.has_value());
  EXPECT_EQ(site.pendingCount(1), 0u);
  EXPECT_EQ(site.pendingCount(2), 2u);
  ASSERT_TRUE(site.nextCandidate(pullB).candidate.has_value());

  site.finishQuery(FinishQueryRequest{1});
  site.finishQuery(FinishQueryRequest{2});
  EXPECT_EQ(site.sessionCount(), 0u);
}

TEST(SiteServerTest, UnknownTypeThrows) {
  const Dataset db = testutil::makeDataset(2, {{1.0, 1.0, 0.5}});
  LocalSite site(0, db);
  SiteServer server(site);
  ByteWriter w;
  w.putU8(200);  // not a MsgType
  const Frame bogus = std::move(w).take();
  EXPECT_THROW(server.handle(bogus), SerializeError);
}

TEST(SiteServerTest, TrailingGarbageRejected) {
  const Dataset db = testutil::makeDataset(2, {{1.0, 1.0, 0.5}});
  LocalSite site(0, db);
  SiteServer server(site);
  Frame frame = toFrame(MsgType::kNextCandidate, NextCandidateRequest{});
  frame.push_back(std::byte{0});
  EXPECT_THROW(server.handle(frame), SerializeError);
}

TEST(SiteServerTest, TruncatedBodyRejected) {
  const Dataset db = testutil::makeDataset(2, {{1.0, 1.0, 0.5}});
  LocalSite site(0, db);
  SiteServer server(site);
  Frame frame = toFrame(MsgType::kPrepare, PrepareRequest{});
  frame.resize(frame.size() - 2);
  EXPECT_THROW(server.handle(frame), SerializeError);
}

}  // namespace
}  // namespace dsud
