// Codec tests for the dsudd client protocol (src/server/proto.hpp) and the
// JSON layer beneath it: encode/decode round-trips for every request and
// response type, then a corpus of malformed lines — truncated documents,
// bad UTF-8, type confusion, out-of-range values, oversized fields — each
// of which must surface as a clean ProtoError with the right wire code
// (never a crash, never a silently-wrong struct).  Unknown *fields* are the
// one thing the decoder must ignore, so old servers tolerate new clients.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <variant>

#include "server/json.hpp"
#include "server/proto.hpp"

namespace dsud::server {
namespace {

// ---------------------------------------------------------------------------
// JSON layer

TEST(JsonTest, ScalarRoundTrips) {
  EXPECT_EQ(Json::parse("null").dump(), "null");
  EXPECT_EQ(Json::parse("true").dump(), "true");
  EXPECT_EQ(Json::parse("false").dump(), "false");
  EXPECT_EQ(Json::parse("42").dump(), "42");
  EXPECT_EQ(Json::parse("-7").dump(), "-7");
  EXPECT_EQ(Json::parse("\"hi\"").dump(), "\"hi\"");
  // Doubles survive a dump/parse cycle bit-exactly (%.17g).
  const double x = 0.1 + 0.2;
  Json v(x);
  EXPECT_EQ(Json::parse(v.dump()).asNumber(), x);
}

TEST(JsonTest, StringEscapes) {
  const Json v = Json::parse(R"("a\"b\\c\ndAé")");
  EXPECT_EQ(v.asString(), "a\"b\\c\ndA\xc3\xa9");
  // Control characters re-escape on dump.
  Json s(std::string("x\ty\n"));
  EXPECT_EQ(s.dump(), "\"x\\ty\\n\"");
  EXPECT_EQ(Json::parse(s.dump()).asString(), "x\ty\n");
}

TEST(JsonTest, SurrogatePairs) {
  // U+1F600 as a surrogate pair decodes to 4-byte UTF-8.
  const Json v = Json::parse(R"("😀")");
  EXPECT_EQ(v.asString(), "\xf0\x9f\x98\x80");
  // A lone high surrogate is malformed.
  EXPECT_THROW(Json::parse(R"("\ud83d")"), JsonError);
}

TEST(JsonTest, RejectsMalformedDocuments) {
  for (const char* text :
       {"", "{", "[1,2", "{\"a\":}", "{\"a\" 1}", "tru", "01", "1.",
        "\"unterminated", "{\"a\":1}garbage", "[1,]", "{,}", "nan", "+1"}) {
    EXPECT_THROW(Json::parse(text), JsonError) << text;
  }
}

TEST(JsonTest, RejectsInvalidUtf8) {
  EXPECT_THROW(Json::parse("\"\xff\xfe\""), JsonError);
  EXPECT_THROW(Json::parse("\"\xc3\""), JsonError);        // truncated 2-byte
  EXPECT_THROW(Json::parse("\"\xed\xa0\x80\""), JsonError);  // raw surrogate
}

TEST(JsonTest, DepthCapStopsNestingBombs) {
  std::string bomb;
  for (int i = 0; i < 100; ++i) bomb += '[';
  for (int i = 0; i < 100; ++i) bomb += ']';
  EXPECT_THROW(Json::parse(bomb), JsonError);
}

// ---------------------------------------------------------------------------
// Request round-trips

TEST(ProtoRequestTest, QueryDefaultsRoundTrip) {
  QueryRequest r;
  r.id = "q1";
  const Request decoded = decodeRequest(encodeRequest(r));
  ASSERT_TRUE(std::holds_alternative<QueryRequest>(decoded));
  EXPECT_EQ(std::get<QueryRequest>(decoded), r);
}

TEST(ProtoRequestTest, QueryFullyLoadedRoundTrip) {
  QueryRequest r;
  r.id = "big-query";
  r.algo = Algo::kDsud;
  r.q = 0.125;
  r.mask = 0b101;
  Rect window(3);
  window.expand(std::vector<double>{0.0, 0.1, 0.2});
  window.expand(std::vector<double>{0.5, 0.6, 0.7});
  r.window = window;
  r.tenant = "analytics";
  r.priority = Priority::kHigh;
  r.deadlineMs = 2500;
  r.retries = 3;
  r.degrade = true;
  r.progressive = false;
  r.limit = 10;
  r.traceCapacity = 4096;
  const Request decoded = decodeRequest(encodeRequest(r));
  ASSERT_TRUE(std::holds_alternative<QueryRequest>(decoded));
  EXPECT_EQ(std::get<QueryRequest>(decoded), r);
}

TEST(ProtoRequestTest, TopKRoundTrip) {
  QueryRequest r;
  r.id = "topk";
  r.k = 12;
  r.q = 1e-3;  // travels as floor_q
  r.priority = Priority::kLow;
  const Request decoded = decodeRequest(encodeRequest(r));
  ASSERT_TRUE(std::holds_alternative<QueryRequest>(decoded));
  EXPECT_EQ(std::get<QueryRequest>(decoded), r);
}

TEST(ProtoRequestTest, PingCancelStatsRoundTrip) {
  EXPECT_TRUE(std::holds_alternative<PingRequest>(
      decodeRequest(encodeRequest(PingRequest{}))));
  EXPECT_TRUE(std::holds_alternative<StatsRequest>(
      decodeRequest(encodeRequest(StatsRequest{}))));
  CancelRequest c;
  c.id = "q7";
  const Request decoded = decodeRequest(encodeRequest(c));
  ASSERT_TRUE(std::holds_alternative<CancelRequest>(decoded));
  EXPECT_EQ(std::get<CancelRequest>(decoded), c);
}

TEST(ProtoRequestTest, AdminRoundTripEveryAction) {
  for (const AdminAction action :
       {AdminAction::kAddSite, AdminAction::kRemoveSite,
        AdminAction::kRebalance, AdminAction::kTopology}) {
    AdminRequest request;
    request.id = "a1";
    request.action = action;
    if (action == AdminAction::kRemoveSite) request.site = 7;
    const Request decoded = decodeRequest(encodeRequest(request));
    ASSERT_TRUE(std::holds_alternative<AdminRequest>(decoded))
        << adminActionName(action);
    EXPECT_EQ(std::get<AdminRequest>(decoded), request)
        << adminActionName(action);
  }
}

TEST(ProtoRequestTest, AdminSchemaViolations) {
  // No id, unknown action, remove-site without a site.
  for (const char* line :
       {R"({"op":"admin","action":"topology"})",
        R"({"op":"admin","id":"a","action":"explode"})",
        R"({"op":"admin","id":"a","action":"remove-site"})",
        R"({"op":"admin","id":"a","action":"remove-site","site":-1})"}) {
    try {
      decodeRequest(line);
      FAIL() << line;
    } catch (const ProtoError& error) {
      EXPECT_EQ(error.code(), ErrorCode::kBadRequest) << line;
    }
  }
}

TEST(ProtoRequestTest, UnknownFieldsAreIgnored) {
  const Request decoded = decodeRequest(
      R"({"op":"query","id":"q1","future_flag":true,"nested":{"a":[1,2]}})");
  ASSERT_TRUE(std::holds_alternative<QueryRequest>(decoded));
  EXPECT_EQ(std::get<QueryRequest>(decoded).id, "q1");
}

// ---------------------------------------------------------------------------
// Request malformed corpus

ErrorCode decodeError(std::string_view line) {
  try {
    decodeRequest(line);
  } catch (const ProtoError& e) {
    return e.code();
  }
  ADD_FAILURE() << "decoded without error: " << line;
  return ErrorCode::kInternal;
}

TEST(ProtoRequestTest, TruncatedAndMalformedJson) {
  for (const char* line :
       {"", "   ", "{", R"({"op":"query")", R"({"op":"query","id":)",
        "[1,2,3]", "\"just a string\"", "42", "not json at all",
        R"({"op":"query","id":"q1"} trailing)"}) {
    EXPECT_EQ(decodeError(line), ErrorCode::kBadRequest) << line;
  }
}

TEST(ProtoRequestTest, BadUtf8IsBadRequest) {
  std::string line = R"({"op":"ping","x":")";
  line += "\xff\xfe";
  line += "\"}";
  EXPECT_EQ(decodeError(line), ErrorCode::kBadRequest);
}

TEST(ProtoRequestTest, UnknownOpIsItsOwnCode) {
  EXPECT_EQ(decodeError(R"({"op":"subscribe"})"), ErrorCode::kUnknownOp);
  // ...but a missing or non-string op is a schema violation.
  EXPECT_EQ(decodeError(R"({"id":"q1"})"), ErrorCode::kBadRequest);
  EXPECT_EQ(decodeError(R"({"op":42})"), ErrorCode::kBadRequest);
}

TEST(ProtoRequestTest, SchemaViolations) {
  for (const char* line : {
           R"({"op":"query"})",                          // missing id
           R"({"op":"query","id":""})",                  // empty id
           R"({"op":"query","id":7})",                   // id not a string
           R"({"op":"query","id":"q","q":1.5})",         // q out of range
           R"({"op":"query","id":"q","q":"hi"})",        // q not a number
           R"({"op":"query","id":"q","k":-1})",          // negative k
           R"({"op":"query","id":"q","k":2.5})",         // fractional k
           R"({"op":"query","id":"q","algo":"quantum"})",
           R"({"op":"query","id":"q","priority":"urgent"})",
           R"({"op":"query","id":"q","on_failure":"explode"})",
           R"({"op":"query","id":"q","tenant":""})",
           R"({"op":"query","id":"q","progressive":"yes"})",
           R"({"op":"query","id":"q","retries":17})",    // > 16
           R"({"op":"query","id":"q","window":[1,2]})",  // not an object
           R"({"op":"query","id":"q","window":{"lo":[0],"hi":[0,1]}})",
           R"({"op":"query","id":"q","window":{"lo":[1],"hi":[0]}})",
           R"({"op":"query","id":"q","window":{"lo":[],"hi":[]}})",
           R"({"op":"cancel"})",                         // cancel without id
       }) {
    EXPECT_EQ(decodeError(line), ErrorCode::kBadRequest) << line;
  }
}

TEST(ProtoRequestTest, OversizedFieldsAreRejected) {
  const std::string longId(129, 'x');
  EXPECT_EQ(decodeError(R"({"op":"query","id":")" + longId + "\"}"),
            ErrorCode::kBadRequest);
  const std::string longTenant(65, 't');
  EXPECT_EQ(decodeError(R"({"op":"query","id":"q","tenant":")" + longTenant +
                        "\"}"),
            ErrorCode::kBadRequest);
}

// ---------------------------------------------------------------------------
// Response round-trips

TEST(ProtoResponseTest, AckRoundTrip) {
  AckResponse r;
  r.id = "q1";
  r.query = 42;
  const Response decoded = decodeResponse(encodeResponse(r));
  ASSERT_TRUE(std::holds_alternative<AckResponse>(decoded));
  EXPECT_EQ(std::get<AckResponse>(decoded), r);
}

TEST(ProtoResponseTest, AnswerRoundTrip) {
  AnswerResponse r;
  r.id = "q1";
  r.seq = 3;
  r.entry.site = 2;
  r.entry.tuple = Tuple(17, {0.25, 0.5, 0.125}, 0.75);
  r.entry.localSkyProb = 0.875;
  r.entry.globalSkyProb = 0.8125;
  const Response decoded = decodeResponse(encodeResponse(r));
  ASSERT_TRUE(std::holds_alternative<AnswerResponse>(decoded));
  EXPECT_EQ(std::get<AnswerResponse>(decoded), r);
}

TEST(ProtoResponseTest, DoneRoundTrip) {
  DoneResponse r;
  r.id = "q1";
  r.answers = 33;
  r.degraded = true;
  r.excluded = {1, 4};
  r.stats.tuplesShipped = 231;
  r.stats.bytesShipped = 18289;
  r.stats.roundTrips = 246;
  r.stats.candidatesPulled = 40;
  r.stats.broadcasts = 6;
  r.stats.expunged = 7;
  r.stats.prunedAtSites = 100;
  r.stats.seconds = 0.0028;
  const Response decoded = decodeResponse(encodeResponse(r));
  ASSERT_TRUE(std::holds_alternative<DoneResponse>(decoded));
  EXPECT_EQ(std::get<DoneResponse>(decoded), r);
}

TEST(ProtoResponseTest, DoneWithProfileRoundTrip) {
  DoneResponse r;
  r.id = "q9";
  r.answers = 12;
  r.stats.tuplesShipped = 40;
  r.stats.seconds = 0.01;

  QueryProfile profile;
  profile.algo = "edsud";
  profile.cache = "miss";
  profile.batch = "leader";
  profile.batchWidth = 3;
  profile.failovers = 1;
  profile.prepareSeconds = 0.001;
  profile.executeSeconds = 0.025;
  profile.finalizeSeconds = 0.0005;
  SiteProfile alive;
  alive.site = 0;
  alive.rounds = 4;
  alive.roundTrips = 31;
  alive.tuples = 25;
  alive.bytes = 1200;
  alive.candidates = 30;
  alive.pruned = 970;
  SiteProfile fallen;
  fallen.site = 1;
  fallen.rounds = 1;
  fallen.tuples = 15;
  fallen.bytes = 720;
  fallen.retries = 2;
  fallen.failovers = 1;
  fallen.dead = true;
  profile.sites = {alive, fallen};
  r.profile = profile;

  const Response decoded = decodeResponse(encodeResponse(r));
  ASSERT_TRUE(std::holds_alternative<DoneResponse>(decoded));
  EXPECT_EQ(std::get<DoneResponse>(decoded), r);

  // Without the block, the option stays disengaged after a round-trip —
  // profiles never materialise out of thin air on the client side.
  DoneResponse bare;
  bare.id = "q10";
  const Response plain = decodeResponse(encodeResponse(bare));
  ASSERT_TRUE(std::holds_alternative<DoneResponse>(plain));
  EXPECT_FALSE(std::get<DoneResponse>(plain).profile.has_value());
}

TEST(ProtoRequestTest, ProfileFlagRoundTrip) {
  QueryRequest r;
  r.id = "explain";
  r.profile = true;
  const Request decoded = decodeRequest(encodeRequest(r));
  ASSERT_TRUE(std::holds_alternative<QueryRequest>(decoded));
  EXPECT_TRUE(std::get<QueryRequest>(decoded).profile);
  EXPECT_EQ(std::get<QueryRequest>(decoded), r);
}

TEST(ProtoResponseTest, ErrorRoundTripEveryCode) {
  for (const ErrorCode code :
       {ErrorCode::kBadRequest, ErrorCode::kUnknownOp, ErrorCode::kOversized,
        ErrorCode::kOverloaded, ErrorCode::kUnavailable, ErrorCode::kCancelled,
        ErrorCode::kInternal}) {
    ErrorResponse r;
    r.id = "q9";
    r.code = code;
    r.message = "because";
    r.retryAfterMs = code == ErrorCode::kOverloaded ? 250 : 0;
    const Response decoded = decodeResponse(encodeResponse(r));
    ASSERT_TRUE(std::holds_alternative<ErrorResponse>(decoded));
    EXPECT_EQ(std::get<ErrorResponse>(decoded), r);
  }
}

TEST(ProtoResponseTest, PongAndStatsRoundTrip) {
  EXPECT_TRUE(std::holds_alternative<PongResponse>(
      decodeResponse(encodeResponse(PongResponse{}))));
  StatsResponse r;
  r.active = 2;
  r.queued = 5;
  r.admitted = 100;
  r.shed = 7;
  const Response decoded = decodeResponse(encodeResponse(r));
  ASSERT_TRUE(std::holds_alternative<StatsResponse>(decoded));
  EXPECT_EQ(std::get<StatsResponse>(decoded), r);
}

TEST(ProtoResponseTest, AdminRoundTrip) {
  AdminResponse response;
  response.id = "a1";
  response.epoch = 5;
  response.members = {0, 1, 3, 4};
  response.partitions.push_back(PartitionDesc{0, {0, 1}});
  response.partitions.push_back(PartitionDesc{1, {1, 3}});
  const Response decoded = decodeResponse(encodeResponse(response));
  ASSERT_TRUE(std::holds_alternative<AdminResponse>(decoded));
  EXPECT_EQ(std::get<AdminResponse>(decoded), response);

  // add-site carries the new member's id; kNoSite is elided on the wire
  // and restored on decode.
  response.site = 4;
  const Response withSite = decodeResponse(encodeResponse(response));
  EXPECT_EQ(std::get<AdminResponse>(withSite), response);
}

TEST(ProtoResponseTest, UintFieldAtTwoToTheSixtyFourIsRejected) {
  // static_cast<double>(UINT64_MAX) rounds up to exactly 2^64, so a naive
  // `d > (double)hi` range check would let 18446744073709551616 through
  // into an undefined uint64 cast.  It must be a clean decode error.
  for (const char* line :
       {R"({"type":"done","id":"q1","answers":18446744073709551616})",
        R"({"type":"done","id":"q1","answers":18446744073709551615})",
        R"({"type":"done","id":"q1","answers":1e300})"}) {
    EXPECT_THROW(decodeResponse(line), ProtoError) << line;
  }
  // Large-but-representable values still decode exactly.
  const Response decoded =
      decodeResponse(R"({"type":"done","id":"q1","answers":9007199254740992})");
  ASSERT_TRUE(std::holds_alternative<DoneResponse>(decoded));
  EXPECT_EQ(std::get<DoneResponse>(decoded).answers, 9007199254740992u);
}

TEST(ProtoResponseTest, MalformedResponsesThrow) {
  for (const char* line :
       {"", "{", R"({"type":"telemetry"})", R"({"id":"q1"})",
        R"({"type":"answer","id":"q1","seq":1})",  // missing tuple
        R"({"type":"answer","id":"q1","seq":1,"tuple":[1]})",
        R"({"type":"error","id":"q1","code":"catastrophic"})",
        R"({"type":"done","id":"q1","excluded":"none"})",
        R"({"type":"done","id":"q1","stats":[1,2]})"}) {
    EXPECT_THROW(decodeResponse(line), ProtoError) << line;
  }
}

// ---------------------------------------------------------------------------
// Error-code names

TEST(ProtoErrorCodeTest, NamesRoundTrip) {
  for (const ErrorCode code :
       {ErrorCode::kBadRequest, ErrorCode::kUnknownOp, ErrorCode::kOversized,
        ErrorCode::kOverloaded, ErrorCode::kUnavailable, ErrorCode::kCancelled,
        ErrorCode::kInternal}) {
    const auto parsed = errorCodeFromName(errorCodeName(code));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, code);
  }
  EXPECT_FALSE(errorCodeFromName("no_such_code").has_value());
}

}  // namespace
}  // namespace dsud::server
