// Wire-codec tests (satellite: one codec behind both carriers).
//
// Round-trips every message type the protocol layer sends, then attacks the
// decoder: truncation at every byte prefix, corrupt magic/version/type,
// out-of-range discriminators, trailing garbage. The decoder must reject all
// of it with a typed Status — never crash, never silently accept.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/gossip/messages.h"
#include "src/kv/kv_service.h"
#include "src/net/wire.h"

namespace scalecheck {
namespace {

Message Frame(int type, std::shared_ptr<const Payload> payload) {
  Message msg;
  msg.id = 424242;
  msg.from = 3;
  msg.to = 9;
  msg.type = type;
  msg.payload = std::move(payload);
  return msg;
}

EndpointState FullState() {
  EndpointState state(/*generation=*/1700000001);
  state.mutable_heartbeat().version = 42;
  VersionedValue status;
  status.version = 17;
  status.status = StatusKind::kNormal;
  status.tokens = {0x1111222233334444ull, 0xdeadbeefcafef00dull};
  state.Set(ApplicationStateKey::kStatus, status);
  VersionedValue load;
  load.version = 19;
  load.load = 0.625;
  state.Set(ApplicationStateKey::kLoad, load);
  VersionedValue tokens;
  tokens.version = 21;
  tokens.tokens = {1, 2, 3};
  state.Set(ApplicationStateKey::kTokens, tokens);
  return state;
}

void ExpectHeaderEqual(const Message& in, const Message& out) {
  EXPECT_EQ(out.id, in.id);
  EXPECT_EQ(out.from, in.from);
  EXPECT_EQ(out.to, in.to);
  EXPECT_EQ(out.type, in.type);
}

void ExpectStatesEqual(const EndpointStateMap& in, const EndpointStateMap& out) {
  ASSERT_EQ(out.size(), in.size());
  for (const auto& [node, state] : in) {
    auto it = out.find(node);
    ASSERT_NE(it, out.end()) << "node " << node;
    EXPECT_EQ(it->second.heartbeat().generation, state.heartbeat().generation);
    EXPECT_EQ(it->second.heartbeat().version, state.heartbeat().version);
    EXPECT_EQ(it->second.MaxVersion(), state.MaxVersion());
    ASSERT_EQ(it->second.app_states().size(), state.app_states().size());
    for (const auto& [key, value] : state.app_states()) {
      const VersionedValue* got = it->second.Get(key);
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(got->version, value.version);
      EXPECT_EQ(got->status, value.status);
      EXPECT_DOUBLE_EQ(got->load, value.load);
      EXPECT_EQ(got->tokens, value.tokens);
    }
  }
}

// ---------------------------------------------------------------------------
// Round trips.

TEST(WireCodec, SynRoundTrip) {
  auto syn = std::make_shared<SynPayload>();
  syn->digests = {{.endpoint = 0, .generation = 100, .max_version = 7},
                  {.endpoint = 5, .generation = 200, .max_version = 0}};
  Message in = Frame(kGossipSyn, syn);
  Result<Message> out = wire::DecodeMessage(wire::EncodeMessage(in));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ExpectHeaderEqual(in, out.value());
  auto* decoded = static_cast<const SynPayload*>(out.value().payload.get());
  ASSERT_EQ(decoded->digests.size(), 2u);
  EXPECT_EQ(decoded->digests[0].endpoint, 0);
  EXPECT_EQ(decoded->digests[0].generation, 100);
  EXPECT_EQ(decoded->digests[1].endpoint, 5);
  EXPECT_EQ(decoded->digests[1].max_version, 0);
}

TEST(WireCodec, EmptySynRoundTrip) {
  Message in = Frame(kGossipSyn, std::make_shared<SynPayload>());
  Result<Message> out = wire::DecodeMessage(wire::EncodeMessage(in));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto* decoded = static_cast<const SynPayload*>(out.value().payload.get());
  EXPECT_TRUE(decoded->digests.empty());
}

TEST(WireCodec, AckRoundTripWithStatesAndRequests) {
  auto ack = std::make_shared<AckPayload>();
  ack->states.emplace(NodeId{2}, FullState());
  ack->states.emplace(NodeId{11}, EndpointState(123456789));
  ack->requests = {{.endpoint = 8, .generation = 300, .max_version = 12}};
  Message in = Frame(kGossipAck, ack);
  Result<Message> out = wire::DecodeMessage(wire::EncodeMessage(in));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ExpectHeaderEqual(in, out.value());
  auto* decoded = static_cast<const AckPayload*>(out.value().payload.get());
  ExpectStatesEqual(ack->states, decoded->states);
  ASSERT_EQ(decoded->requests.size(), 1u);
  EXPECT_EQ(decoded->requests[0].endpoint, 8);
}

TEST(WireCodec, Ack2RoundTrip) {
  auto ack2 = std::make_shared<Ack2Payload>();
  ack2->states.emplace(NodeId{0}, FullState());
  Message in = Frame(kGossipAck2, ack2);
  Result<Message> out = wire::DecodeMessage(wire::EncodeMessage(in));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto* decoded = static_cast<const Ack2Payload*>(out.value().payload.get());
  ExpectStatesEqual(ack2->states, decoded->states);
}

TEST(WireCodec, KvRequestRoundTrip) {
  auto req = std::make_shared<KvRequestPayload>();
  req->op_id = 0xfeedfacefeedfaceull;
  req->key = 7919;
  req->value = std::string("hello\0world", 11);  // embedded NUL survives
  req->timestamp = -5;                           // negative survives
  for (int type : {kKvWriteReq, kKvReadReq}) {
    Message in = Frame(type, req);
    Result<Message> out = wire::DecodeMessage(wire::EncodeMessage(in));
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ExpectHeaderEqual(in, out.value());
    auto* decoded =
        static_cast<const KvRequestPayload*>(out.value().payload.get());
    EXPECT_EQ(decoded->op_id, req->op_id);
    EXPECT_EQ(decoded->key, req->key);
    EXPECT_EQ(decoded->value, req->value);
    EXPECT_EQ(decoded->timestamp, req->timestamp);
  }
}

TEST(WireCodec, KvResponseRoundTrip) {
  auto resp = std::make_shared<KvResponsePayload>();
  resp->op_id = 9;
  resp->ack = true;
  resp->found = true;
  resp->timestamp = 1234;
  resp->value = "v42";
  for (int type : {kKvWriteResp, kKvReadResp}) {
    Message in = Frame(type, resp);
    Result<Message> out = wire::DecodeMessage(wire::EncodeMessage(in));
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    auto* decoded =
        static_cast<const KvResponsePayload*>(out.value().payload.get());
    EXPECT_EQ(decoded->op_id, resp->op_id);
    EXPECT_TRUE(decoded->ack);
    EXPECT_TRUE(decoded->found);
    EXPECT_EQ(decoded->timestamp, resp->timestamp);
    EXPECT_EQ(decoded->value, resp->value);
  }
}

// ---------------------------------------------------------------------------
// Rejection: the fuzz-ish part.

std::string EncodeRepresentative() {
  auto ack = std::make_shared<AckPayload>();
  ack->states.emplace(NodeId{2}, FullState());
  ack->requests = {{.endpoint = 8, .generation = 300, .max_version = 12}};
  return wire::EncodeMessage(Frame(kGossipAck, ack));
}

TEST(WireCodec, TruncationAtEveryPrefixRejected) {
  const std::string frame = EncodeRepresentative();
  ASSERT_GT(frame.size(), wire::kHeaderSize);
  for (size_t len = 0; len < frame.size(); ++len) {
    Result<Message> out = wire::DecodeMessage(frame.substr(0, len));
    EXPECT_FALSE(out.ok()) << "prefix of " << len << " bytes decoded";
  }
  // Sanity: the full frame still decodes.
  EXPECT_TRUE(wire::DecodeMessage(frame).ok());
}

TEST(WireCodec, CorruptMagicVersionTypeRejected) {
  const std::string frame = EncodeRepresentative();
  {
    std::string bad = frame;
    bad[0] = static_cast<char>(0x00);  // magic
    Result<Message> out = wire::DecodeMessage(bad);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kCorruptData);
  }
  {
    std::string bad = frame;
    bad[1] = static_cast<char>(wire::kVersion + 1);
    EXPECT_FALSE(wire::DecodeMessage(bad).ok());
  }
  {
    // A v2 frame: the old header with its u64 per-pair counter between `to`
    // and `id`. Its layout is not v3's, so it must be named as skew rather
    // than parsed with the fields shifted.
    std::string v2 = frame;
    v2[1] = static_cast<char>(2);
    v2.insert(14, std::string(8, '\0'));
    Result<Message> out = wire::DecodeMessage(v2);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kVersionSkew);
  }
  // Negative node ids: `from` is header bytes 6..9 and `to` bytes 10..13,
  // little-endian, so setting the top byte makes each negative.
  for (size_t sign_byte : {size_t{9}, size_t{13}}) {
    std::string bad = frame;
    bad[sign_byte] = static_cast<char>(0xff);
    Result<Message> out = wire::DecodeMessage(bad);
    ASSERT_FALSE(out.ok()) << "sign byte " << sign_byte;
    EXPECT_EQ(out.status().code(), StatusCode::kCorruptData);
  }
  {
    std::string bad = frame;
    bad[2] = static_cast<char>(0x7f);  // type -> unknown discriminator
    Result<Message> out = wire::DecodeMessage(bad);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kCorruptData);
  }
}

TEST(WireCodec, TrailingGarbageRejected) {
  std::string frame = EncodeRepresentative();
  frame += '\x01';
  Result<Message> out = wire::DecodeMessage(frame);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruptData);
}

TEST(WireCodec, KvResponseRejectsUnknownFlagBits) {
  auto resp = std::make_shared<KvResponsePayload>();
  resp->op_id = 9;
  resp->ack = true;
  std::string frame = wire::EncodeMessage(Frame(kKvWriteResp, resp));
  // flags is the first body byte after op_id (header + 8).
  const size_t flags_at = wire::kHeaderSize + 8;
  ASSERT_LT(flags_at, frame.size());
  frame[flags_at] = static_cast<char>(0x80 | frame[flags_at]);
  EXPECT_FALSE(wire::DecodeMessage(frame).ok());
}

TEST(WireCodec, RandomByteFlipsNeverCrash) {
  const std::string frame = EncodeRepresentative();
  // Deterministic walk: flip each byte to a handful of values; the decoder
  // must return (ok or error), never crash or hang.
  int accepted = 0;
  for (size_t i = 0; i < frame.size(); ++i) {
    for (uint8_t delta : {0x01, 0x80, 0xff}) {
      std::string bad = frame;
      bad[i] = static_cast<char>(bad[i] ^ delta);
      if (wire::DecodeMessage(bad).ok()) {
        ++accepted;
      }
    }
  }
  // Many single-byte flips legitimately decode (they only change values,
  // not structure); the point is the loop completed without UB. Still, the
  // magic/version/type bytes alone guarantee some rejects.
  EXPECT_LT(accepted, static_cast<int>(frame.size() * 3));
}

}  // namespace
}  // namespace scalecheck
