#include "src/net/wire.h"

#include <cstring>
#include <memory>
#include <utility>

#include "src/common/check.h"
#include "src/gossip/digest_codec.h"
#include "src/gossip/messages.h"
#include "src/kv/anti_entropy.h"
#include "src/kv/kv_service.h"

namespace scalecheck {
namespace wire {
namespace {

// ---------------------------------------------------------------------------
// Primitive little-endian writer / bounds-checked reader.

// Writes into a caller-owned buffer so send loops can recycle capacity
// across frames instead of allocating per message.
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void Reserve(size_t n) { out_->reserve(out_->size() + n); }
  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void I32(int32_t v) { Raw(&v, 4); }
  void I64(int64_t v) { Raw(&v, 8); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    U64(bits);
  }
  void Bytes(std::string_view v) {
    U32(static_cast<uint32_t>(v.size()));
    out_->append(v.data(), v.size());
  }

  // Raw buffer access for section codecs (delta-varint digests).
  std::string* buffer() { return out_; }

 private:
  void Raw(const void* p, size_t n) {
    // Little-endian layout is the wire format; every supported target is
    // little-endian, asserted once at decode via the magic byte position.
    out_->append(reinterpret_cast<const char*>(p), n);
  }

  std::string* out_;
};

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* v) { return Raw(v, 1); }
  bool U32(uint32_t* v) { return Raw(v, 4); }
  bool U64(uint64_t* v) { return Raw(v, 8); }
  bool I32(int32_t* v) { return Raw(v, 4); }
  bool I64(int64_t* v) { return Raw(v, 8); }
  bool F64(double* v) {
    uint64_t bits;
    if (!U64(&bits)) return false;
    std::memcpy(v, &bits, 8);
    return true;
  }
  bool Bytes(std::string* v) {
    uint32_t n;
    if (!U32(&n) || n > Remaining()) return false;
    v->assign(data_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  // Rejects element counts that could not possibly fit in the remaining
  // bytes, so a corrupt count cannot drive a huge allocation or a long loop.
  bool Count(uint32_t* n, size_t min_element_size) {
    return U32(n) && static_cast<size_t>(*n) * min_element_size <= Remaining();
  }

  // Delta-varint digest section (its own internal count guard).
  bool Digests(std::vector<GossipDigest>* out) {
    return digest_codec::Decode(data_, &pos_, out);
  }

  size_t Remaining() const { return data_.size() - pos_; }

 private:
  bool Raw(void* p, size_t n) {
    if (Remaining() < n) return false;
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Gossip state encoding.

void EncodeDigests(Writer* w, const std::vector<GossipDigest>& digests) {
  digest_codec::Encode(digests, w->buffer());
}

bool DecodeDigests(Reader* r, std::vector<GossipDigest>* digests) {
  return r->Digests(digests);
}

void EncodeEndpointState(Writer* w, const EndpointState& state) {
  w->I64(state.heartbeat().generation);
  w->I64(state.heartbeat().version);
  w->U32(static_cast<uint32_t>(state.app_states().size()));
  for (const auto& [key, value] : state.app_states()) {
    w->I32(static_cast<int32_t>(key));
    w->I64(value.version);
    w->I32(static_cast<int32_t>(value.status));
    w->F64(value.load);
    w->U32(static_cast<uint32_t>(value.tokens.size()));
    for (Token t : value.tokens) w->U64(t);
  }
}

bool DecodeEndpointState(Reader* r, EndpointState* state) {
  int64_t generation, hb_version;
  uint32_t n_app;
  if (!r->I64(&generation) || !r->I64(&hb_version) ||
      !r->Count(&n_app, /*min_element_size=*/24)) {
    return false;
  }
  *state = EndpointState(generation);
  state->mutable_heartbeat().version = hb_version;
  int32_t prev_key = -1;
  for (uint32_t i = 0; i < n_app; ++i) {
    int32_t key, status;
    VersionedValue value;
    uint32_t n_tokens;
    if (!r->I32(&key) || !r->I64(&value.version) || !r->I32(&status) ||
        !r->F64(&value.load) || !r->Count(&n_tokens, /*min_element_size=*/8)) {
      return false;
    }
    if (key < static_cast<int32_t>(ApplicationStateKey::kStatus) ||
        key > static_cast<int32_t>(ApplicationStateKey::kLoad) ||
        key <= prev_key ||  // must be strictly ascending (map order), no dups
        status < static_cast<int32_t>(StatusKind::kUnknown) ||
        status > static_cast<int32_t>(StatusKind::kRemoved)) {
      return false;
    }
    prev_key = key;
    value.status = static_cast<StatusKind>(status);
    value.tokens.resize(n_tokens);
    for (Token& t : value.tokens) {
      if (!r->U64(&t)) return false;
    }
    state->Set(static_cast<ApplicationStateKey>(key), std::move(value));
  }
  return true;
}

void EncodeStateMap(Writer* w, const EndpointStateMap& states) {
  w->U32(static_cast<uint32_t>(states.size()));
  for (const auto& [node, state] : states) {
    w->I32(node);
    EncodeEndpointState(w, state);
  }
}

bool DecodeStateMap(Reader* r, EndpointStateMap* states) {
  uint32_t n;
  if (!r->Count(&n, /*min_element_size=*/24)) return false;
  NodeId prev = kInvalidNode;
  for (uint32_t i = 0; i < n; ++i) {
    NodeId node;
    if (!r->I32(&node) || (i > 0 && node <= prev)) return false;
    prev = node;
    if (!DecodeEndpointState(r, &(*states)[node])) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// KV payload encoding.

void EncodeKvRequest(Writer* w, const KvRequestPayload& req) {
  w->U64(req.op_id);
  w->U64(req.key);
  w->I64(req.timestamp);
  w->Bytes(req.value);
}

bool DecodeKvRequest(Reader* r, KvRequestPayload* req) {
  return r->U64(&req->op_id) && r->U64(&req->key) && r->I64(&req->timestamp) &&
         r->Bytes(&req->value);
}

void EncodeKvResponse(Writer* w, const KvResponsePayload& resp) {
  w->U64(resp.op_id);
  w->U8(static_cast<uint8_t>((resp.ack ? 1 : 0) | (resp.found ? 2 : 0)));
  w->I64(resp.timestamp);
  w->Bytes(resp.value);
}

bool DecodeKvResponse(Reader* r, KvResponsePayload* resp) {
  uint8_t flags;
  if (!r->U64(&resp->op_id) || !r->U8(&flags) || (flags & ~3u) != 0 ||
      !r->I64(&resp->timestamp) || !r->Bytes(&resp->value)) {
    return false;
  }
  resp->ack = (flags & 1) != 0;
  resp->found = (flags & 2) != 0;
  return true;
}

// ---------------------------------------------------------------------------
// Anti-entropy repair payload encoding.

// A tree level; MerkleTree depths are CHECKed into [1, 20], so any larger
// level on the wire is corruption, not a config we ever run.
constexpr uint32_t kMaxMerkleLevel = 20;

// A node index at `level` must fit the level's width; strictly ascending
// order is part of the format (it is how the sender builds batches), so a
// decoder seeing disorder is seeing corruption.
bool ValidLevelIndex(uint32_t level, uint64_t index, uint64_t prev,
                     bool first) {
  if (index >= (uint64_t{1} << level)) {
    return false;
  }
  return first || index > prev;
}

void EncodeKvRepairHash(Writer* w, const KvRepairHashPayload& req) {
  w->U64(req.session_id);
  w->U32(req.level);
  w->U32(static_cast<uint32_t>(req.hashes.size()));
  for (const auto& [index, hash] : req.hashes) {
    w->U64(index);
    w->U64(hash.lo);
    w->U64(hash.hi);
  }
}

bool DecodeKvRepairHash(Reader* r, KvRepairHashPayload* req) {
  uint32_t n;
  if (!r->U64(&req->session_id) || !r->U32(&req->level) ||
      req->level > kMaxMerkleLevel || !r->Count(&n, /*min_element_size=*/24)) {
    return false;
  }
  req->hashes.reserve(n);
  uint64_t prev = 0;
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t index;
    DigestValue hash;
    if (!r->U64(&index) || !r->U64(&hash.lo) || !r->U64(&hash.hi) ||
        !ValidLevelIndex(req->level, index, prev, i == 0)) {
      return false;
    }
    prev = index;
    req->hashes.emplace_back(index, hash);
  }
  return true;
}

void EncodeKvRepairDiff(Writer* w, const KvRepairDiffPayload& resp) {
  w->U64(resp.session_id);
  w->U32(resp.level);
  w->U32(static_cast<uint32_t>(resp.differing.size()));
  for (uint64_t index : resp.differing) {
    w->U64(index);
  }
}

bool DecodeKvRepairDiff(Reader* r, KvRepairDiffPayload* resp) {
  uint32_t n;
  if (!r->U64(&resp->session_id) || !r->U32(&resp->level) ||
      resp->level > kMaxMerkleLevel || !r->Count(&n, /*min_element_size=*/8)) {
    return false;
  }
  resp->differing.reserve(n);
  uint64_t prev = 0;
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t index;
    if (!r->U64(&index) ||
        !ValidLevelIndex(resp->level, index, prev, i == 0)) {
      return false;
    }
    prev = index;
    resp->differing.push_back(index);
  }
  return true;
}

}  // namespace

void EncodeMessageTo(const Message& msg, std::string* out) {
  out->clear();
  Writer w(out);
  CHECK_NOTNULL(msg.payload.get());
  // One up-front reservation: SizeBytes() is the payload's own accounting of
  // its encoded size, so the append loop below almost never reallocates.
  w.Reserve(kHeaderSize + msg.payload->SizeBytes() + 16);
  w.U8(kMagic);
  w.U8(kVersion);
  w.I32(msg.type);
  w.I32(msg.from);
  w.I32(msg.to);
  w.U64(msg.id);
  switch (msg.type) {
    case kGossipSyn:
      EncodeDigests(&w, static_cast<const SynPayload&>(*msg.payload).digests);
      break;
    case kGossipAck: {
      const auto& ack = static_cast<const AckPayload&>(*msg.payload);
      EncodeDigests(&w, ack.requests);
      EncodeStateMap(&w, ack.states);
      break;
    }
    case kGossipAck2:
      EncodeStateMap(&w,
                     static_cast<const Ack2Payload&>(*msg.payload).states);
      break;
    case kKvWriteReq:
    case kKvReadReq:
    case kKvRepairStreamWrite:
      EncodeKvRequest(&w,
                      static_cast<const KvRequestPayload&>(*msg.payload));
      break;
    case kKvWriteResp:
    case kKvReadResp:
      EncodeKvResponse(&w,
                       static_cast<const KvResponsePayload&>(*msg.payload));
      break;
    case kKvRepairHashReq:
      EncodeKvRepairHash(
          &w, static_cast<const KvRepairHashPayload&>(*msg.payload));
      break;
    case kKvRepairHashResp:
      EncodeKvRepairDiff(
          &w, static_cast<const KvRepairDiffPayload&>(*msg.payload));
      break;
    default:
      CHECK(false) << "EncodeMessage: unknown message type " << msg.type;
  }
}

std::string EncodeMessage(const Message& msg) {
  std::string out;
  EncodeMessageTo(msg, &out);
  return out;
}

Result<Message> DecodeMessage(std::string_view data) {
  Reader r(data);
  uint8_t magic, version;
  if (!r.U8(&magic) || !r.U8(&version)) {
    return Status::Truncated("frame shorter than codec header");
  }
  if (magic != kMagic) {
    return Status::CorruptData("bad frame magic");
  }
  if (version != kVersion) {
    return Status::VersionSkew("unsupported codec version");
  }
  Message msg;
  if (!r.I32(&msg.type) || !r.I32(&msg.from) || !r.I32(&msg.to) ||
      !r.U64(&msg.id)) {
    return Status::Truncated("frame shorter than codec header");
  }
  if (msg.from < 0 || msg.to < 0) {
    // Receivers index per-node state by these ids (kv-durability's ack
    // sources among them).
    return Status::CorruptData("negative node id");
  }
  bool ok = false;
  switch (msg.type) {
    case kGossipSyn: {
      auto syn = std::make_shared<SynPayload>();
      ok = DecodeDigests(&r, &syn->digests);
      msg.payload = std::move(syn);
      break;
    }
    case kGossipAck: {
      auto ack = std::make_shared<AckPayload>();
      ok = DecodeDigests(&r, &ack->requests) && DecodeStateMap(&r, &ack->states);
      msg.payload = std::move(ack);
      break;
    }
    case kGossipAck2: {
      auto ack2 = std::make_shared<Ack2Payload>();
      ok = DecodeStateMap(&r, &ack2->states);
      msg.payload = std::move(ack2);
      break;
    }
    case kKvWriteReq:
    case kKvReadReq:
    case kKvRepairStreamWrite: {
      auto req = std::make_shared<KvRequestPayload>();
      ok = DecodeKvRequest(&r, req.get());
      msg.payload = std::move(req);
      break;
    }
    case kKvWriteResp:
    case kKvReadResp: {
      auto resp = std::make_shared<KvResponsePayload>();
      ok = DecodeKvResponse(&r, resp.get());
      msg.payload = std::move(resp);
      break;
    }
    case kKvRepairHashReq: {
      auto req = std::make_shared<KvRepairHashPayload>();
      ok = DecodeKvRepairHash(&r, req.get());
      msg.payload = std::move(req);
      break;
    }
    case kKvRepairHashResp: {
      auto resp = std::make_shared<KvRepairDiffPayload>();
      ok = DecodeKvRepairDiff(&r, resp.get());
      msg.payload = std::move(resp);
      break;
    }
    default:
      return Status::CorruptData("unknown message type");
  }
  if (!ok) {
    // Reader failures inside a known body are truncation *or* corruption
    // (bad discriminator / over-long count); the distinction the caller
    // acts on is "incomplete frame" vs "never valid", so classify by
    // whether input ran dry.
    return r.Remaining() == 0
               ? Result<Message>(Status::Truncated("frame body truncated"))
               : Result<Message>(Status::CorruptData("malformed frame body"));
  }
  if (r.Remaining() != 0) {
    return Status::CorruptData("trailing bytes after frame body");
  }
  return msg;
}

}  // namespace wire
}  // namespace scalecheck
