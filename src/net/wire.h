// The shared wire codec: one framing + serialization format for every
// message the protocol layer sends, used verbatim by both carriers.
//
//   - TcpTransport encodes each Message into a frame body (this file) and
//     prefixes it with a 4-byte length on the socket.
//   - SimTransport can round-trip every payload through the same codec
//     (encode -> decode -> deliver the copy) to prove, inside the
//     deterministic simulator, that the bytes real sockets would carry
//     reconstruct payloads the protocol cannot distinguish.
//
// Format (all integers little-endian, fixed width):
//
//   header : u8 magic 0x5C | u8 version 3 | i32 type | i32 from | i32 to
//          | u64 id
//   body   : per Message::type, see wire.cc. Since v2, gossip digest
//            sections (SYN digests, ACK requests) are delta + varint
//            encoded (src/gossip/digest_codec.h): ~3-6 bytes per endpoint
//            instead of 20, which is what keeps N=2048 SYN frames small.
//            v3 dropped the header's u64 per-pair send counter, which no
//            receiver read.
//
// Decoding is strict: every read is bounds-checked, negative node ids,
// unknown message types and status/app-state discriminators are rejected,
// and trailing bytes after a well-formed body are an error. A decoder that
// silently tolerated malformed frames would turn a codec bug into a
// protocol-level heisenbug, which is exactly the class of failure this repo
// exists to surface.

#ifndef SCALECHECK_SRC_NET_WIRE_H_
#define SCALECHECK_SRC_NET_WIRE_H_

#include <string>
#include <string_view>

#include "src/common/result.h"
#include "src/transport/message.h"

namespace scalecheck {
namespace wire {

inline constexpr uint8_t kMagic = 0x5C;
inline constexpr uint8_t kVersion = 3;
// header = magic + version + type + from + to + id.
inline constexpr size_t kHeaderSize = 1 + 1 + 4 + 4 + 4 + 8;

// Serializes the message (header + typed payload body) into a frame body.
// The 4-byte socket length prefix is TcpTransport's concern, not the codec's.
// Requires msg.type to be one of the known gossip/KV types with a matching
// payload object; unknown types CHECK-fail (a send-side programming error,
// not a network condition).
std::string EncodeMessage(const Message& msg);

// Same, appending into *out (cleared first) so a send loop can reuse one
// buffer's capacity instead of allocating a fresh string per frame.
void EncodeMessageTo(const Message& msg, std::string* out);

// Parses a frame body produced by EncodeMessage. Returns kTruncated when the
// input ends mid-field, kVersionSkew for another codec version, and
// kCorruptData for bad magic, a negative node id, bad discriminators or
// trailing bytes.
Result<Message> DecodeMessage(std::string_view data);

}  // namespace wire
}  // namespace scalecheck

#endif  // SCALECHECK_SRC_NET_WIRE_H_
