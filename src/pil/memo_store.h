// The PIL memoization database (Figure 2-c/d).
//
// During the one-time memoization run, every PIL-replaced invocation records
// (function, input digest) -> (output bytes, uncontended CPU duration,
// recording sequence). The duration stored is the *dedicated-core* time (work
// / core speed), i.e. the function's own CPU time — contention delays from
// the colocated memoization run must not leak into replays, which is exactly
// why the paper records in-situ per-function time rather than wall time.
//
// The store is content-addressed: replay looks up by input digest. The paper
// caps the state space by recording only the pairs observed in one run under
// order determinism; Lookup misses are possible if a replay diverges, and are
// surfaced as an accuracy metric rather than hidden.

#ifndef SCALECHECK_SRC_PIL_MEMO_STORE_H_
#define SCALECHECK_SRC_PIL_MEMO_STORE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/hash.h"
#include "src/common/result.h"
#include "src/common/types.h"
#include "src/pil/function_registry.h"

namespace scalecheck {

struct MemoRecord {
  std::vector<uint8_t> output;
  VirtualDuration cpu_duration;  // dedicated-core execution time
  WorkUnits work = 0;
  uint64_t sequence = 0;  // global recording order
};

class MemoStore {
 public:
  struct Stats {
    uint64_t records = 0;
    uint64_t duplicate_puts = 0;       // same key re-recorded (same output)
    uint64_t determinism_violations = 0;  // same key, DIFFERENT output
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  // Records an invocation. Keeps the first record for a key; duplicate puts
  // with identical output are counted, differing output flags a determinism
  // violation (the function was not PIL-safe after all).
  void Put(PilFunctionId function, const DigestValue& input, MemoRecord record);

  // Returns nullptr on miss. Updates lookup statistics.
  const MemoRecord* Lookup(PilFunctionId function, const DigestValue& input);

  // Read-only probe (no stats update).
  const MemoRecord* Peek(PilFunctionId function, const DigestValue& input) const;

  size_t size() const { return map_.size(); }
  const Stats& stats() const { return stats_; }
  double HitRate() const {
    return stats_.lookups == 0
               ? 0.0
               : static_cast<double>(stats_.hits) / static_cast<double>(stats_.lookups);
  }

  // Binary serialization (format v2), so a memoization run can be persisted
  // and replayed many times (the paper's "replay numerous times" workflow).
  //
  // v2 layout — every field integrity-checked so a damaged DB can never load
  // as a silently-wrong store:
  //   u64 magic "SCPMEMO2" | u32 version=2 | u64 count | u32 crc32(header)
  //   per record: u32 payload_len | payload | u32 crc32(payload)
  //   payload: u32 function | u64 digest.lo | u64 digest.hi |
  //            i64 duration_ns | i64 work | u64 sequence |
  //            u64 output_size | output bytes
  std::vector<uint8_t> Serialize() const;

  // Structured parse. Distinguishes the three damage classes:
  //   kTruncated   — bytes are a proper prefix of a valid stream (the
  //                  signature of a crash mid-write or a torn copy),
  //   kCorruptData — checksum/structure mismatch (bit rot, bad magic),
  //   kVersionSkew — well-formed header from another format version (v1
  //                  stores must be re-memoized, not guessed at).
  // On error `out` is left empty, never partially filled.
  static Status Parse(const std::vector<uint8_t>& bytes, MemoStore* out);

  // Total bytes of memoized outputs (memoization-DB footprint reporting).
  int64_t output_bytes() const { return output_bytes_; }

  // File persistence. Save is crash-safe: bytes are written to
  // TempPathFor(path) and atomically renamed over the destination, so an
  // interrupted Save leaves the previous DB intact.
  Status Save(const std::string& path) const;
  static Result<MemoStore> Load(const std::string& path);
  static std::string TempPathFor(const std::string& path) { return path + ".tmp"; }

 private:
  struct Key {
    PilFunctionId function;
    DigestValue input;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return DigestValueHash()(k.input) ^ (static_cast<size_t>(k.function) * 0x9e3779b9);
    }
  };

  std::unordered_map<Key, MemoRecord, KeyHash> map_;
  Stats stats_;
  uint64_t next_sequence_ = 1;
  int64_t output_bytes_ = 0;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_PIL_MEMO_STORE_H_
