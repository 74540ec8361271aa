#include "src/pil/memo_store.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/common/check.h"
#include "src/common/strings.h"

namespace scalecheck {

void MemoStore::Put(PilFunctionId function, const DigestValue& input,
                    MemoRecord record) {
  Key key{function, input};
  auto it = map_.find(key);
  if (it != map_.end()) {
    if (it->second.output == record.output) {
      ++stats_.duplicate_puts;
    } else {
      ++stats_.determinism_violations;
    }
    return;
  }
  record.sequence = next_sequence_++;
  output_bytes_ += static_cast<int64_t>(record.output.size());
  map_.emplace(key, std::move(record));
  ++stats_.records;
}

const MemoRecord* MemoStore::Lookup(PilFunctionId function, const DigestValue& input) {
  ++stats_.lookups;
  auto it = map_.find(Key{function, input});
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return &it->second;
}

const MemoRecord* MemoStore::Peek(PilFunctionId function,
                                  const DigestValue& input) const {
  auto it = map_.find(Key{function, input});
  return it == map_.end() ? nullptr : &it->second;
}

namespace {
constexpr uint64_t kMagicV1 = 0x5343504d454d4f31ULL;  // "SCPMEMO1"
constexpr uint64_t kMagicV2 = 0x5343504d454d4f32ULL;  // "SCPMEMO2"
constexpr uint32_t kVersion = 2;
// magic + version + count + header crc.
constexpr size_t kHeaderSize =
    sizeof(uint64_t) + sizeof(uint32_t) + sizeof(uint64_t) + sizeof(uint32_t);
// Fixed-width prefix of a record payload (everything but the output bytes).
constexpr size_t kPayloadFixed = sizeof(uint32_t) + 2 * sizeof(uint64_t) +
                                 2 * sizeof(int64_t) + 2 * sizeof(uint64_t);

template <typename T>
void PutRaw(std::vector<uint8_t>* out, T v) {
  const auto* p = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), p, p + sizeof(T));
}

template <typename T>
bool GetRaw(const std::vector<uint8_t>& in, size_t* pos, T* v) {
  if (*pos + sizeof(T) > in.size()) {
    return false;
  }
  std::memcpy(v, in.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}
}  // namespace

std::vector<uint8_t> MemoStore::Serialize() const {
  std::vector<uint8_t> out;
  // Exact size is knowable up front: header + fixed-width fields per record
  // (including the length prefix and trailing CRC) plus the tracked total of
  // output payload bytes. One reservation avoids the repeated doubling
  // copies a multi-MB store would otherwise pay.
  out.reserve(kHeaderSize +
              map_.size() * (kPayloadFixed + 2 * sizeof(uint32_t)) +
              static_cast<size_t>(output_bytes_));
  PutRaw(&out, kMagicV2);
  PutRaw<uint32_t>(&out, kVersion);
  PutRaw<uint64_t>(&out, map_.size());
  PutRaw<uint32_t>(&out, Crc32(out.data(), out.size()));
  for (const auto& [key, record] : map_) {
    const size_t payload_len = kPayloadFixed + record.output.size();
    PutRaw<uint32_t>(&out, static_cast<uint32_t>(payload_len));
    const size_t payload_start = out.size();
    PutRaw<uint32_t>(&out, key.function);
    PutRaw<uint64_t>(&out, key.input.lo);
    PutRaw<uint64_t>(&out, key.input.hi);
    PutRaw<int64_t>(&out, record.cpu_duration.nanos());
    PutRaw<int64_t>(&out, record.work);
    PutRaw<uint64_t>(&out, record.sequence);
    PutRaw<uint64_t>(&out, record.output.size());
    out.insert(out.end(), record.output.begin(), record.output.end());
    PutRaw<uint32_t>(&out, Crc32(out.data() + payload_start, payload_len));
  }
  return out;
}

Status MemoStore::Parse(const std::vector<uint8_t>& bytes, MemoStore* out) {
  CHECK_NOTNULL(out);
  *out = MemoStore();
  size_t pos = 0;
  uint64_t magic = 0;
  if (!GetRaw(bytes, &pos, &magic)) {
    return Status::Truncated("memo DB shorter than its magic number");
  }
  if (magic == kMagicV1) {
    return Status::VersionSkew("memo DB is format v1; re-run memoization");
  }
  if (magic != kMagicV2) {
    return Status::CorruptData("memo DB magic number mismatch");
  }
  uint32_t version = 0;
  uint64_t count = 0;
  uint32_t header_crc = 0;
  if (!GetRaw(bytes, &pos, &version)) {
    return Status::Truncated("memo DB header cut short at version");
  }
  if (version != kVersion) {
    return Status::VersionSkew(
        StrFormat("memo DB format v%u, this build reads v%u", version, kVersion));
  }
  if (!GetRaw(bytes, &pos, &count) || !GetRaw(bytes, &pos, &header_crc)) {
    return Status::Truncated("memo DB header cut short");
  }
  if (Crc32(bytes.data(), kHeaderSize - sizeof(uint32_t)) != header_crc) {
    return Status::CorruptData("memo DB header checksum mismatch");
  }
  MemoStore parsed;
  uint64_t max_sequence = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t payload_len = 0;
    if (!GetRaw(bytes, &pos, &payload_len)) {
      return Status::Truncated(
          StrFormat("memo DB ends before record %llu of %llu",
                    static_cast<unsigned long long>(i),
                    static_cast<unsigned long long>(count)));
    }
    if (payload_len < kPayloadFixed) {
      return Status::CorruptData(
          StrFormat("memo record %llu declares an impossible length %u",
                    static_cast<unsigned long long>(i), payload_len));
    }
    if (pos + payload_len + sizeof(uint32_t) > bytes.size()) {
      return Status::Truncated(
          StrFormat("memo record %llu cut short (needs %u bytes)",
                    static_cast<unsigned long long>(i), payload_len));
    }
    const size_t payload_start = pos;
    Key key{0, {}};
    MemoRecord record;
    int64_t duration_ns = 0;
    uint64_t output_size = 0;
    GetRaw(bytes, &pos, &key.function);
    GetRaw(bytes, &pos, &key.input.lo);
    GetRaw(bytes, &pos, &key.input.hi);
    GetRaw(bytes, &pos, &duration_ns);
    GetRaw(bytes, &pos, &record.work);
    GetRaw(bytes, &pos, &record.sequence);
    GetRaw(bytes, &pos, &output_size);
    if (output_size != payload_len - kPayloadFixed) {
      return Status::CorruptData(
          StrFormat("memo record %llu output size disagrees with its length",
                    static_cast<unsigned long long>(i)));
    }
    uint32_t record_crc = 0;
    std::memcpy(&record_crc, bytes.data() + payload_start + payload_len,
                sizeof(record_crc));
    if (Crc32(bytes.data() + payload_start, payload_len) != record_crc) {
      return Status::CorruptData(
          StrFormat("memo record %llu checksum mismatch",
                    static_cast<unsigned long long>(i)));
    }
    record.cpu_duration = VirtualDuration::Nanos(duration_ns);
    record.output.assign(bytes.begin() + static_cast<ptrdiff_t>(pos),
                         bytes.begin() + static_cast<ptrdiff_t>(pos + output_size));
    pos += output_size + sizeof(uint32_t);
    max_sequence = std::max(max_sequence, record.sequence);
    parsed.output_bytes_ += static_cast<int64_t>(record.output.size());
    parsed.map_.emplace(key, std::move(record));
  }
  if (pos != bytes.size()) {
    return Status::CorruptData("memo DB has trailing bytes past the last record");
  }
  parsed.stats_.records = parsed.map_.size();
  parsed.next_sequence_ = max_sequence + 1;
  *out = std::move(parsed);
  return Status::Ok();
}

Status MemoStore::Save(const std::string& path) const {
  // Crash-safe write: serialize to a sibling temp file, flush it all the way
  // to the device, then atomically rename over the destination. A crash at
  // any point leaves either the old DB or the new DB at `path`, never a
  // torn mixture — the property the save-crash test asserts.
  const std::vector<uint8_t> bytes = Serialize();
  const std::string tmp = TempPathFor(path);
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open for writing: " + tmp);
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  bool flushed = std::fflush(f) == 0;
  flushed = flushed && ::fsync(::fileno(f)) == 0;
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed || !closed) {
    std::remove(tmp.c_str());
    return Status::IoError("short or failed write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename " + tmp + " over " + path);
  }
  return Status::Ok();
}

Result<MemoStore> MemoStore::Load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("no memo DB at " + path);
  }
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 0) {
    std::fclose(f);
    return Status::IoError("cannot stat " + path);
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  size_t read = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (read != bytes.size()) {
    return Status::IoError("short read from " + path);
  }
  MemoStore store;
  Status parsed = Parse(bytes, &store);
  if (!parsed.ok()) {
    return Status(parsed.code(), path + ": " + parsed.message());
  }
  return store;
}

}  // namespace scalecheck
