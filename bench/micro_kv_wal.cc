// Microbenchmark of the KV write-ahead log (src/kv/wal.h), whose per-record
// CRC is the second-largest self cost of the kv-durable-n64 data path:
//
//   BM_WalAppend   ns per KvWal::Append of a 128-byte value (frame, payload
//                  and its CRC-32) into a log that is synced and restarted
//                  every 4096 records, so it stays cache-sized
//   BM_WalRecover  ns per recovered record of KvWal::Recover over a durable
//                  image of 4096 such records (header check, per-record CRC,
//                  value copy)
//   BM_Crc32       the CRC alone, bytes per second over 128 B and 4 KiB
//
//   ./build/bench/micro_kv_wal

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/kv/wal.h"

namespace scalecheck {
namespace {

constexpr int kRecords = 4096;
const std::string kValue(128, 'v');

void BM_WalAppend(benchmark::State& state) {
  KvWal wal;
  int64_t n = 0;
  for (auto _ : state) {
    if (n % kRecords == 0) {
      wal = KvWal();
    }
    benchmark::DoNotOptimize(wal.Append(static_cast<uint64_t>(n), n, kValue));
    ++n;
  }
  state.counters["per_append"] = benchmark::Counter(
      static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_WalAppend);

void BM_WalRecover(benchmark::State& state) {
  KvWal wal;
  for (int i = 0; i < kRecords; ++i) {
    wal.Append(static_cast<uint64_t>(i), i, kValue);
  }
  wal.Sync();
  const std::vector<uint8_t> image = wal.DurableImage();
  for (auto _ : state) {
    KvWal::RecoverResult result = KvWal::Recover(image);
    benchmark::DoNotOptimize(result.records.data());
  }
  state.counters["per_record"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kRecords,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_WalRecover)->Unit(benchmark::kMicrosecond);

void BM_Crc32(benchmark::State& state) {
  const std::vector<uint8_t> bytes(static_cast<size_t>(state.range(0)), 0x5a);
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = Crc32(bytes.data(), bytes.size(), crc);
  }
  benchmark::DoNotOptimize(crc);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(128)->Arg(4096);

}  // namespace
}  // namespace scalecheck
