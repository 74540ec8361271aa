// scalebench_ref: a fixed reference kernel that measures how fast the host
// runs simulator-like code right now.
//
//   scalebench_ref
//
// Prints one JSON object: {"reference_s": <host seconds>, "checksum": <n>}.
//
// The host this benchmark runs on is shared: its speed drifts by up to 2x
// within minutes as other tenants come and go. run.py times this kernel right
// before and after every workload repetition and reports the workload's time
// in units of it, which cancels most of that drift. The kernel does what the
// simulator's hot paths do -- hash-map updates and lookups, a timer queue,
// small heap blocks allocated and freed -- over a working set of some tens
// of MB. It links nothing from src/, so no change to the program under test
// changes it; its checksum is the same on every run.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace {

constexpr int kIterations = 3000000;
constexpr uint64_t kKeys = 1 << 20;
constexpr size_t kQueueDepth = 100000;
constexpr size_t kBlocks = 1 << 14;

uint64_t Kernel() {
  uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::unordered_map<uint64_t, uint64_t> map;
  using Timer = std::pair<uint64_t, uint64_t>;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers;
  std::vector<std::unique_ptr<std::vector<uint32_t>>> blocks(kBlocks);
  uint64_t checksum = 0;
  for (int i = 0; i < kIterations; ++i) {
    uint64_t key = next() % kKeys;
    map[key] += static_cast<uint64_t>(i);
    timers.emplace(next() % 1000000, key);
    if (timers.size() > kQueueDepth) {
      checksum += timers.top().second;
      timers.pop();
    }
    if ((i & 7) == 0) {
      auto& block = blocks[next() % kBlocks];
      block = std::make_unique<std::vector<uint32_t>>(64 + next() % 256,
                                                      static_cast<uint32_t>(i));
      checksum += block->size();
    }
    auto it = map.find(next() % kKeys);
    if (it != map.end()) {
      checksum += it->second;
    }
  }
  return checksum;
}

}  // namespace

int main() {
  auto start = std::chrono::steady_clock::now();
  uint64_t checksum = Kernel();
  double seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  std::printf("{\"reference_s\": %.9f, \"checksum\": %llu}\n", seconds,
              static_cast<unsigned long long>(checksum));
  return 0;
}
