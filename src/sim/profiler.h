// Lightweight per-run profiler for the simulation core.
//
// Two strictly separated halves:
//
//  * Counters — deterministic per-subsystem operation counts (events
//    executed/cancelled, gossip digest-cache maintenance, payload-pool
//    recycling). They are pure functions of (spec, scale, mode, seed), so
//    they MAY be serialized into RunResult JSON without breaking the
//    byte-identical determinism contract. They are how tests assert
//    algorithmic complexity ("a steady-state gossip round refreshes O(changes)
//    digest entries") without flaky wall-clock thresholds — the approach
//    ScalAna takes for scaling-loss attribution.
//
//  * Wall timers — real host nanoseconds per phase. Useful for bench output
//    and ad-hoc diagnosis, NEVER serialized into RunResult (the determinism
//    contract forbids host wall-clock there).
//
// Profiling is opt-in (Cluster::Options::profiler). A null profiler costs
// nothing on the hot path: components keep their own plain counters and the
// Cluster sums them into RunResult::profile once at result-collection time.
// The profiler object itself holds only the wall timers, so one profiler
// reused across runs accumulates their phase times.

#ifndef SCALECHECK_SRC_SIM_PROFILER_H_
#define SCALECHECK_SRC_SIM_PROFILER_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "src/common/strings.h"

namespace scalecheck {

class SimProfiler {
 public:
  // Deterministic operation counts, aggregated cluster-wide.
  struct Counters {
    // Event engine.
    uint64_t events_executed = 0;
    uint64_t events_cancelled = 0;
    uint64_t event_slot_high_water = 0;  // distinct pooled slots ever allocated

    // Network.
    uint64_t messages_sent = 0;

    // Gossip: protocol volume and digest-cache maintenance. A naive
    // implementation refreshes (endpoints × builds) digest entries; the
    // incremental one refreshes O(updates_applied + full rebuild entries).
    uint64_t gossip_syn_handled = 0;
    uint64_t gossip_states_applied = 0;
    uint64_t gossip_updates_applied = 0;
    uint64_t digest_builds = 0;
    uint64_t digest_entries_refreshed = 0;
    uint64_t digest_full_rebuilds = 0;

    // Payload pooling.
    uint64_t payload_reuses = 0;
    uint64_t payload_allocs = 0;

    // Memory-layout accounting (the N=2048 overhaul): bytes of delta-encoded
    // digest sections sent (SYN payloads, wire-v2 varint accounting), the
    // per-node gossip arena footprint and endpoint-table footprint summed
    // across the cluster, and the endpoint intern table.
    uint64_t gossip_digest_bytes_sent = 0;
    uint64_t gossip_arena_bytes = 0;
    uint64_t endpoint_store_bytes = 0;
    uint64_t intern_table_size = 0;
    uint64_t intern_table_bytes = 0;

    // Host bytes of the phi windows' chunk slabs, summed across the cluster
    // (one window per observer-peer pair; not charged to MemoryModel).
    uint64_t fd_window_bytes = 0;

    void WriteJson(JsonWriter* w) const;
  };

  enum Phase : int {
    kPhaseBuild = 0,    // deployment construction
    kPhaseRun = 1,      // the simulator event loop
    kPhaseCollect = 2,  // result collection
    kNumPhases = 3,
  };

  // RAII host-nanosecond scope. A null profiler is a no-op (no clock reads).
  class Timed {
   public:
    Timed(SimProfiler* profiler, Phase phase) : profiler_(profiler), phase_(phase) {
      if (profiler_ != nullptr) {
        start_ = std::chrono::steady_clock::now();
      }
    }
    ~Timed() {
      if (profiler_ != nullptr) {
        profiler_->AddWallNanos(
            phase_, std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count());
      }
    }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    SimProfiler* profiler_;
    Phase phase_;
    std::chrono::steady_clock::time_point start_;
  };

  void AddWallNanos(Phase phase, int64_t nanos) { wall_ns_[phase] += nanos; }
  int64_t wall_nanos(Phase phase) const { return wall_ns_[phase]; }

 private:
  int64_t wall_ns_[kNumPhases] = {};
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_SIM_PROFILER_H_
