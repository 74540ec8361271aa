// The quorum KV data path's settings, each declared once with its default.
//
// ClusterConfig holds one as `kv`; every node's KvService and its AntiEntropy
// scheduler read it, and so does the invariant checker (through the run's
// ClusterConfig). Settings that no caller varies are named constants beside
// their one reader instead (kv_service.cc, anti_entropy.cc).
//
// Lives in its own header so ClusterConfig, BugSpec and the CLI can name a
// setting without the KvService include graph (ring, gossip, storage).

#ifndef SCALECHECK_SRC_KV_KV_CONFIG_H_
#define SCALECHECK_SRC_KV_KV_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "src/common/types.h"

namespace scalecheck {

// How many replica acks a coordinator waits for before acknowledging the
// client. The replica SET is always the full natural-endpoint list; the level
// only tunes the ack threshold, so ONE still fans the write out to every live
// replica (Cassandra semantics — weaker levels trade durability confirmation,
// not replication).
enum class KvConsistency : int {
  kOne = 0,     // first ack wins
  kQuorum = 1,  // floor(RF/2)+1 acks
  kAll = 2,     // every replica must ack
};

const char* KvConsistencyName(KvConsistency level);

// The ack threshold the level demands at the given replication factor.
int KvRequiredAcks(KvConsistency level, int replication_factor);

struct KvConfig {
  // Enables the quorum KV service on every node (examples, user-impact
  // metrics). The control-plane experiments leave it off.
  bool enabled = false;
  // Client-request attempts within the request deadline. The default is
  // non-retrying so the control-plane experiments observe raw
  // unavailability; KV load (BugSpec::MakeConfig) opts in.
  int max_attempts = 1;
  // Ack threshold for reads and writes (ONE / QUORUM / ALL).
  KvConsistency consistency = KvConsistency::kQuorum;
  // Durable replica path: per-node WAL with group commit; a write is acked
  // only after the sync that makes it durable. A crash loses the unsynced
  // tail plus the in-memory engine, restart replays the durable prefix. Off
  // by default so the control-plane experiments keep their calibrated
  // (unrealistically crash-durable) storage behaviour.
  bool wal = false;
  VirtualDuration wal_sync_interval = VirtualDuration::Millis(250);
  // Hinted handoff bounds (total hints per coordinator; zero disables) and
  // per-hint TTL.
  size_t hint_limit = 1024;
  VirtualDuration hint_ttl = VirtualDuration::Seconds(120);
  // Anti-entropy repair (anti_entropy.h): periodic Merkle-tree sessions
  // against co-replica peers, streaming only differing leaf ranges. Off by
  // default — when off no AntiEntropy instance exists and the
  // pre-anti-entropy RNG/golden behaviour is untouched.
  bool repair = false;
  VirtualDuration repair_interval = VirtualDuration::Seconds(10);
  // Overload safety: token-bucket byte rate per node, concurrent session
  // cap, per-session timeout.
  int64_t repair_rate_bytes = 256 * 1024;
  int repair_max_sessions = 1;
  VirtualDuration repair_session_timeout = VirtualDuration::Seconds(10);

  bool operator==(const KvConfig&) const = default;
};

// Whether a node that streamed `bytes` of repair in `sessions` sessions in
// its first `elapsed_seconds` is a repair storm: over twice the configured
// byte rate plus 4 MiB of slack for the first sessions, or over twice the
// repair_max_sessions per repair_interval its scheduler may open plus 4.
// Both carriers judge by this one budget.
bool RepairOverBudget(const KvConfig& kv, double elapsed_seconds, int64_t bytes,
                      int64_t sessions);

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_KV_KV_CONFIG_H_
