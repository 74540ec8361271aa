// A linear history of client KV operations, recorded at the coordinator.
//
// The invariant checker's KV history checker (src/check/invariants.cc) replays
// this history against a read-your-writes / no-lost-acknowledged-writes model.
// Recording happens inside KvService::Submit / Conclude, so the history is
// complete by construction: every client request appears exactly once at
// issue and at most once at conclusion (requests still in flight when the run
// stops stay unconcluded — the same population RunResult reports as
// kv_inflight_at_stop). Ops are ordered by issue time, and
// conclusion_order() gives the conclusion sequence. Recording is locked, as
// real-carrier coordinators record at once; readers exclude writers
// themselves (RealCluster holds every node's monitor). Records sit in a
// std::deque: a run records hundreds of thousands, and a vector's doubling
// would hold the old and the new buffer at once.


#ifndef SCALECHECK_SRC_KV_KV_HISTORY_H_
#define SCALECHECK_SRC_KV_KV_HISTORY_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/kv/kv_service.h"

namespace scalecheck {

struct KvOpRecord {
  uint64_t id = 0;  // index into ops()
  NodeId coordinator = kInvalidNode;
  bool is_write = false;
  uint64_t key = 0;
  std::string value;  // write payload ("" for reads)
  VirtualTime issued_at;

  bool concluded = false;
  KvOutcome outcome = KvOutcome::kUnavailable;
  std::string result_value;  // read result ("" for writes / not found)
  VirtualTime concluded_at;

  // OK writes only: the hybrid timestamp the successful attempt stamped on
  // the replicas, and the replicas whose acks the client's OK rests on. The
  // kv-durability invariant audits exactly these nodes — after any crash
  // recovery, each acker still running must hold a version >= this
  // timestamp, or an acknowledged write was lost.
  int64_t write_timestamp = 0;
  std::vector<NodeId> ackers;
};

class KvHistory {
 public:
  // Returns the record id the coordinator stores on the client op.
  uint64_t RecordIssued(NodeId coordinator, bool is_write, uint64_t key,
                        const std::string& value, VirtualTime now);
  // Called just before RecordConcluded for writes that concluded OK.
  void RecordWriteAcked(uint64_t id, int64_t write_timestamp,
                        const std::vector<NodeId>& ackers);
  // Stamps no earlier than the previous conclusion, so conclusion_order()
  // stays sorted by concluded_at across racing coordinators.
  void RecordConcluded(uint64_t id, KvOutcome outcome,
                       const std::string& result_value, VirtualTime now);

  const std::deque<KvOpRecord>& ops() const { return ops_; }
  // Record ids in the order they concluded.
  const std::vector<uint64_t>& conclusion_order() const {
    return conclusion_order_;
  }
  size_t size() const { return ops_.size(); }
  int64_t concluded_count() const {
    return static_cast<int64_t>(conclusion_order_.size());
  }

 private:
  std::mutex mu_;
  std::deque<KvOpRecord> ops_;
  std::vector<uint64_t> conclusion_order_;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_KV_KV_HISTORY_H_
