// Tunable consistency levels for the KV data path.
//
// Lives in its own header so ClusterConfig and the CLI can name a level
// without pulling the whole KvService (ring, gossip, storage) include graph
// into every config consumer — the same reason CheckOptions is split out.

#ifndef SCALECHECK_SRC_KV_KV_CONSISTENCY_H_
#define SCALECHECK_SRC_KV_KV_CONSISTENCY_H_

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

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_KV_KV_CONSISTENCY_H_
