#include "src/kv/kv_config.h"

#include <algorithm>

namespace scalecheck {

const char* KvConsistencyName(KvConsistency level) {
  switch (level) {
    case KvConsistency::kOne:
      return "one";
    case KvConsistency::kQuorum:
      return "quorum";
    case KvConsistency::kAll:
      return "all";
  }
  return "unknown";
}

int KvRequiredAcks(KvConsistency level, int replication_factor) {
  switch (level) {
    case KvConsistency::kOne:
      return 1;
    case KvConsistency::kQuorum:
      return replication_factor / 2 + 1;
    case KvConsistency::kAll:
      return std::max(1, replication_factor);
  }
  return replication_factor / 2 + 1;
}

double RepairByteAllowance(const KvConfig& kv, double elapsed_seconds) {
  return static_cast<double>(kv.repair_rate_bytes) * elapsed_seconds * 2.0 +
         4.0 * 1024.0 * 1024.0;
}

}  // namespace scalecheck
