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

bool RepairOverBudget(const KvConfig& kv, double elapsed_seconds, int64_t bytes,
                      int64_t sessions) {
  const double byte_allowance =
      static_cast<double>(kv.repair_rate_bytes) * elapsed_seconds * 2.0 + 4.0 * 1024.0 * 1024.0;
  const double intervals = elapsed_seconds / std::max(1e-3, kv.repair_interval.seconds());
  const double session_allowance = intervals * kv.repair_max_sessions * 2.0 + 4.0;
  return static_cast<double>(bytes) > byte_allowance ||
         static_cast<double>(sessions) > session_allowance;
}

}  // namespace scalecheck
