// The benchmark's four workloads, run through the public scale-check APIs
// (ExperimentSuite, RunSingle/Cluster, FaultSearch). See README.md for why
// each was chosen and which layer metric should move on which workload.

#ifndef SCALEBENCH_WORKLOADS_H_
#define SCALEBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace scalebench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  // Client ops per virtual second on kv-durable-n64 (ignored elsewhere).
  double kv_rate = 2000.0;
  // Traced run: spans around every call into a layer plus per-layer metrics.
  bool trace = false;
};

// One host-time interval around a call into a layer. Times are nanoseconds
// since the process's first span. `placed` marks spans whose duration comes
// from a layer's own timer (SimProfiler phases, the storage wrapper) and
// whose position inside the parent is reconstructed, not observed.
struct Span {
  std::string name;
  std::string layer;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  bool placed = false;
};

struct Outcome {
  // Host seconds of the workload itself, and CPU seconds over all threads.
  double wall_s = 0.0;
  double cpu_s = 0.0;
  // Process peak resident set after the workload (before set-up is timed).
  double peak_rss_mb = 0.0;
  // Host seconds building all of the workload's deployments, one entry per
  // build (several per repetition).
  std::vector<double> setup_s;
  // Cells (client requests on kv-durable-n64) attempted and failed.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> check_failures;
  // Deterministic counts: equal on every run with the same options.
  std::map<std::string, int64_t> counts;
  // Per-layer metrics (traced runs, plus the suite executor's cell timings
  // on untraced fig3) and spans (traced runs).
  std::map<std::string, double> layers;
  std::vector<Span> spans;
};

bool IsWorkload(const std::string& name);

// Runs the workload once, checks its outputs, and (untraced) times the
// construction of its deployments.
Outcome RunWorkload(const Options& options);

}  // namespace scalebench

#endif  // SCALEBENCH_WORKLOADS_H_
