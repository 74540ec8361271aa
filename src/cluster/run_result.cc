// RunResult: the end-of-run fold over the nodes, the human Summary line and
// the stable JSON form.

#include "src/cluster/run_result.h"

#include <optional>

#include "src/cluster/config.h"
#include "src/cluster/protocol_node.h"
#include "src/kv/kv_service.h"

namespace scalecheck {

namespace {

void WriteStat(JsonWriter* w, const std::string& key, const RunningStat& stat) {
  w->Key(key).BeginObject();
  w->Field("count", stat.count());
  w->Field("mean", stat.mean());
  w->Field("min", stat.min());
  w->Field("max", stat.max());
  w->Field("sum", stat.sum());
  w->EndObject();
}

}  // namespace

void RunResult::FoldNodeTotals(const std::vector<NodeView>& nodes) {
  std::optional<LogHistogram> latency;
  for (const NodeView& node : nodes) {
    if (node.running()) {
      const Gossiper& gossiper = node.core->gossiper();
      live_endpoints += static_cast<int64_t>(gossiper.LiveEndpointsView().size());
      unreachable_endpoints += static_cast<int64_t>(gossiper.UnreachableEndpointsView().size());
    }
    const KvService* kv = node.core->kv();
    if (kv == nullptr) {
      continue;
    }
    const KvStats& stats = kv->stats();
    kv_issued += stats.ops_one + stats.ops_quorum + stats.ops_all;
    kv_ok += stats.ok;
    kv_unavailable += stats.unavailable;
    kv_timeout += stats.timeout;
    kv_retries += stats.retries;
    kv_gave_up += stats.gave_up;
    kv_wal_bytes += stats.wal_bytes;
    kv_hints_queued += stats.hints_queued;
    kv_hints_replayed += stats.hints_replayed;
    kv_hints_expired += stats.hints_expired;
    kv_read_repairs += stats.read_repairs;
    kv_ops_one += stats.ops_one;
    kv_ops_quorum += stats.ops_quorum;
    kv_ops_all += stats.ops_all;
    kv_repair_sessions += stats.repair_sessions;
    kv_repair_bytes_streamed += stats.repair_bytes_streamed;
    kv_repair_keys_fixed += stats.repair_keys_fixed;
    kv_repair_aborted += stats.repair_aborted;
    if (latency.has_value()) {
      latency->Merge(stats.latency);
    } else {
      latency = stats.latency;
    }
  }
  kv_inflight_at_stop = kv_issued - (kv_ok + kv_unavailable + kv_timeout);
  if (latency.has_value()) {
    kv_latency_p50 = latency->PercentileDuration(50);
    kv_latency_p99 = latency->PercentileDuration(99);
    kv_latency_p999 = latency->PercentileDuration(99.9);
  }
}

std::string RunResult::Summary() const {
  std::string guard_tag = FidelityVerdictName(fidelity.verdict);
  if (fidelity.verdict != FidelityVerdict::kOk) {
    guard_tag += ":" + fidelity.violated_budget;
  }
  if (invariants.checked && !invariants.ok()) {
    guard_tag += " INVARIANT:" + Join(invariants.ViolatedNames(), ",");
  }
  return StrFormat(
      "%s N=%d P=%d: flaps=%lld pairs=%lld dur=%s settle=%s%s util=%.1f%% mem=%s "
      "calcs=%lld (real=%lld, avg=%.3fs max=%.3fs) pil(hit=%llu miss=%llu) "
      "shed=%llu guard=%s",
      RunModeName(mode), num_nodes, vnodes_per_node, static_cast<long long>(flaps),
      static_cast<long long>(flapped_pairs), test_duration.ToString().c_str(),
      settle_time.ToString().c_str(), settled ? "" : "(!)",
      max_cpu_utilization * 100.0, HumanBytes(peak_memory_bytes).c_str(),
      static_cast<long long>(calc_invocations),
      static_cast<long long>(calc_executed_real), calc_duration_seconds.mean(),
      calc_duration_seconds.max(), static_cast<unsigned long long>(pil.replay_hits),
      static_cast<unsigned long long>(pil.replay_misses),
      static_cast<unsigned long long>(stage_tasks_dropped), guard_tag.c_str());
}

void RunResult::WriteJson(JsonWriter* w) const {
  w->BeginObject();
  w->Field("mode", RunModeName(mode));
  w->Field("num_nodes", num_nodes);
  w->Field("vnodes_per_node", vnodes_per_node);

  w->Field("flaps", flaps);
  w->Field("flapped_pairs", flapped_pairs);
  w->Field("live_endpoints", live_endpoints);
  w->Field("unreachable_endpoints", unreachable_endpoints);

  w->Field("test_duration_ns", test_duration.nanos());
  w->Field("settle_time_ns", settle_time.nanos());
  w->Field("settled", settled);

  w->Field("max_cpu_utilization", max_cpu_utilization);
  w->Field("peak_memory_bytes", peak_memory_bytes);
  w->Field("oom", oom);
  w->Field("crashed_nodes", crashed_nodes);
  w->Field("restarted_nodes", restarted_nodes);
  w->Field("fault_events_applied", fault_events_applied);
  w->Field("fault_events_healed", fault_events_healed);
  w->Field("messages_blocked", messages_blocked);
  w->Field("lateness_p99_ns", lateness_p99.nanos());
  w->Field("lateness_max_ns", lateness_max.nanos());
  w->Field("lateness_early_count", lateness_early_count);

  w->Key("fidelity");
  fidelity.WriteJson(w);
  w->Key("invariants");
  invariants.WriteJson(w);
  w->Field("watchdog_fired", watchdog_fired);

  w->Key("replay_drift").BeginObject();
  w->Field("misses", replay_drift.misses);
  w->Field("diverged", replay_drift.diverged);
  w->Field("aborted", replay_drift.aborted);
  w->Field("first_function", replay_drift.first_function);
  w->Field("first_digest", replay_drift.first_digest);
  w->Field("first_at_ns", replay_drift.first_at.nanos());
  w->Field("first_call_index", replay_drift.first_call_index);
  w->EndObject();

  w->Field("calc_invocations", calc_invocations);
  w->Field("calc_executed_real", calc_executed_real);
  WriteStat(w, "calc_duration_seconds", calc_duration_seconds);
  WriteStat(w, "calc_lock_hold_seconds", calc_lock_hold_seconds);

  w->Key("pil").BeginObject();
  w->Field("direct_runs", pil.direct_runs);
  w->Field("memoized_runs", pil.memoized_runs);
  w->Field("replay_hits", pil.replay_hits);
  w->Field("replay_misses", pil.replay_misses);
  w->EndObject();

  w->Key("memo").BeginObject();
  w->Field("records", memo.records);
  w->Field("duplicate_puts", memo.duplicate_puts);
  w->Field("determinism_violations", memo.determinism_violations);
  w->Field("lookups", memo.lookups);
  w->Field("hits", memo.hits);
  w->Field("misses", memo.misses);
  w->EndObject();

  w->Field("kv_issued", kv_issued);
  w->Field("kv_ok", kv_ok);
  w->Field("kv_unavailable", kv_unavailable);
  w->Field("kv_timeout", kv_timeout);
  w->Field("kv_inflight_at_stop", kv_inflight_at_stop);
  w->Field("kv_retries", kv_retries);
  w->Field("kv_gave_up", kv_gave_up);
  w->Field("kv_latency_p50_ns", kv_latency_p50.nanos());
  w->Field("kv_latency_p99_ns", kv_latency_p99.nanos());
  w->Field("kv_latency_p999_ns", kv_latency_p999.nanos());
  w->Field("kv_wal_bytes", kv_wal_bytes);
  w->Field("kv_hints_queued", kv_hints_queued);
  w->Field("kv_hints_replayed", kv_hints_replayed);
  w->Field("kv_hints_expired", kv_hints_expired);
  w->Field("kv_read_repairs", kv_read_repairs);
  w->Field("kv_ops_one", kv_ops_one);
  w->Field("kv_ops_quorum", kv_ops_quorum);
  w->Field("kv_ops_all", kv_ops_all);
  w->Field("kv_repair_sessions", kv_repair_sessions);
  w->Field("kv_repair_bytes_streamed", kv_repair_bytes_streamed);
  w->Field("kv_repair_keys_fixed", kv_repair_keys_fixed);
  w->Field("kv_repair_aborted", kv_repair_aborted);

  w->Field("messages_sent", messages_sent);
  w->Field("messages_delivered", messages_delivered);
  w->Field("stage_tasks_dropped", stage_tasks_dropped);
  w->Field("events_executed", events_executed);
  if (has_profile) {
    w->Key("profile");
    profile.WriteJson(w);
  }
  w->EndObject();
}

std::string RunResult::ToJson() const {
  JsonWriter w;
  WriteJson(&w);
  return w.str();
}

}  // namespace scalecheck
