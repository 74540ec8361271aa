#include "src/check/invariants.h"

#include <algorithm>
#include <cstdarg>
#include <deque>
#include <unordered_map>

#include "src/cluster/config.h"
#include "src/cluster/protocol_node.h"
#include "src/common/check.h"
#include "src/common/strings.h"
#include "src/kv/kv_config.h"
#include "src/kv/kv_history.h"
#include "src/kv/kv_service.h"
#include "src/kv/storage_engine.h"

namespace scalecheck {

std::vector<std::string> InvariantReport::ViolatedNames() const {
  std::vector<std::string> names;
  names.reserve(violations.size());
  for (const InvariantViolation& v : violations) names.push_back(v.invariant);
  return names;
}

void InvariantReport::WriteJson(JsonWriter* w) const {
  w->BeginObject();
  w->Field("checked", checked);
  w->Field("probes", probes);
  w->Field("kv_checked", kv_checked);
  w->Field("ok", ok());
  w->Key("violations").BeginArray();
  for (const InvariantViolation& v : violations) {
    w->BeginObject();
    w->Field("invariant", v.invariant);
    w->Field("first_at_ns", v.first_at.nanos());
    w->Field("count", v.count);
    w->Field("detail", v.detail);
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

std::string InvariantReport::ToJson() const {
  JsonWriter w;
  WriteJson(&w);
  return w.str();
}

bool NodeView::running() const { return started && !core->crashed(); }

bool KvHistoryCheckable(WorkloadKind workload, const ClusterConfig& config) {
  return (workload == WorkloadKind::kSteadyState ||
          workload == WorkloadKind::kFailover) &&
         config.kv.consistency != KvConsistency::kOne;
}

namespace {

// The running NORMAL nodes, in id order, whose current incarnation has been
// NORMAL for at least `window`: dissemination among them must have
// completed. A node that crashed and came back, or just turned NORMAL, gets
// a fresh window.
std::vector<const ProtocolNode*> StableNormal(const InvariantContext& ctx,
                                              const InvariantRegistry& sink,
                                              VirtualDuration window) {
  std::vector<const ProtocolNode*> stable;
  for (const NodeView& node : *ctx.nodes) {
    if (!node.running() || node.core->my_status() != StatusKind::kNormal) continue;
    auto it = sink.tracks().find(node.core->id());
    if (it == sink.tracks().end() || !it->second.has_normal_since) continue;
    if (ctx.now < it->second.normal_since + window) continue;
    stable.push_back(node.core);
  }
  return stable;
}

// ---- ring-ownership ---------------------------------------------------------

class RingOwnershipInvariant : public Invariant {
 public:
  const char* name() const override { return "ring-ownership"; }

  void Probe(const InvariantContext& ctx, InvariantRegistry* sink) override {
    // Each running NORMAL subject's sorted token set, gathered once per
    // probe rather than once per (viewer, subject) pair. The buffers keep
    // their capacity across probes.
    size_t subjects = 0;
    for (const NodeView& subject_view : *ctx.nodes) {
      if (!subject_view.running() || subject_view.core->my_status() != StatusKind::kNormal) {
        continue;
      }
      if (subjects == truths_.size()) truths_.emplace_back();
      Truth& truth = truths_[subjects++];
      truth.node = subject_view.core;
      const std::vector<Token>& tokens = truth.node->my_tokens();
      truth.tokens.assign(tokens.begin(), tokens.end());
      std::sort(truth.tokens.begin(), truth.tokens.end());
    }
    for (const NodeView& viewer_view : *ctx.nodes) {
      if (!viewer_view.running() || !viewer_view.core->IsSettledView()) continue;
      const ProtocolNode* viewer = viewer_view.core;
      for (size_t i = 0; i < subjects; ++i) {
        const ProtocolNode* subject = truths_[i].node;
        const std::vector<Token>& truth = truths_[i].tokens;
        if (!viewer->ring().HasNode(subject->id())) continue;
        // TokensOf spans are already sorted (AddNode sorts the slice).
        TokenSpan seen = viewer->ring().TokensOf(subject->id());
        if (seen.size() != truth.size() ||
            !std::equal(seen.begin(), seen.end(), truth.begin())) {
          sink->ReportViolation(name(), ctx.now,
                                "node %lld's ring assigns node %lld %zu tokens, "
                                "owner holds %zu",
                                static_cast<long long>(viewer->id()),
                                static_cast<long long>(subject->id()), seen.size(),
                                truth.size());
        }
      }
    }
  }

 private:
  struct Truth {
    const ProtocolNode* node = nullptr;
    std::vector<Token> tokens;  // sorted
  };
  std::vector<Truth> truths_;  // the first `subjects` entries are this probe's
};

// ---- gossip-convergence -----------------------------------------------------

class GossipConvergenceInvariant : public Invariant {
 public:
  const char* name() const override { return "gossip-convergence"; }

  void Probe(const InvariantContext& ctx, InvariantRegistry* sink) override {
    const VirtualDuration grace = sink->options().convergence_grace;
    if (ctx.now < ctx.fault_quiet_at + grace) return;
    const std::vector<const ProtocolNode*> stable = StableNormal(ctx, *sink, grace);
    for (const ProtocolNode* viewer : stable) {
      for (const ProtocolNode* subject : stable) {
        if (viewer == subject) continue;
        if (!viewer->gossiper().IsAlive(subject->id())) {
          sink->ReportViolation(
              name(), ctx.now,
              "node %lld still considers live node %lld dead %llds "
              "after fault quiescence",
              static_cast<long long>(viewer->id()),
              static_cast<long long>(subject->id()),
              static_cast<long long>(
                  (ctx.now - ctx.fault_quiet_at).seconds()));
        }
      }
    }
  }
};

// ---- partition-heals --------------------------------------------------------

// The liveness half of healing, separate from gossip-convergence: the bound
// is denominated in gossip ROUNDS (partition_heal_rounds * gossip_interval),
// so the same invariant checks a 1s-interval simulation and a 100ms-interval
// real-socket cluster with identical protocol-time semantics. This is the
// invariant the ChaosSearch islanding reproducer violated before the
// gossip-to-unreachable escape hatch existed.
class PartitionHealsInvariant : public Invariant {
 public:
  const char* name() const override { return "partition-heals"; }

  void Probe(const InvariantContext& ctx, InvariantRegistry* sink) override {
    const VirtualDuration bound =
        ctx.config->gossip_interval * sink->options().partition_heal_rounds;
    if (ctx.now < ctx.fault_quiet_at + bound) return;
    // Same participants as gossip-convergence, with the heal bound as the
    // stability window.
    const std::vector<const ProtocolNode*> stable = StableNormal(ctx, *sink, bound);
    for (const ProtocolNode* viewer : stable) {
      for (const ProtocolNode* subject : stable) {
        if (viewer == subject) continue;
        if (!viewer->gossiper().IsAlive(subject->id())) {
          sink->ReportViolation(
              name(), ctx.now,
              "node %lld is still islanded from node %lld %lld "
              "gossip rounds after fault quiescence — the "
              "unreachable escape hatch never re-established "
              "contact",
              static_cast<long long>(subject->id()),
              static_cast<long long>(viewer->id()),
              static_cast<long long>(
                  (ctx.now - ctx.fault_quiet_at).nanos() /
                  std::max<int64_t>(1, ctx.config->gossip_interval.nanos())));
        }
      }
    }
  }
};

// ---- zombie-endpoint --------------------------------------------------------

class ZombieEndpointInvariant : public Invariant {
 public:
  const char* name() const override { return "zombie-endpoint"; }

  void Probe(const InvariantContext& ctx, InvariantRegistry* sink) override {
    const VirtualDuration grace = sink->options().convergence_grace;
    for (const NodeView& target_view : *ctx.nodes) {
      const ProtocolNode* target = target_view.core;
      if (!target_view.running()) continue;
      StatusKind status = target->my_status();
      if (status != StatusKind::kLeft && status != StatusKind::kRemoved) {
        continue;
      }
      auto it = sink->tracks().find(target->id());
      if (it == sink->tracks().end() || !it->second.has_left_seen) continue;
      VirtualTime quiet = std::max(ctx.fault_quiet_at, it->second.left_seen_at);
      if (ctx.now < quiet + grace) continue;
      for (const NodeView& viewer_view : *ctx.nodes) {
        const ProtocolNode* viewer = viewer_view.core;
        if (viewer == target || !viewer_view.running() || !viewer->IsSettledView()) {
          continue;
        }
        if (viewer->ring().HasNode(target->id())) {
          sink->ReportViolation(
              name(), ctx.now,
              "node %lld's ring still contains node %lld, which "
              "completed decommission",
              static_cast<long long>(viewer->id()),
              static_cast<long long>(target->id()));
        }
      }
    }
  }
};

// ---- generation-monotonic ---------------------------------------------------

class GenVersionMonotonicInvariant : public Invariant {
 public:
  const char* name() const override { return "generation-monotonic"; }

  void Probe(const InvariantContext& ctx, InvariantRegistry* sink) override {
    for (const NodeView& viewer_view : *ctx.nodes) {
      if (!viewer_view.running()) continue;
      const ProtocolNode* viewer = viewer_view.core;
      int64_t viewer_gen =
          viewer->gossiper().LocalState().heartbeat().generation;
      PerViewer& mine = Slot(&seen_, viewer->id());
      if (mine.viewer_generation != viewer_gen) {
        // The viewer restarted: its endpoint map was rebuilt from scratch, so
        // old observations no longer constrain it.
        mine.viewer_generation = viewer_gen;
        mine.last.clear();
      }
      for (const auto& [ep, state] : viewer->gossiper().endpoints()) {
        HeartbeatState hb = state.heartbeat();
        int64_t max_version = state.MaxVersion();
        Record& last = Slot(&mine.last, ep);
        if (last.seen) {
          if (hb.generation < last.generation) {
            sink->ReportViolation(
                name(), ctx.now,
                "node %lld saw node %lld's generation move "
                "backwards (%lld -> %lld)",
                static_cast<long long>(viewer->id()),
                static_cast<long long>(ep),
                static_cast<long long>(last.generation),
                static_cast<long long>(hb.generation));
          } else if (hb.generation == last.generation &&
                     max_version < last.version) {
            sink->ReportViolation(
                name(), ctx.now,
                "node %lld saw node %lld's version move backwards "
                "(%lld -> %lld) within generation %lld",
                static_cast<long long>(viewer->id()),
                static_cast<long long>(ep),
                static_cast<long long>(last.version),
                static_cast<long long>(max_version),
                static_cast<long long>(hb.generation));
          }
        }
        last = Record{true, hb.generation, max_version};
      }
    }
  }

 private:
  // Node ids are dense (0..N-1), so both tables are indexed by id. An
  // endpoint the viewer forgot keeps its last record.
  struct Record {
    bool seen = false;
    int64_t generation = 0;
    int64_t version = 0;  // max version
  };
  struct PerViewer {
    int64_t viewer_generation = -1;
    std::vector<Record> last;
  };

  template <typename T>
  static T& Slot(std::vector<T>* table, NodeId id) {
    CHECK_GE(id, 0);
    const size_t index = static_cast<size_t>(id);
    if (index >= table->size()) table->resize(index + 1);
    return (*table)[index];
  }

  std::vector<PerViewer> seen_;
};

// ---- kv-history -------------------------------------------------------------

// Verifies the linear client history: an acknowledged write must stay
// visible. A read R of key k returning v is legal iff some write W with value
// v (issue order irrelevant) is not superseded — no OK write W2 exists with
// W.concluded_at < W2.issued_at and W2.concluded_at < R.issued_at. An empty
// read is legal iff no OK write concluded before R was issued. Ops concurrent
// with each other (overlapping issue..conclude windows) are unordered, so the
// check never flags legitimate races — only acknowledged state that later
// vanished.
class KvHistoryInvariant : public Invariant {
 public:
  const char* name() const override { return "kv-history"; }

  void Probe(const InvariantContext& ctx, InvariantRegistry* sink) override {
    if (!ctx.kv_checkable || ctx.history == nullptr) return;
    const KvHistory& h = *ctx.history;
    const auto& ops = h.ops();
    // Index newly issued writes.
    for (; issue_watermark_ < ops.size(); ++issue_watermark_) {
      const KvOpRecord& rec = ops[issue_watermark_];
      if (rec.is_write) writes_by_key_[rec.key].push_back(rec.id);
    }
    // Validate newly concluded reads. Conclusions are processed in order, so
    // every write a read could observe is already indexed (it was issued
    // before the read concluded).
    const auto& order = h.conclusion_order();
    for (; conclude_watermark_ < order.size(); ++conclude_watermark_) {
      const KvOpRecord& rec = ops[order[conclude_watermark_]];
      if (!rec.is_write && rec.outcome == KvOutcome::kOk) {
        CheckRead(rec, ops, sink);
      }
    }
  }

 private:
  void CheckRead(const KvOpRecord& read, const std::deque<KvOpRecord>& ops,
                 InvariantRegistry* sink) {
    auto it = writes_by_key_.find(read.key);
    const std::vector<uint64_t> empty;
    const std::vector<uint64_t>& write_ids =
        it == writes_by_key_.end() ? empty : it->second;

    if (read.result_value.empty()) {
      for (uint64_t wid : write_ids) {
        const KvOpRecord& w = ops[wid];
        if (w.concluded && w.outcome == KvOutcome::kOk &&
            w.concluded_at < read.issued_at) {
          sink->ReportViolation(
              name(), read.concluded_at,
              "read op %llu of key %llu returned empty, but write "
              "op %llu was acknowledged before the read was issued",
              static_cast<unsigned long long>(read.id),
              static_cast<unsigned long long>(read.key),
              static_cast<unsigned long long>(w.id));
          return;
        }
      }
      return;
    }

    bool matched = false;
    bool legal = false;
    uint64_t superseded_by = 0;
    for (uint64_t wid : write_ids) {
      const KvOpRecord& w = ops[wid];
      if (w.value != read.result_value) continue;
      matched = true;
      bool superseded = false;
      if (w.concluded) {
        for (uint64_t wid2 : write_ids) {
          const KvOpRecord& w2 = ops[wid2];
          if (w2.id == w.id || !w2.concluded ||
              w2.outcome != KvOutcome::kOk) {
            continue;
          }
          if (w.concluded_at < w2.issued_at &&
              w2.concluded_at < read.issued_at) {
            superseded = true;
            superseded_by = w2.id;
            break;
          }
        }
      }
      if (!superseded) {
        legal = true;
        break;
      }
    }
    if (!matched) {
      sink->ReportViolation(
          name(), read.concluded_at,
          "read op %llu of key %llu returned a value no write ever "
          "wrote",
          static_cast<unsigned long long>(read.id),
          static_cast<unsigned long long>(read.key));
    } else if (!legal) {
      sink->ReportViolation(
          name(), read.concluded_at,
          "read op %llu of key %llu returned a value superseded by "
          "acknowledged write op %llu (lost acknowledged write)",
          static_cast<unsigned long long>(read.id),
          static_cast<unsigned long long>(read.key),
          static_cast<unsigned long long>(superseded_by));
    }
  }

  size_t issue_watermark_ = 0;
  size_t conclude_watermark_ = 0;
  // Only ever looked up by key, so hashed.
  std::unordered_map<uint64_t, std::vector<uint64_t>> writes_by_key_;
};

// ---- kv-durability ----------------------------------------------------------

// No-lost-acked-writes at the REPLICA level: every node that acknowledged an
// OK write and is currently running must hold a version of the key at least
// as new as the one it acked — across crash and restart. The audit targets
// the CONCRETE acker set recorded at ack time (KvOpRecord::ackers), not the
// current natural endpoints, so ring movement under failover workloads can't
// produce false positives and a single crashed acker out of a quorum is still
// caught. Crashed/never-restarted ackers are skipped (nothing to inspect);
// restart recovery is synchronous, so a running restarted node has already
// replayed its durable WAL prefix by the time any probe sees it. Gated on
// kv.wal because the default in-memory store survives crashes by construction
// (the check would be vacuous) — with the WAL on, an ack must imply a synced
// record, which is exactly what the plant_kv_ack_before_sync bug breaks.
class KvDurabilityInvariant : public Invariant {
 public:
  const char* name() const override { return "kv-durability"; }

  void Probe(const InvariantContext& ctx, InvariantRegistry* sink) override {
    if (!ctx.kv_checkable || !ctx.config->kv.wal || ctx.history == nullptr) return;
    const KvHistory& h = *ctx.history;
    const auto& ops = h.ops();
    const auto& order = h.conclusion_order();
    // Fold newly concluded OK writes into the per-(key, acker) obligation:
    // the newest timestamp that acker vouched for.
    fresh_.clear();
    for (; conclude_watermark_ < order.size(); ++conclude_watermark_) {
      const KvOpRecord& rec = ops[order[conclude_watermark_]];
      if (!rec.is_write || rec.outcome != KvOutcome::kOk) continue;
      for (NodeId acker : rec.ackers) {
        fresh_.push_back(Obligation{rec.key, acker, rec.write_timestamp});
      }
    }
    if (!fresh_.empty()) {
      std::sort(fresh_.begin(), fresh_.end(), Before);
      MergeFresh();
    }
    for (const Obligation& ob : required_) {
      const size_t acker = static_cast<size_t>(ob.acker);
      if (acker >= ctx.nodes->size()) continue;
      const NodeView& node = (*ctx.nodes)[acker];
      if (!node.running() || node.core->kv() == nullptr) continue;
      int64_t have = node.core->kv()->storage().TimestampOf(ob.key);
      if (have < ob.timestamp) {
        sink->ReportViolation(
            name(), ctx.now,
            "node %lld acknowledged a write of key %llu at "
            "timestamp %lld but now holds %lld (acked write lost "
            "across crash/restart)",
            static_cast<long long>(ob.acker),
            static_cast<unsigned long long>(ob.key),
            static_cast<long long>(ob.timestamp),
            static_cast<long long>(have));
      }
    }
  }

 private:
  // The newest acked timestamp a (key, acker) pair is on the hook for.
  struct Obligation {
    uint64_t key = 0;
    NodeId acker = kInvalidNode;
    int64_t timestamp = 0;
  };
  static bool Before(const Obligation& a, const Obligation& b) {
    return a.key != b.key ? a.key < b.key : a.acker < b.acker;
  }

  // Merges the sorted fresh_ into required_, one entry per (key, acker)
  // holding the largest timestamp of either side.
  void MergeFresh() {
    std::vector<Obligation> merged;
    merged.reserve(required_.size() + fresh_.size());
    auto add = [&merged](const Obligation& ob) {
      if (!merged.empty() && !Before(merged.back(), ob)) {
        merged.back().timestamp = std::max(merged.back().timestamp, ob.timestamp);
      } else {
        merged.push_back(ob);
      }
    };
    size_t i = 0;
    size_t j = 0;
    while (i < required_.size() || j < fresh_.size()) {
      if (j == fresh_.size() ||
          (i < required_.size() && !Before(fresh_[j], required_[i]))) {
        add(required_[i++]);
      } else {
        add(fresh_[j++]);
      }
    }
    required_.swap(merged);
  }

  size_t conclude_watermark_ = 0;
  // Sorted by (key, acker), one entry per pair: walked in that order on
  // every probe, so the first violation reported is the smallest pair.
  std::vector<Obligation> required_;
  // This probe's new obligations (kept for its capacity).
  std::vector<Obligation> fresh_;
};

// ---- replica-convergence ----------------------------------------------------

// Anti-entropy health, gated on kv.repair (without repair, divergence that
// hinted handoff missed is EXPECTED to persist, so the check would flag
// healthy runs). Two facets:
//
// Data: after fault quiescence plus convergence_grace, every stable NORMAL
// node that considers itself a natural replica of a sampled key (by its own
// ring view) must hold a version at least as new as the winning acknowledged
// timestamp among OK writes concluded before the grace window opened. The
// winning timestamp only audits writes concluded a full grace period ago, so
// a write racing the probe never false-positives, and a replica holding a
// NEWER version trivially passes (LWW). Sampling covers the most recently
// concluded distinct keys (bounded), newest first — exactly the keys a
// repair pass has had the least time to fix, which is where convergence
// failures hide.
//
// Budget: no node may exceed RepairBudgetAt (src/kv/kv_config.h): twice the
// bytes its configured rate allows over the run, or twice the sessions its
// schedule allows, each plus a fixed slack. The token bucket's burst and the
// post-charged stream overdraft both fit comfortably inside 2x+slack; a
// repair storm that ignores its throttle (plant_repair_storm) does not. A
// short run's storm streams few bytes but opens one session per co-replica
// per tick, so the session term catches it where the byte term cannot.
class ReplicaConvergenceInvariant : public Invariant {
 public:
  const char* name() const override { return "replica-convergence"; }

  void Probe(const InvariantContext& ctx, InvariantRegistry* sink) override {
    if (!ctx.config->kv.repair) return;
    ProbeBudget(ctx, sink);
    if (!ctx.kv_checkable || ctx.history == nullptr) return;
    IndexNewConclusions(*ctx.history);
    const VirtualDuration grace = sink->options().convergence_grace;
    if (ctx.now < ctx.fault_quiet_at + grace) return;
    const VirtualTime cutoff = ctx.now - grace;

    // Sample the most recently concluded distinct keys old enough to audit.
    std::vector<uint64_t> sample;
    {
      std::unordered_map<uint64_t, bool> picked;
      for (auto it = concluded_.rbegin();
           it != concluded_.rend() && sample.size() < kSampleKeys; ++it) {
        if (!(it->concluded_at < cutoff)) continue;
        if (picked.emplace(it->key, true).second) sample.push_back(it->key);
      }
    }
    if (sample.empty()) return;
    std::sort(sample.begin(), sample.end());

    for (const ProtocolNode* node : StableNormal(ctx, *sink, grace)) {
      if (node->kv() == nullptr || !node->IsSettledView()) continue;
      for (uint64_t key : sample) {
        int64_t expected = WinningTimestampBefore(key, cutoff);
        if (expected <= 0) continue;
        std::vector<NodeId> replicas = node->ring().NaturalEndpointsForKey(
            KvTokenForKey(key), ctx.config->replication_factor);
        if (std::find(replicas.begin(), replicas.end(), node->id()) ==
            replicas.end()) {
          continue;
        }
        int64_t have = node->kv()->storage().TimestampOf(key);
        if (have < expected) {
          sink->ReportViolation(
              name(), ctx.now,
              "replica %lld of key %llu still holds timestamp %lld "
              "(< acknowledged %lld) %llds after fault quiescence — "
              "anti-entropy never converged it",
              static_cast<long long>(node->id()),
              static_cast<unsigned long long>(key),
              static_cast<long long>(have),
              static_cast<long long>(expected),
              static_cast<long long>(
                  (ctx.now - ctx.fault_quiet_at).seconds()));
        }
      }
    }
  }

 private:
  static constexpr size_t kSampleKeys = 64;

  struct ConcludedWrite {
    VirtualTime concluded_at;
    uint64_t key = 0;
  };
  struct TimedTimestamp {
    VirtualTime concluded_at;
    int64_t prefix_max_ts = 0;  // max write_timestamp up to this conclusion
  };

  void ProbeBudget(const InvariantContext& ctx, InvariantRegistry* sink) {
    if (ctx.config->kv.repair_rate_bytes <= 0) return;
    const double elapsed_seconds =
        static_cast<double>(ctx.now.nanos()) / 1e9;
    for (const NodeView& node : *ctx.nodes) {
      if (!node.running() || node.core->kv() == nullptr) continue;
      const KvStats& stats = node.core->kv()->stats();
      if (RepairOverBudget(ctx.config->kv, elapsed_seconds, stats.repair_bytes_streamed,
                           stats.repair_sessions)) {
        sink->ReportViolation(
            name(), ctx.now,
            "node %lld streamed %lld repair bytes in %lld sessions in "
            "%.1fs, over 2x its budget — repair storm",
            static_cast<long long>(node.core->id()),
            static_cast<long long>(stats.repair_bytes_streamed),
            static_cast<long long>(stats.repair_sessions), elapsed_seconds);
      }
    }
  }

  // Folds newly concluded OK writes into the recency list and the per-key
  // prefix-max timestamp series (conclusion order is non-decreasing in
  // concluded_at, so each series stays sorted).
  void IndexNewConclusions(const KvHistory& h) {
    const auto& ops = h.ops();
    const auto& order = h.conclusion_order();
    for (; conclude_watermark_ < order.size(); ++conclude_watermark_) {
      const KvOpRecord& rec = ops[order[conclude_watermark_]];
      if (!rec.is_write || rec.outcome != KvOutcome::kOk) continue;
      concluded_.push_back(ConcludedWrite{rec.concluded_at, rec.key});
      std::vector<TimedTimestamp>& series = by_key_[rec.key];
      int64_t prev = series.empty() ? 0 : series.back().prefix_max_ts;
      series.push_back(TimedTimestamp{
          rec.concluded_at, std::max(prev, rec.write_timestamp)});
    }
  }

  // Largest acked write_timestamp of `key` among writes concluded strictly
  // before `cutoff` (0 when none) — O(log series) via the prefix max.
  int64_t WinningTimestampBefore(uint64_t key, VirtualTime cutoff) const {
    auto it = by_key_.find(key);
    if (it == by_key_.end()) return 0;
    const std::vector<TimedTimestamp>& series = it->second;
    auto pos = std::lower_bound(
        series.begin(), series.end(), cutoff,
        [](const TimedTimestamp& t, VirtualTime c) {
          return t.concluded_at < c;
        });
    if (pos == series.begin()) return 0;
    return std::prev(pos)->prefix_max_ts;
  }

  size_t conclude_watermark_ = 0;
  std::vector<ConcludedWrite> concluded_;  // conclusion order
  // Only ever looked up by key, so hashed.
  std::unordered_map<uint64_t, std::vector<TimedTimestamp>> by_key_;
};

}  // namespace

InvariantRegistry::InvariantRegistry(CheckOptions options)
    : options_(options) {}

InvariantRegistry::~InvariantRegistry() = default;

void InvariantRegistry::AddBuiltins() {
  Add(std::make_unique<RingOwnershipInvariant>());
  Add(std::make_unique<GossipConvergenceInvariant>());
  Add(std::make_unique<PartitionHealsInvariant>());
  Add(std::make_unique<ZombieEndpointInvariant>());
  Add(std::make_unique<GenVersionMonotonicInvariant>());
  Add(std::make_unique<KvHistoryInvariant>());
  Add(std::make_unique<KvDurabilityInvariant>());
  Add(std::make_unique<ReplicaConvergenceInvariant>());
}

void InvariantRegistry::Add(std::unique_ptr<Invariant> invariant) {
  invariants_.push_back(std::move(invariant));
}

void InvariantRegistry::UpdateTracks(const InvariantContext& ctx) {
  for (const NodeView& view : *ctx.nodes) {
    const ProtocolNode* node = view.core;
    NodeTrack& track = tracks_[node->id()];
    bool crashed = node->crashed();
    int64_t generation =
        node->gossiper().LocalState().heartbeat().generation;
    if (!track.seen || crashed || generation != track.generation) {
      // New incarnation (or mid-crash): stability clocks restart.
      track.has_normal_since = false;
    }
    track.seen = true;
    track.crashed = crashed;
    track.generation = generation;
    track.status = node->my_status();
    if (!crashed && view.started &&
        track.status == StatusKind::kNormal && !track.has_normal_since) {
      track.has_normal_since = true;
      track.normal_since = ctx.now;
    }
    if ((track.status == StatusKind::kLeft ||
         track.status == StatusKind::kRemoved) &&
        !track.has_left_seen) {
      track.has_left_seen = true;
      track.left_seen_at = ctx.now;
    }
  }
}

void InvariantRegistry::ProbeNodes(VirtualTime now, const std::vector<NodeView>& nodes,
                                   const ClusterConfig& config, WorkloadKind workload,
                                   VirtualTime fault_quiet_at, const KvHistory* history) {
  InvariantContext ctx;
  ctx.now = now;
  ctx.nodes = &nodes;
  ctx.config = &config;
  ctx.fault_quiet_at = fault_quiet_at;
  ctx.kv_checkable = KvHistoryCheckable(workload, config);
  ctx.history = history;
  Probe(ctx);
}

void InvariantRegistry::Probe(const InvariantContext& ctx) {
  CHECK(ctx.nodes != nullptr);
  report_.checked = true;
  report_.kv_checked = ctx.kv_checkable && ctx.history != nullptr;
  ++report_.probes;
  UpdateTracks(ctx);
  for (const std::unique_ptr<Invariant>& invariant : invariants_) {
    invariant->Probe(ctx, this);
  }
}

void InvariantRegistry::ReportViolation(const char* invariant, VirtualTime at,
                                        const char* fmt, ...) {
  for (InvariantViolation& v : report_.violations) {
    if (v.invariant == invariant) {
      ++v.count;
      return;
    }
  }
  InvariantViolation v;
  v.invariant = invariant;
  v.first_at = at;
  va_list args;
  va_start(args, fmt);
  v.detail = StrFormatV(fmt, args);
  va_end(args);
  v.count = 1;
  report_.violations.push_back(std::move(v));
}

}  // namespace scalecheck
