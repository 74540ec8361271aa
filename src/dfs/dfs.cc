#include "src/dfs/dfs.h"

#include <cstring>
#include <utility>

#include "src/common/check.h"
#include "src/common/strings.h"
#include "src/pil/function_registry.h"
#include "src/sim/simulator.h"
#include "src/transport/substrate.h"

namespace scalecheck {

namespace {

constexpr NodeId kNameNode = 0;

struct DfsPayload : public Payload {
  int64_t blocks = 0;
  bool reregister_cmd = false;
  size_t SizeBytes() const override { return 64; }
};

struct DnState {
  bool registered = false;
  bool alive = false;
  bool ever_dead = false;
  int64_t blocks = 0;
  VirtualTime last_heartbeat;
};

class NameNode {
 public:
  NameNode(Simulator* sim, NetworkModel* net, Machine* machine,
           const DfsConfig& config, PilBoundary* pil, PilFunctionId scan_fn,
           DfsResult* result)
      : sim_(sim),
        net_(net),
        config_(config),
        pil_(pil),
        scan_fn_(scan_fn),
        result_(result),
        handler_(sim, machine, "nn/handler"),
        monitor_(sim, machine, "nn/monitor"),
        expiry_timer_(sim, VirtualDuration::Seconds(1), [this] { ExpirySweep(); }) {
    net_->RegisterNode(kNameNode, [this](const Message& msg) { OnMessage(msg); });
    expiry_timer_.Start(VirtualDuration::Seconds(1));
  }

  bool Stable() const {
    for (const auto& [dn, state] : datanodes_) {
      if (!state.registered || !state.alive) {
        return false;
      }
    }
    return !datanodes_.empty() && handler_.idle() && handler_.queue_depth() == 0 &&
           !scan_inflight_;
  }

  uint64_t reports_shed() const { return handler_.jobs_dropped(); }

 private:
  void OnMessage(const Message& msg) {
    auto payload = std::static_pointer_cast<const DfsPayload>(msg.payload);
    NodeId dn = msg.from;
    switch (msg.type) {
      case kDfsRegister: {
        Job job("nn.register");
        job.Compute(config_.heartbeat_cost).Run([this, dn, payload] {
          DnState& state = datanodes_[dn];
          if (state.registered && state.ever_dead) {
            ++result_->re_registrations;
          }
          state.registered = true;
          if (!state.alive) {
            state.alive = true;
          }
          state.blocks = payload->blocks;
          state.last_heartbeat = sim_->Now();
        });
        handler_.Enqueue(std::move(job));
        break;
      }
      case kDfsHeartbeat: {
        Job job("nn.heartbeat");
        job.ExpiresAfter(config_.handler_timeout);
        job.Compute(config_.heartbeat_cost).Run([this, dn] {
          auto it = datanodes_.find(dn);
          if (it == datanodes_.end() || !it->second.registered) {
            return;
          }
          it->second.last_heartbeat = sim_->Now();
          if (!it->second.alive) {
            // An expired DataNode must re-register with a full block report
            // — the feedback that turns congestion into a storm.
            it->second.alive = true;
            auto cmd = std::make_shared<DfsPayload>();
            cmd->reregister_cmd = true;
            net_->Send(kNameNode, dn, kDfsRegisterAck, std::move(cmd));
          }
        });
        handler_.Enqueue(std::move(job));
        break;
      }
      case kDfsBlockReport: {
        // Unlike heartbeats, block reports are never shed: HDFS must process
        // them (DataNodes re-send until acknowledged), which is exactly why
        // a report backlog starves the cheap heartbeats behind it.
        Job job("nn.block-report");
        int64_t blocks = payload->blocks;
        job.Compute(static_cast<WorkUnits>(blocks) * config_.per_block_report_cost)
            .Run([this, dn, blocks] {
              auto it = datanodes_.find(dn);
              if (it != datanodes_.end() && it->second.registered) {
                it->second.blocks = blocks;
                it->second.last_heartbeat = sim_->Now();
                ++result_->reports_processed;
              }
            });
        handler_.Enqueue(std::move(job));
        break;
      }
      default:
        break;
    }
  }

  void ExpirySweep() {
    // HDFS's heartbeat monitor: a separate thread that briefly takes the
    // namespace lock to expire stale DataNodes. The cheap sweep runs here;
    // each expiry queues lock-held work on the handler.
    Job sweep("nn.expiry-sweep");
    sweep.Compute(static_cast<WorkUnits>(datanodes_.size() + 1) * 200).Run([this] {
      VirtualTime now = sim_->Now();
      for (auto& [dn, state] : datanodes_) {
        if (!state.registered || !state.alive) {
          continue;
        }
        if (now - state.last_heartbeat > config_.expiry_interval) {
          state.alive = false;
          state.ever_dead = true;
          ++result_->dead_marks;
          ScheduleScan();
        }
      }
    });
    monitor_.Enqueue(std::move(sweep));
  }

  void ScheduleScan() {
    if (scan_inflight_) {
      scan_dirty_ = true;
      return;
    }
    scan_inflight_ = true;
    BuildScanJob();
  }

  // The re-replication planning scan: a pure function of the block map and
  // liveness (PIL-safe) — it takes the PIL in replay mode. Runs on the
  // handler thread: in HDFS the scan chunks hold the namespace lock.
  void BuildScanJob() {
    struct ScanState {
      DigestValue digest;
      int64_t dead_blocks = 0;
      int64_t alive_count = 0;
    };
    auto state = std::make_shared<ScanState>();

    Job job("nn.re-replication-scan");
    job.Run([this, state] {
      ++result_->scans_run;
      scan_dirty_ = false;
      Digest d;
      for (const auto& [dn, dn_state] : datanodes_) {
        d.Add(static_cast<int64_t>(dn));
        d.Add(dn_state.blocks);
        d.Add(dn_state.alive);
        if (!dn_state.alive) {
          state->dead_blocks += dn_state.blocks;
        } else {
          ++state->alive_count;
        }
      }
      state->digest = d.Finish();
    });
    pil_->Apply(
        &job, scan_fn_, [state] { return state->digest; },
        [this, state] {
          // Plan every under-replicated block against every live target.
          PilBoundary::ComputeOutput out;
          int64_t moves = state->dead_blocks;
          out.work = state->dead_blocks * std::max<int64_t>(1, state->alive_count) *
                     config_.per_block_per_node_scan_cost;
          out.output.resize(sizeof(moves));
          std::memcpy(out.output.data(), &moves, sizeof(moves));
          return out;
        },
        [this, state](const std::vector<uint8_t>& output, bool) {
          result_->scan_seconds.Add(
              pil_->WorkToDuration(state->dead_blocks *
                                   std::max<int64_t>(1, state->alive_count) *
                                   config_.per_block_per_node_scan_cost)
                  .seconds());
        });
    job.Run([this] {
      scan_inflight_ = false;
      if (scan_dirty_) {
        ScheduleScan();
      }
    });
    handler_.Enqueue(std::move(job));
  }

  Simulator* sim_;
  NetworkModel* net_;
  DfsConfig config_;
  PilBoundary* pil_;
  PilFunctionId scan_fn_;
  DfsResult* result_;
  SimThread handler_;  // the FSNamesystem lock: one serialized handler
  SimThread monitor_;
  PeriodicClockTimer expiry_timer_;
  std::map<NodeId, DnState> datanodes_;
  bool scan_inflight_ = false;
  bool scan_dirty_ = false;
};

class DataNode {
 public:
  DataNode(Simulator* sim, NetworkModel* net, Machine* machine, NodeId id,
           const DfsConfig& config)
      : sim_(sim),
        net_(net),
        config_(config),
        id_(id),
        thread_(sim, machine, StrFormat("dn%d", id)),
        heartbeat_timer_(sim, config.heartbeat_interval, [this] { SendHeartbeat(); }),
        report_timer_(sim, config.report_interval, [this] { SendReport(); }) {}

  void Start() {
    net_->RegisterNode(id_, [this](const Message& msg) { OnMessage(msg); });
    RegisterAndReport();
    heartbeat_timer_.Start(config_.heartbeat_interval);
    report_timer_.Start(config_.report_interval);
  }

 private:
  void RegisterAndReport() {
    Job job("dn.register");
    job.Compute(2000).Run([this] {
      auto reg = std::make_shared<DfsPayload>();
      reg->blocks = config_.blocks_per_node;
      net_->Send(id_, kNameNode, kDfsRegister, std::move(reg));
      auto report = std::make_shared<DfsPayload>();
      report->blocks = config_.blocks_per_node;
      net_->Send(id_, kNameNode, kDfsBlockReport, std::move(report));
    });
    thread_.Enqueue(std::move(job));
  }

  void SendHeartbeat() {
    Job job("dn.heartbeat");
    job.Compute(800).Run([this] {
      auto hb = std::make_shared<DfsPayload>();
      hb->blocks = config_.blocks_per_node;
      net_->Send(id_, kNameNode, kDfsHeartbeat, std::move(hb));
    });
    thread_.Enqueue(std::move(job));
  }

  void SendReport() {
    Job job("dn.report");
    job.Compute(static_cast<WorkUnits>(config_.blocks_per_node) / 10).Run([this] {
      auto report = std::make_shared<DfsPayload>();
      report->blocks = config_.blocks_per_node;
      net_->Send(id_, kNameNode, kDfsBlockReport, std::move(report));
    });
    thread_.Enqueue(std::move(job));
  }

  void OnMessage(const Message& msg) {
    auto payload = std::static_pointer_cast<const DfsPayload>(msg.payload);
    if (msg.type == kDfsRegisterAck && payload->reregister_cmd) {
      RegisterAndReport();  // full report again — the storm feedback
    }
  }

  Simulator* sim_;
  NetworkModel* net_;
  DfsConfig config_;
  NodeId id_;
  SimThread thread_;
  PeriodicClockTimer heartbeat_timer_;
  PeriodicClockTimer report_timer_;
};

}  // namespace

const char* DfsModeName(DfsMode mode) {
  switch (mode) {
    case DfsMode::kRealScale:
      return "Real";
    case DfsMode::kColocated:
      return "Colo";
    case DfsMode::kMemoize:
      return "Memoize";
    case DfsMode::kPilReplay:
      return "SC+PIL";
  }
  return "?";
}

std::string DfsResult::Summary() const {
  return StrFormat(
      "dfs N=%d: dead_marks=%lld rereg=%lld reports=%lld shed=%lld scans=%lld "
      "(avg %.3fs) dur=%s stable=%s%s nn_util=%.1f%%",
      datanodes, static_cast<long long>(dead_marks),
      static_cast<long long>(re_registrations),
      static_cast<long long>(reports_processed), static_cast<long long>(reports_shed),
      static_cast<long long>(scans_run), scan_seconds.mean(),
      test_duration.ToString().c_str(), stabilize_time.ToString().c_str(),
      stabilized ? "" : "(!)", namenode_utilization * 100.0);
}

DfsResult RunDfsStartup(const DfsConfig& config, DfsMode mode, MemoStore* memo) {
  DfsResult result;
  result.datanodes = config.datanodes;

  Simulator sim(config.seed);
  int total_nodes = config.datanodes + 1;
  MachineSpec spec = MachineSpec::Nome();
  int machines_count = mode == DfsMode::kRealScale ? total_nodes : 1;
  MachineSet machines(&sim, spec, machines_count);
  Machine* nn_machine = machines.Place(kNameNode, mode == DfsMode::kRealScale
                                                      ? 1
                                                      : total_nodes);

  NetworkModel::Config net_config;
  NetworkModel net(&sim, net_config, Mix64(config.seed ^ 0xdf5));
  net.set_same_machine_fn(
      [&machines](NodeId a, NodeId b) { return machines.SameMachine(a, b); });

  PilMode pil_mode = PilMode::kDirect;
  if (mode == DfsMode::kMemoize) {
    pil_mode = PilMode::kMemoize;
    CHECK_NOTNULL(memo);
  } else if (mode == DfsMode::kPilReplay) {
    pil_mode = PilMode::kReplay;
    CHECK_NOTNULL(memo);
  }
  PilBoundary pil(&sim, pil_mode, memo, spec.core_speed);

  FunctionRegistry registry;
  PilFunctionId scan_fn = registry.Register(
      "nameNode.reReplicationScan", "O(blocks * N)", SideEffects{}, true);

  NameNode namenode(&sim, &net, nn_machine, config, &pil, scan_fn, &result);
  std::vector<std::unique_ptr<DataNode>> datanodes;
  for (NodeId id = 1; id <= config.datanodes; ++id) {
    Machine* machine = machines.Place(id, mode == DfsMode::kRealScale ? 1 : total_nodes);
    datanodes.push_back(std::make_unique<DataNode>(&sim, &net, machine, id, config));
    VirtualDuration at = config.start_stagger * static_cast<int64_t>(id);
    DataNode* dn = datanodes.back().get();
    sim.ScheduleAfter(at, [dn] { dn->Start(); });
  }

  // Stability polling, Cassandra-harness style.
  bool stable = false;
  VirtualTime stable_since;
  VirtualTime stop_at = VirtualTime::Max();
  VirtualTime horizon = VirtualTime::Zero() + config.horizon;
  PeriodicClockTimer checker(&sim, VirtualDuration::Seconds(5), [&] {
    if (!stable && namenode.Stable()) {
      stable = true;
      stable_since = sim.Now();
      stop_at = std::min(horizon, sim.Now() + VirtualDuration::Seconds(20));
    } else if (stable && !namenode.Stable()) {
      stable = false;  // relapsed (storm feedback)
      stop_at = VirtualTime::Max();
    }
    if (stable && sim.Now() >= stop_at) {
      sim.RequestStop();
    }
  });
  checker.Start(VirtualDuration::Seconds(5));

  sim.Run(horizon);
  checker.Stop();

  result.stabilized = stable;
  result.stabilize_time =
      stable ? stable_since - VirtualTime::Zero() : sim.Now() - VirtualTime::Zero();
  result.test_duration = sim.Now() - VirtualTime::Zero();
  result.reports_shed = static_cast<int64_t>(namenode.reports_shed());
  result.namenode_utilization = nn_machine->cpu().Utilization();
  result.pil = pil.stats();
  return result;
}

}  // namespace scalecheck
