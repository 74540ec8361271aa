#include "src/scalecheck/bug_catalog.h"

#include "src/common/check.h"

namespace scalecheck {

namespace {

std::vector<BugSpec> BuildCatalog() {
  std::vector<BugSpec> catalog;

  {
    BugSpec spec;
    spec.id = "C3831";
    spec.description =
        "decommission triggers cubic pending-range recalculation on the gossip stage";
    spec.calc_version = CalcVersion::kV1PreC3831;
    spec.placement = CalcPlacement::kInlineGossipStage;
    spec.vnodes_per_node = 1;
    spec.workload = WorkloadKind::kDecommission;
    catalog.push_back(spec);

    spec.id = "C3831-fixed";
    spec.description = "the C3831 fix: sort-based endpoints, no vnodes";
    spec.calc_version = CalcVersion::kV2C3831Fix;
    catalog.push_back(spec);
  }

  {
    BugSpec spec;
    spec.id = "C3881";
    spec.description =
        "scale-out with vnodes: the C3831 fix explodes again as N becomes N*P";
    spec.calc_version = CalcVersion::kV2C3831Fix;
    spec.placement = CalcPlacement::kInlineGossipStage;
    spec.vnodes_per_node = 8;
    spec.workload = WorkloadKind::kScaleOut;
    catalog.push_back(spec);
  }

  {
    BugSpec spec;
    spec.id = "C5456";
    spec.description =
        "scale-out: fast vnode-aware calculator, but the coarse ring lock starves gossip";
    spec.calc_version = CalcVersion::kV3C3881Fix;
    spec.placement = CalcPlacement::kSeparateThreadCoarseLock;
    spec.vnodes_per_node = 16;
    spec.workload = WorkloadKind::kScaleOut;
    catalog.push_back(spec);

    spec.id = "C5456-fixed";
    spec.description = "the C5456 fix: clone the ring, release the lock early";
    spec.placement = CalcPlacement::kSeparateThreadClone;
    catalog.push_back(spec);
  }

  {
    BugSpec spec;
    spec.id = "C6127";
    spec.description =
        "fresh bootstrap exercises the O(M*N^2) ring-construction path (vnodes)";
    spec.calc_version = CalcVersion::kV3C3881Fix;
    spec.placement = CalcPlacement::kInlineGossipStage;
    spec.vnodes_per_node = 16;
    spec.workload = WorkloadKind::kBootstrapFresh;
    catalog.push_back(spec);
  }

  return catalog;
}

}  // namespace

const std::vector<BugSpec>& BugCatalog::All() {
  static const std::vector<BugSpec>* catalog = new std::vector<BugSpec>(BuildCatalog());
  return *catalog;
}

const BugSpec* BugCatalog::TryGet(const std::string& id) {
  for (const BugSpec& spec : All()) {
    if (spec.id == id) {
      return &spec;
    }
  }
  return nullptr;
}

const BugSpec& BugCatalog::Get(const std::string& id) {
  const BugSpec* spec = TryGet(id);
  CHECK(spec != nullptr) << "unknown bug id '" << id << "'";
  return *spec;
}

std::vector<std::string> BugCatalog::Ids() {
  std::vector<std::string> ids;
  for (const BugSpec& spec : All()) {
    ids.push_back(spec.id);
  }
  return ids;
}

BugSpec ColocationProbeSpec(ExecModel exec_model, bool space_oblivious) {
  BugSpec spec;
  spec.id = exec_model == ExecModel::kProcessPerNode ? "probe-process" : "probe-seda";
  if (space_oblivious) {
    spec.id = "probe-oblivious";
  }
  spec.description = "colocation-limit probe (§8 Nome machine)";
  spec.calc_version = CalcVersion::kV3C3881Fix;
  spec.placement = CalcPlacement::kInlineGossipStage;
  spec.vnodes_per_node = 1;
  spec.workload = WorkloadKind::kScaleOut;
  spec.join_fraction = 1.0 / 32;
  spec.horizon = VirtualDuration::Seconds(120);
  spec.transition_override = VirtualDuration::Seconds(20);
  spec.exec_model = exec_model;
  spec.space_oblivious_rebalance = space_oblivious;
  return spec;
}

}  // namespace scalecheck
