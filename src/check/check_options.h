// Configuration for the runtime invariant checker (src/check/invariants.h).
//
// Lives in its own header so ClusterConfig can embed it without pulling the
// checker implementation (and its ProtocolNode introspection) into every
// config consumer.

#ifndef SCALECHECK_SRC_CHECK_CHECK_OPTIONS_H_
#define SCALECHECK_SRC_CHECK_CHECK_OPTIONS_H_

#include "src/common/types.h"

namespace scalecheck {

struct CheckOptions {
  // Master switch: when false neither carrier creates a registry and
  // RunResult's invariants block reports checked=false.
  bool enabled = true;

  // Probe cadence: virtual time in the simulator, wall clock on the real
  // carrier. Simulated probes are deterministic model inspections (no
  // messages, no CPU charge), so the cadence only trades detection latency
  // against event count; a real-carrier probe briefly holds every node's
  // monitor.
  VirtualDuration probe_period = VirtualDuration::Seconds(10);

  // Convergence-style invariants (gossip convergence, zombie endpoints) only
  // fire this long after the last fault healed AND after the relevant
  // membership transition was first observed — dissemination takes O(log N)
  // gossip rounds, and flagging a cluster that was never given time to
  // converge would be noise, not a bug. Must stay below the cluster's
  // post-settlement cooldown (40s) so quiesced runs always get at least one
  // gated probe.
  VirtualDuration convergence_grace = VirtualDuration::Seconds(30);

  // partition-heals: after the last fault heals, every stable NORMAL node
  // must see every other stable NORMAL node alive within this many gossip
  // rounds — the liveness bound the gossip-to-unreachable escape hatch must
  // meet (islanded node SYNs a seed in round one; the recovered heartbeat
  // then disseminates in O(log N) rounds). Denominated in rounds, not
  // seconds, so the same bound means the same thing at any gossip interval
  // on either carrier. At the default 1s interval this must stay below the
  // 40s post-settlement cooldown, like convergence_grace.
  int partition_heal_rounds = 35;

  // Test-only planted bug (the ChaosSearch smoke target): a node that first
  // learns about an endpoint through a LEFT status treats it as a join and
  // adds its tokens to the ring — the classic "fresh view mishandles
  // tombstone state" recovery bug. A restarted node re-learns every endpoint
  // from scratch, so a crash after a completed decommission resurrects the
  // decommissioned node in the restarted node's ring: a zombie endpoint.
  bool plant_left_join_bug = false;

  // Test-only planted bug (the crash-durability ChaosSearch smoke target): a
  // replica acknowledges a write at WAL-append time instead of waiting for
  // the group-commit sync — the classic ack-before-fsync mistake. A crash
  // inside the sync window then silently loses acknowledged writes, which
  // the kv-durability invariant reports when the restarted replica's
  // recovered storage is missing a version it acked. Only meaningful with
  // the WAL enabled (ClusterConfig::kv.wal).
  bool plant_kv_ack_before_sync = false;

  // Test-only planted bug (the repair-storm ChaosSearch target): the
  // anti-entropy scheduler ignores its rate limiter, session cap, and
  // pressure yield, and streams full shared token ranges to every co-replica
  // peer on every tick. The replica-convergence invariant's repair-budget
  // facet flags any node whose streamed repair bytes exceed what the
  // configured token bucket could have issued. Only meaningful with
  // ClusterConfig::kv.repair on.
  bool plant_repair_storm = false;
};

}  // namespace scalecheck

#endif  // SCALECHECK_SRC_CHECK_CHECK_OPTIONS_H_
