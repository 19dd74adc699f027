// Fault-tolerance tuning parameters.
//
// The paper's §5.1 evaluation fixes the heartbeat interval at 30 s and
// reports per-component detect / diagnose / recover times; all of those are
// functions of the protocol constants below. The paper notes that "the
// interval for sending heartbeat can be configured as a system parameter".
// FtParams holds what callers set: the benches sweep heartbeat_interval
// (Table 1, availability), detector_sample_interval (scalability), the
// failover policy (fault_matrix) and the topology (fault_matrix,
// group_scale). The costs no caller varies are the named constants.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace phoenix::kernel {

/// Slack added on top of one period before a heartbeat counts as missed
/// (absorbs network latency and scheduling jitter).
inline constexpr sim::SimTime kHeartbeatGrace = 200 * sim::kMillisecond;

/// Cost of analysing per-network heartbeat arrival to pin a single-NIC
/// failure (pure computation over the heartbeat table).
inline constexpr sim::SimTime kNetworkAnalysisTime = 340 * sim::kMicrosecond;

/// After a probe response proves the node alive, one confirmation round
/// before declaring a *process* failure (paper: 0.29 s total diagnosis).
inline constexpr sim::SimTime kProcessConfirmDelay = 280 * sim::kMillisecond;

/// Meta-group cross-check: a GSD that misses its predecessor's ring
/// heartbeat probes the predecessor's node once with this short timeout
/// (fast takeover matters more than certainty at this level).
inline constexpr sim::SimTime kMetaProbeTimeout = 280 * sim::kMillisecond;

/// Local supervised-service liveness check (waitpid-style; §5.1 Table 3
/// reports 12 us to diagnose a dead event-service process).
inline constexpr sim::SimTime kLocalDiagnoseTime = 12 * sim::kMicrosecond;

/// fork/exec cost of restarting each daemon binary; kServiceExecTime covers
/// the ES, DB, CS and extensions.
inline constexpr sim::SimTime kWdExecTime = 95 * sim::kMillisecond;
inline constexpr sim::SimTime kGsdExecTime = 1800 * sim::kMillisecond;
inline constexpr sim::SimTime kServiceExecTime = 100 * sim::kMillisecond;

/// Choosing a migration target and updating the configuration.
inline constexpr sim::SimTime kMigrationSelectTime = 50 * sim::kMillisecond;

/// Background CPU share each kernel daemon imposes on its node (fraction
/// of one CPU). Drives the Linpack-overhead experiment.
inline constexpr double kWdCpuShare = 0.002;
inline constexpr double kDetectorCpuShare = 0.004;
inline constexpr double kPpmCpuShare = 0.001;
inline constexpr double kServerDaemonCpuShare = 0.01;  // GSD/ES/CS/DB on server nodes

struct FtParams {
  using SimTime = sim::SimTime;

  /// How a meta-group member takes over a silent peer. The paper's protocol
  /// (§4.3) is unilateral: the Princess deposes a Leader on silence alone,
  /// which split-brains the moment an asymmetric network partition makes the
  /// Leader *look* dead from one side only. The quorum policy adds an
  /// MSCS-style regroup round — a majority of the current view must concur
  /// before any member is removed — plus epoch fencing so a deposed Leader's
  /// mutating kernel RPCs are rejected by every ServiceRuntime.
  struct FailoverPolicy {
    enum class Mode : std::uint8_t {
      kUnilateral,  // paper §4.3: ring successor takes over on silence alone
      kQuorum,      // regroup round: majority concurrence + epoch fencing
    };
    Mode mode = Mode::kUnilateral;

    /// The paper's §5.1 behaviour: unilateral Princess takeover.
    static constexpr FailoverPolicy paper() { return {}; }

    /// Quorum-safe takeover: regroup concurrence + epoch fencing.
    static constexpr FailoverPolicy quorum() {
      FailoverPolicy p;
      p.mode = Mode::kQuorum;
      return p;
    }
  };

  /// Shape of the GSD membership layer. The paper keeps every partition's
  /// GSD in ONE flat meta-group ring, so membership traffic and
  /// reconfiguration serialize at O(partitions). The zoned topology groups
  /// partitions into zone sub-rings (strided assignment: partition p is in
  /// zone p % num_zones, so consecutive partitions — and rack-adjacent
  /// failures — land in different zones) and forms a top ring out of the
  /// zone leaders; the top ring's Leader is the cluster GSD head. Failure
  /// events aggregate up through zone leaders and view changes fan out
  /// down, so a zone regroup never blocks the other zones. flat() preserves
  /// today's behaviour and wire bytes exactly.
  struct GroupTopology {
    enum class Mode : std::uint8_t {
      kFlat,   // paper §4.3: one ring over all partitions
      kZoned,  // zone sub-rings + top ring of zone leaders
    };
    Mode mode = Mode::kFlat;

    /// Target partitions per zone (kZoned only). The number of zones is
    /// ceil(partitions / zone_size); strided assignment keeps zone sizes
    /// within one of each other.
    std::uint32_t zone_size = 64;

    /// The paper's flat meta-group (every wire format byte-identical).
    static constexpr GroupTopology flat() { return {}; }

    /// Two-level hierarchy: zone sub-rings + a top ring of zone leaders.
    static constexpr GroupTopology zoned(std::uint32_t zone_size) {
      GroupTopology t;
      t.mode = Mode::kZoned;
      t.zone_size = zone_size == 0 ? 1 : zone_size;
      return t;
    }
  };

  /// WD -> GSD heartbeat period; also the GSD ring heartbeat period and the
  /// GSD local-service supervision period (paper uses 30 s for all).
  SimTime heartbeat_interval = 30 * sim::kSecond;

  /// Consecutive missed heartbeats on ONE network before declaring that
  /// network failed (node-level silence always uses one interval). Raise
  /// this on lossy fabrics so a single dropped datagram is not flagged.
  unsigned network_miss_rounds = 1;

  /// Node-liveness probe (GSD -> PPM on the suspected node): attempts and
  /// per-attempt timeout. All attempts expiring => node declared dead
  /// (~attempts * timeout, the paper's 2 s node-diagnosis figure).
  int node_probe_attempts = 3;
  SimTime node_probe_timeout = 650 * sim::kMillisecond;

  /// Recovering state from the checkpoint service: same-node fetch vs.
  /// cross-partition federation fetch (migration path).
  SimTime checkpoint_local_fetch = 20 * sim::kMillisecond;
  SimTime checkpoint_federation_fetch = 1000 * sim::kMillisecond;

  /// Detector sampling period (physical + application state exports).
  SimTime detector_sample_interval = 5 * sim::kSecond;

  /// Detector export mode: when true, steady-state samples ship a compact
  /// DbDeltaMsg (changed gauges, started/exited apps) instead of the full
  /// process table, with a full DbReportMsg snapshot as a periodic resync
  /// point. False restores snapshot-every-sample (the delta-equivalence
  /// tests diff the two modes).
  bool detector_delta_reports = true;

  /// Samples between full-snapshot resyncs while delta reporting is on.
  /// Bounds how long a bulletin that missed a delta (lost report, failover
  /// repopulation) can stay stale.
  unsigned detector_resync_every = 12;

  /// Meta-group takeover policy (defaults to the paper's unilateral
  /// protocol; FailoverPolicy::quorum() opts into regroup + fencing).
  FailoverPolicy failover{};

  /// Membership-layer shape (defaults to the paper's flat ring;
  /// GroupTopology::zoned(n) opts into the two-level hierarchy).
  GroupTopology topology{};
};

}  // namespace phoenix::kernel
