// Group Service Daemon — GSD (paper §4.3, §4.4).
//
// One GSD per partition, hosted on the partition's server node. It is the
// kernel component that solves scalability and high availability at once:
//
//  * Partition monitoring: receives the watch daemons' per-network
//    heartbeats and classifies anomalies into process / node / network
//    failures by probing the suspected node's PPM daemon. Recoveries are
//    ordered through PPM (restart WD in place; nothing to do for a dead
//    compute node; single-NIC failures are only reported — each node has
//    three networks, so one loss is not fatal).
//
//  * Membership: the ring protocol itself (join order, Leader/Princess,
//    ring heartbeats, regroup, fencing) lives in MembershipRing, which
//    calls this daemon directly for sends, probes, fault records and
//    partition recovery. The GSD runs one or two rings depending on
//    FtParams::GroupTopology:
//
//      - flat() (the paper's §4.3 shape): ONE ring at scope 0 spanning
//        every partition's GSD.
//      - zoned(n): the partition's ZONE sub-ring (scope = zone + 1), which
//        owns fault logging and partition recovery for its members, plus —
//        while this GSD leads its zone — the TOP RING of zone leaders
//        (scope = kTopRingScope, membership-only, never checkpointed).
//        Zone churn aggregates up through the zone leader as one summarized
//        event per window; a periodic census run by zone leaders (zone
//        members) and the top leader (orphaned zones) re-invites stale
//        members and migrates unreachable ones, so even whole-zone death
//        heals without a flat view of the cluster.
//
//  * Service supervision: kernel services (and registered extension
//    services such as the PWS scheduler) on the GSD's node are liveness-
//    checked every heartbeat interval; dead ones are restarted through PPM
//    and recover their state from the checkpoint service.
//
// All fault handling is journaled into the shared FaultLog with detection /
// diagnosis / recovery timestamps — the raw data behind Tables 1-3.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/daemon.h"
#include "kernel/event/event.h"
#include "kernel/fault_log.h"
#include "kernel/ft_params.h"
#include "kernel/group/membership_ring.h"
#include "kernel/group/meta_group.h"
#include "kernel/group/watch_daemon.h"
#include "kernel/group/zone_ring.h"
#include "kernel/runtime/service_runtime.h"
#include "kernel/service_kind.h"
#include "kernel/service_msgs.h"

namespace phoenix::kernel {

// Declared in kernel/ppm/process_manager.h (included by the .cpp).
struct ProbeReplyMsg;
struct StartServiceReplyMsg;

/// A service the GSD supervises on its own node.
struct SupervisedSpec {
  std::string component;   // fault-log label: "ES", "DB", "CS", extension name
  ServiceKind kind = ServiceKind::kEventService;
  std::string extension;   // non-empty: extension service (port from spec)
  net::PortId port;        // mailbox port of the supervised instance
};

class GroupServiceDaemon final : public ServiceRuntime {
 public:
  enum class NodeStatus : std::uint8_t {
    kHealthy,
    kSuspect,        // all-network silence, diagnosis in progress
    kProcessFailed,  // WD dead, node alive, restart in flight
    kNodeFailed,
  };

  GroupServiceDaemon(cluster::Cluster& cluster, net::NodeId node,
                     net::PartitionId partition, const FtParams& params,
                     ServiceDirectory* directory, FaultLog* log,
                     std::vector<SupervisedSpec> default_supervised = {},
                     double cpu_share = 0.0);

  net::PartitionId partition() const noexcept { return partition_; }

  /// Seeds the initial view of this GSD's primary ring — the flat
  /// meta-group, or the partition's zone sub-ring under a zoned topology
  /// (used at cluster boot so the ring forms without a join storm).
  void set_initial_view(MetaView view);

  /// Seeds the initial top-ring view (zoned boot: the zone leaders). Adopted
  /// when this GSD first becomes its zone's leader; ignored in flat mode.
  void seed_top_view(MetaView view);

  /// Marks this GSD as a ring founder: on start it forms a singleton view
  /// immediately instead of searching for peers. Used by the system
  /// construction tool's staged boot; later GSDs join incrementally.
  void request_bootstrap() noexcept { bootstrap_requested_ = true; }

  bool joined() const noexcept { return primary_ring_->joined(); }

  /// Primary-ring view: the flat meta-group, or this partition's zone
  /// sub-ring under a zoned topology.
  const MetaView& view() const noexcept { return primary_ring_->view(); }
  bool is_leader() const { return primary_ring_->is_ring_leader(); }
  bool is_princess() const { return primary_ring_->is_ring_princess(); }
  std::uint64_t incarnation() const noexcept { return incarnation_; }

  /// Current fencing epoch of the primary ring. Always 0 under the paper's
  /// unilateral policy; under quorum fencing, views bootstrap at epoch 1
  /// (epoch_floor) so even the FIRST takeover — which bumps to 2 — outranks
  /// the deposed member's stamped traffic.
  std::uint64_t meta_epoch() const noexcept { return primary_ring_->view().epoch; }
  /// True while a regroup round (quorum solicitation) is in flight on the
  /// primary ring.
  bool regroup_active() const noexcept { return primary_ring_->regroup_active(); }
  /// Regroup rounds this member has initiated / rounds that ended without a
  /// quorum (minority side of a partition, or a 2-member view).
  std::uint64_t regroup_rounds() const noexcept {
    return primary_ring_->regroup_rounds();
  }
  std::uint64_t quorum_losses() const noexcept {
    return primary_ring_->quorum_losses();
  }
  /// Concurrence votes this member cast as a solicited voter.
  std::uint64_t regroup_votes_cast() const noexcept {
    return primary_ring_->regroup_votes_cast();
  }

  // -- zoned-topology observers (flat mode: aliases of the flat ring) --
  bool zoned() const noexcept { return zoned_; }
  const ZoneTopology& zones() const noexcept { return zones_; }
  std::uint32_t zone() const noexcept { return zone_; }
  std::uint32_t zone_count() const noexcept { return zones_.num_zones; }
  /// Top-ring membership/leadership. In flat mode the single ring IS the
  /// top ring, so these alias the flat accessors (keeps monitors uniform).
  bool is_top_member() const noexcept {
    return zoned_ ? top_ring_ != nullptr && top_ring_->joined() : joined();
  }
  bool is_top_leader() const noexcept {
    return zoned_ ? top_ring_ != nullptr && top_ring_->is_ring_leader()
                  : is_leader();
  }
  std::uint64_t top_epoch() const noexcept {
    return zoned_ && top_ring_ != nullptr ? top_ring_->view().epoch
                                          : meta_epoch();
  }
  const MetaView& top_view() const noexcept {
    return zoned_ && top_ring_ != nullptr ? top_ring_->view()
                                          : primary_ring_->view();
  }
  /// Aggregated zone-churn events this zone leader has emitted.
  std::uint64_t zone_churn_events() const noexcept {
    return churn_ != nullptr ? churn_->events_emitted() : 0;
  }

  /// Registers an extension service on this node for supervision.
  void supervise(SupervisedSpec spec);
  /// The kernel services plus the extensions registered through supervise().
  const std::vector<SupervisedSpec>& supervised() const noexcept {
    return supervised_;
  }

  NodeStatus node_status(net::NodeId node) const;

  /// Heartbeats received per node (tests).
  std::uint64_t heartbeats_received() const noexcept { return heartbeats_received_; }

 private:
  // The ring protocol runs inside the GSD: it sends, probes, traces and
  // publishes as this daemon, and calls the ring hooks below.
  friend class MembershipRing;

  void on_service_start() override;
  void on_service_stop() override;
  /// The checkpointed state is the primary ring's view, in the bytes the
  /// ring keeps for it (paired with the custom CheckpointLoadReplyMsg
  /// handler — recovery here is fetch_state_and_join, not the runtime's
  /// generic restore loop).
  CheckpointData snapshot() const override { return primary_ring_->view_bytes(); }
  /// GSD checkpoint saves are stamped with the primary ring's epoch so a
  /// deposed instance cannot overwrite its successor's view (0 under
  /// unilateral).
  std::uint64_t fence_epoch() const override { return primary_ring_->view().epoch; }
  /// ... and with the primary ring's scope, so zone rings fence
  /// independently (0 in flat mode — wire unchanged).
  std::uint32_t fence_scope() const override { return primary_ring_->scope(); }

  // -- partition monitoring --
  void handle_heartbeat(const HeartbeatMsg& hb, net::NetworkId network);
  /// Probes `node`'s PPM over every network, up to `attempts` times
  /// `timeout` apart, and completes `done` with the first reply, or with
  /// nullptr once the last attempt went unanswered. A late reply to an
  /// earlier attempt still counts. Not called back while this GSD is dead.
  void probe(net::NodeId node, int attempts, sim::SimTime timeout,
             std::function<void(const ProbeReplyMsg*)> done);
  /// Completion of a WD restart ordered by conclude_wd_process_failure.
  void finish_wd_restart(net::NodeId node, bool restarted);
  void handle_state_load_reply(const CheckpointLoadReplyMsg& reply);
  void check_partition();
  void begin_node_diagnosis(net::NodeId node);
  void conclude_wd_process_failure(net::NodeId node, sim::SimTime detected_at,
                                   sim::SimTime last_seen_at);
  void conclude_node_failure(net::NodeId node, sim::SimTime detected_at,
                             sim::SimTime last_seen_at);
  void diagnose_network_failure(net::NodeId node, net::NetworkId network,
                                sim::SimTime detected_at, const char* component,
                                sim::SimTime last_seen_at);

  // -- membership plumbing --
  MembershipRing* ring_for(std::uint32_t scope);
  void fetch_state_and_join();
  void migrate_partition(const MetaMember& failed, const MembershipRing& ring);

  // -- ring hooks (called by MembershipRing) --
  /// Peers to solicit with MetaJoinMsg when rejoining `ring`.
  std::vector<net::Address> join_targets(const MembershipRing& ring) const;
  /// Journals the fault records for a member a flat or zone ring removed:
  /// the GSD record, plus ES/DB/CS records when the server node died.
  void log_member_failure(const MetaMember& member, bool node_dead,
                          sim::SimTime last_seen_at, sim::SimTime detected_at,
                          sim::SimTime diagnosed_at);
  /// Publishes the removal event (flat/zone: kNodeFailed / kServiceFailed
  /// with the GSD attrs; top ring: the zone-leader-lost event).
  void member_removed(const MembershipRing& ring, const MetaMember& member,
                      bool node_dead);
  /// Recovers a removed member's partition: restart in place or migrate.
  /// Flat and zone rings only.
  void recover_member(const MembershipRing& ring, const MetaMember& member,
                      bool node_dead);
  /// A view change introduced a new or re-incarnated member: closes its
  /// fault record (first applier wins) and publishes the recovery event.
  void member_recovered(const MembershipRing& ring, const MetaMember& member);
  /// The view changed (applied, founded or adopted): leadership transitions
  /// and churn aggregation for the zone layer.
  void view_changed(const MembershipRing& ring, const MetaView& old_view);
  /// A regroup solicitation round started (metrics).
  void regroup_round(const MembershipRing& ring);

  // -- zone hierarchy --
  /// Reconciles this GSD's role after a primary-ring view change: a newly
  /// elected/promoted zone leader activates its top-ring membership; a
  /// deposed one suspends it. No-op in flat mode.
  void update_zone_role(const MetaView& old_view);
  void ensure_top_ring_active();
  void suspend_top_ring();
  /// Periodic census (zoned only): as zone leader, probe-and-recover
  /// statically-assigned zone members missing from the zone view; as top
  /// leader, probe-and-recover the first partition of any zone with no top
  /// ring representative (whole-zone death / stale believers).
  void run_census();
  void census_probe(net::PartitionId target, bool top);

  // -- supervision --
  void check_services();
  void handle_service_up(const ServiceUpMsg& up);

  // -- helpers --
  void publish(Event e);
  net::Address ppm_at(net::NodeId node) const {
    return {node, port_of(ServiceKind::kProcessManager)};
  }
  void announce_to_partition();

  net::PartitionId partition_;
  const FtParams& params_;
  FaultLog* log_;
  std::uint64_t incarnation_ = 0;

  // Zone decomposition (flat mode: one zone covering everything).
  bool zoned_ = false;
  ZoneTopology zones_;
  std::uint32_t zone_ = 0;

  // Partition (WD) monitoring state.
  struct NodeWatch {
    std::vector<sim::SimTime> last_per_net;  // last heartbeat per network
    std::vector<bool> net_failed;            // per-network failure latched
    NodeStatus status = NodeStatus::kHealthy;
    bool diagnosing = false;
  };
  std::unordered_map<std::uint32_t, NodeWatch> watches_;
  std::uint64_t heartbeats_received_ = 0;

  // Membership rings. primary_ring_ always exists (scope 0 flat, or the
  // partition's zone sub-ring); top_ring_ exists only under zoned().
  std::unique_ptr<MembershipRing> primary_ring_;
  std::unique_ptr<MembershipRing> top_ring_;
  bool top_active_ = false;
  bool was_zone_leader_ = false;
  bool has_seeded_top_view_ = false;
  MetaView seeded_top_view_;
  std::unique_ptr<ZoneChurnAggregator> churn_;
  // Per-partition census backoff: next time a census probe may be sent.
  std::unordered_map<std::uint32_t, sim::SimTime> census_backoff_;

  bool booted_with_view_ = false;
  bool bootstrap_requested_ = false;
  bool started_before_ = false;
  std::uint64_t state_load_id_ = 0;

  // Supervised services.
  std::vector<SupervisedSpec> supervised_;
  std::unordered_map<std::string, bool> service_recovering_;  // by component

  // Timers (the rings own their checker/beater/retrier timers).
  sim::PeriodicTask partition_checker_;
  sim::PeriodicTask service_checker_;
  sim::PeriodicTask census_checker_;
};

}  // namespace phoenix::kernel
