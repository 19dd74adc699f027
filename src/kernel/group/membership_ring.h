// Reusable ring-membership protocol, extracted from the GSD.
//
// One MembershipRing instance runs the paper's §4.3 meta-group protocol
// for ONE ring: members kept in join order ([0]=Leader, [1]=Princess),
// ring heartbeats to the successor over all networks, predecessor
// monitoring with probe-based diagnosis, view dissemination, tail rejoin,
// and — under FailoverPolicy::quorum() — regroup concurrence rounds and
// per-ring epoch fencing.
//
// The flat paper topology is exactly one ring at scope 0; the zoned
// topology (zone_ring.h) instantiates one ring per zone plus a top ring of
// zone leaders. Everything environment-specific — who hosts the ring, how
// a removed member's partition is recovered, where fault records and
// events go, which peers to solicit when rejoining — is behind the Host
// interface, implemented by GroupServiceDaemon. The protocol itself
// (message order, timer cadence, RNG draws) is a verbatim extraction of
// the original GSD code, so a scope-0 ring is byte-identical on the wire
// to the pre-refactor implementation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "kernel/event/event.h"
#include "kernel/ft_params.h"
#include "kernel/group/meta_group.h"
#include "kernel/service_kind.h"
#include "net/message.h"
#include "sim/engine.h"
#include "sim/trace.h"

namespace phoenix::kernel {

struct ProbeReplyMsg;  // kernel/ppm/process_manager.h (included by the .cpp)

class MembershipRing {
 public:
  /// Retry cadence for (re)join solicitations; after 10 futile rounds the
  /// member founds a fresh singleton ring.
  static constexpr sim::SimTime kJoinRetryPeriod = 2 * sim::kSecond;

  struct Config {
    /// Wire scope tag (0 = the legacy flat meta-group; zone rings use
    /// zone + 1; the top ring uses kTopRingScope).
    std::uint32_t scope = 0;
    /// Trace prefix; "meta" reproduces the flat-mode trace text verbatim.
    std::string label = "meta";
    /// Whether a removal recovers the failed member's partition (restart in
    /// place / migrate) and journals GSD+ES/DB/CS fault records. True for
    /// the flat ring and zone rings; false for the membership-only top ring.
    bool recovers_partitions = true;
    /// Whether view changes are checkpointed through the host. The top
    /// ring's view is reconstructible from the zone leaders, so only the
    /// primary ring persists.
    bool persists_view = true;
    /// Leader-side join rule: a joiner displaces any stale member from the
    /// same zone (top ring only — one representative per zone).
    bool displaces_same_zone = false;
  };

  /// Environment the ring runs in, implemented by the GSD. The ring_ name
  /// prefix keeps these distinct from the daemon's own protected API.
  class Host {
   public:
    virtual ~Host() = default;
    virtual cluster::Cluster& ring_cluster() = 0;
    virtual bool ring_alive() const = 0;
    virtual bool ring_running() const = 0;
    virtual net::Address ring_address() const = 0;
    virtual net::PartitionId ring_partition() const = 0;
    virtual ServiceDirectory* ring_directory() = 0;
    virtual std::uint64_t ring_incarnation() const = 0;
    /// Probes `node`'s PPM once over every network and completes `done` with
    /// the reply, or with nullptr when none came within `timeout`. Not called
    /// back while the host is dead.
    virtual void ring_probe(net::NodeId node, sim::SimTime timeout,
                            std::function<void(const ProbeReplyMsg*)> done) = 0;
    virtual void ring_trace(sim::TraceLevel level, const std::string& text) = 0;
    virtual void ring_publish(Event e) = 0;
    virtual void ring_send_any(net::Address to,
                               std::shared_ptr<const net::Message> msg) = 0;
    virtual void ring_send_all_networks(net::Address to,
                                        std::shared_ptr<const net::Message> msg) = 0;
    /// Persist the ring's view (primary ring: the runtime checkpoint path).
    virtual void ring_save_state(MembershipRing& ring) = 0;
    /// Peers to solicit with MetaJoinMsg when rejoining this ring.
    virtual std::vector<net::Address> ring_join_targets(MembershipRing& ring) = 0;
    virtual std::uint32_t ring_zone_of(net::PartitionId p) const = 0;
    /// Journal the fault records for a removed member (GSD record, plus
    /// ES/DB/CS records when the server node died).
    virtual void ring_log_member_failure(MembershipRing& ring,
                                         const MetaMember& member, bool node_dead,
                                         sim::SimTime last_seen_at,
                                         sim::SimTime detected_at,
                                         sim::SimTime diagnosed_at) = 0;
    /// Publish the removal event (flat/zone: kNodeFailed / kServiceFailed
    /// with the GSD attrs; top ring: the aggregated zone-leader-lost event).
    virtual void ring_member_removed(MembershipRing& ring,
                                     const MetaMember& member, bool node_dead) = 0;
    /// Recover the removed member's partition (restart in place or migrate).
    /// Called only when Config::recovers_partitions is set.
    virtual void ring_recover_member(MembershipRing& ring,
                                     const MetaMember& member, bool node_dead) = 0;
    /// A view change introduced a new/re-incarnated member: close its fault
    /// record (first applier wins) and publish the recovery event.
    virtual void ring_member_recovered(MembershipRing& ring,
                                       const MetaMember& member) = 0;
    /// Per-network silence diagnosis delegated to the host's shared
    /// analysis path (logs the GSD network-failure record).
    virtual void ring_diagnose_network_failure(MembershipRing& ring,
                                               net::NodeId node,
                                               net::NetworkId network,
                                               sim::SimTime detected_at,
                                               sim::SimTime last_seen_at) = 0;
    /// The view changed (applied, founded or adopted). Hook for the zone
    /// layer: leadership transitions, churn aggregation, metrics.
    virtual void ring_view_changed(MembershipRing& ring,
                                   const MetaView& old_view) = 0;
    /// A regroup solicitation round started (metrics hook).
    virtual void ring_regroup_round(MembershipRing& ring) = 0;
  };

  MembershipRing(Host& host, cluster::Cluster& cluster, const FtParams& params,
                 Config config);

  MembershipRing(const MembershipRing&) = delete;
  MembershipRing& operator=(const MembershipRing&) = delete;

  // -- lifecycle (driven by the host daemon) --
  /// Adopt a boot-time view seeded by the kernel (no join storm).
  void seed_view(MetaView view);
  /// Found a fresh singleton ring at the given view id (keeps the fencing
  /// epoch, floored). `persist` mirrors the original call sites: bootstrap
  /// and futile-rejoin refounding checkpoint the view, the single-partition
  /// shortcut does not.
  void found(std::uint64_t view_id, bool persist);
  /// Directoryless host: nothing to rejoin, just mark membership.
  void mark_joined() { joined_ = true; }
  /// Restart/migration path: membership must be re-earned by rejoining.
  void mark_unjoined() { joined_ = false; }
  /// Drop stale membership knowledge (members + view id), keeping the
  /// fencing epoch. Used when a suspended top-ring participant re-activates
  /// later: its old view ids must not outrank the current ring's.
  void forget_membership() {
    MetaView blank;
    blank.epoch = view_.epoch;
    replace_view(std::move(blank));
    joined_ = false;
  }
  /// Merge a checkpoint-recovered view (restart/migration path).
  void adopt_recovered_view(MetaView recovered);
  /// Clear per-incarnation runtime state (restart path).
  void reset_runtime_state(std::size_t network_count);
  /// Arm the predecessor checker and ring beater. Draws the beater's start
  /// jitter from the engine RNG — at the same sequence position as the
  /// original GSD code.
  void arm(sim::SimTime scan_period, sim::SimTime checker_delay,
           sim::SimTime beat_period);
  /// Start the periodic join solicitation after the given delay.
  void begin_join_search(sim::SimTime delay);
  /// Send one join solicitation immediately.
  void rejoin_now() { try_rejoin(); }
  void stop();

  // -- wire entry points (host routes by message scope) --
  void handle_ring_heartbeat(const RingHeartbeatMsg& ring, const net::Envelope& env);
  void apply_view(MetaView incoming);
  void handle_join(const MetaJoinMsg& join);
  void handle_regroup_propose(const RegroupProposeMsg& proposal);
  void handle_regroup_vote(const RegroupVoteMsg& vote);

  // -- observers --
  const Config& config() const noexcept { return config_; }
  std::uint32_t scope() const noexcept { return config_.scope; }
  const MetaView& view() const noexcept { return view_; }
  bool joined() const noexcept { return joined_; }
  bool is_ring_leader() const;
  bool is_ring_princess() const;
  bool regroup_active() const noexcept { return regroup_.has_value(); }
  std::uint64_t regroup_rounds() const noexcept { return regroup_rounds_; }
  std::uint64_t quorum_losses() const noexcept { return quorum_losses_; }
  std::uint64_t regroup_votes_cast() const noexcept { return regroup_votes_cast_; }
  /// Floor for the fencing epoch: 1 under quorum fencing, 0 otherwise.
  std::uint64_t epoch_floor() const noexcept;

 private:
  void send_ring_heartbeat();
  void check_meta();
  /// Outcome of the predecessor probe check_meta started (`reply` null: no
  /// answer, the node is dead).
  void pred_probe_done(const MetaMember& pred, sim::SimTime detected_at,
                       sim::SimTime last_seen_at, const ProbeReplyMsg* reply);
  void conclude_meta_failure(const MetaMember& pred, bool node_dead,
                             sim::SimTime detected_at, sim::SimTime last_seen_at);
  void commit_member_removal(const MetaMember& pred, bool node_dead,
                             sim::SimTime detected_at, sim::SimTime last_seen_at);
  /// Sends the current view to every other member and returns the one
  /// shared message, for any extra recipients.
  std::shared_ptr<const ViewChangeMsg> broadcast_view();
  void try_rejoin();
  /// The only writer of view_: installs `view`, recomputes self_index_ and
  /// returns the previous view.
  MetaView replace_view(MetaView view);
  /// Ring neighbours of this member; nullopt when it is not in the view or
  /// is alone in it.
  std::optional<MetaMember> successor() const;
  std::optional<MetaMember> predecessor() const;

  // -- quorum regroup (FailoverPolicy::quorum()) --
  void begin_regroup(const MetaMember& suspect, bool node_dead,
                     sim::SimTime detected_at, sim::SimTime last_seen_at);
  void solicit_regroup_round();
  void evaluate_regroup(bool round_over);
  void regroup_quorum_lost();
  void cancel_regroup(bool exonerated);
  void cast_vote(net::Address reply_to, std::uint64_t round_id, bool concur);
  void send_fence();

  sim::SimTime now() const { return cluster_.engine().now(); }
  net::Address ppm_at(net::NodeId node) const;
  /// Publish with the ring scope attached (scope 0 adds nothing, keeping
  /// every flat-mode event byte-identical).
  void publish_scoped(Event e);

  Host& host_;
  cluster::Cluster& cluster_;
  const FtParams& params_;
  const Config config_;

  MetaView view_;
  /// index_of(our partition) in view_, kept by replace_view so the 50 ms
  /// predecessor check and the ring beater do not rescan the view.
  std::optional<std::size_t> self_index_;
  std::uint64_t ring_seq_ = 0;
  std::vector<sim::SimTime> pred_last_per_net_;
  std::vector<bool> pred_net_failed_;
  net::PartitionId pred_partition_{};
  bool pred_diagnosing_ = false;
  /// Predecessor diagnoses a ring heartbeat cut short; a probe that started
  /// before the latest one is void.
  std::uint64_t pred_exonerations_ = 0;
  std::unordered_map<std::uint32_t, std::uint64_t> tombstones_;  // partition -> incarnation

  // Quorum regroup state (initiator side). One regroup at a time: the view
  // change it commits re-evaluates every other suspicion anyway.
  struct Regroup {
    MetaMember suspect;
    bool node_dead = false;
    sim::SimTime detected_at = 0;
    sim::SimTime last_seen_at = 0;
    std::uint64_t round_id = 0;
    std::size_t view_size = 0;  // members at solicitation, incl. us + suspect
    int concur = 0;             // incl. our own observation
    int dissent = 0;
    int rounds_run = 0;
    bool done = false;  // round settled; ignore stragglers
    /// Partitions whose vote was counted this round: a duplicated or
    /// replayed RegroupVoteMsg must not be double-counted toward quorum.
    std::vector<std::uint32_t> voters;
  };
  std::optional<Regroup> regroup_;
  std::uint64_t next_round_id_ = 1;
  std::uint64_t regroup_rounds_ = 0;
  std::uint64_t quorum_losses_ = 0;
  std::uint64_t regroup_votes_cast_ = 0;

  // Initiator partition -> last round answered (dedups the multi-network
  // delivery of RegroupProposeMsg so each round gets exactly one vote).
  std::unordered_map<std::uint32_t, std::uint64_t> answered_rounds_;

  bool joined_ = false;
  int futile_join_attempts_ = 0;

  sim::PeriodicTask meta_checker_;
  sim::PeriodicTask ring_beater_;
  sim::PeriodicTask join_retrier_;
};

}  // namespace phoenix::kernel
