// The meta-group ring protocol (paper §4.3), run inside the GSD.
//
// One MembershipRing instance runs the protocol for ONE ring: members kept
// in join order ([0]=Leader, [1]=Princess), ring heartbeats to the successor
// over all networks, predecessor monitoring with probe-based diagnosis, view
// dissemination, tail rejoin, and — under FailoverPolicy::quorum() — regroup
// concurrence rounds and per-ring epoch fencing.
//
// A GSD is the only host a ring has. It runs one flat ring at scope 0, or
// under a zoned topology its zone's sub-ring (scope zone + 1) plus, while it
// leads its zone, the top ring of zone leaders (scope kTopRingScope,
// zone_ring.h). The ring calls its GSD directly: to send, probe, trace and
// publish, and for the fault records, partition recovery, join targets and
// zone bookkeeping a membership change implies. The scope alone sets the
// ring's role: the top ring is membership-only (no fault records, no
// partition recovery), never checkpoints its view, and lets a joiner
// displace its zone's stale entry.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "kernel/event/event.h"
#include "kernel/ft_params.h"
#include "kernel/group/meta_group.h"
#include "kernel/group/zone_ring.h"
#include "net/message.h"
#include "sim/engine.h"

namespace phoenix::kernel {

class GroupServiceDaemon;  // kernel/group/group_service.h (included by the .cpp)
struct ProbeReplyMsg;      // kernel/ppm/process_manager.h (included by the .cpp)

class MembershipRing {
 public:
  /// Retry cadence for (re)join solicitations; after 10 futile rounds the
  /// member founds a fresh singleton ring.
  static constexpr sim::SimTime kJoinRetryPeriod = 2 * sim::kSecond;

  /// `scope` is the wire scope tag: 0 for the flat ring, zone + 1 for a zone
  /// sub-ring, kTopRingScope for the top ring.
  MembershipRing(GroupServiceDaemon& gsd, std::uint32_t scope);

  MembershipRing(const MembershipRing&) = delete;
  MembershipRing& operator=(const MembershipRing&) = delete;

  // -- lifecycle (driven by the GSD) --
  /// Adopt a boot-time view seeded by the kernel (no join storm).
  void seed_view(MetaView view);
  /// Found a fresh singleton ring at the given view id (keeps the fencing
  /// epoch, floored). With `persist`, a flat or zone ring checkpoints the
  /// view: bootstrap and futile-rejoin refounding do, the single-partition
  /// shortcut does not.
  void found(std::uint64_t view_id, bool persist);
  /// A GSD without a directory: nothing to rejoin, just mark membership.
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
  /// Arm the predecessor checker (first check after `checker_delay`, then
  /// every kHeartbeatGrace) and the ring beater (every heartbeat interval).
  /// Draws the beater's start jitter from the engine RNG, so its place in
  /// the GSD's start sequence fixes every later draw.
  void arm(sim::SimTime checker_delay);
  /// Start the periodic join solicitation after the given delay.
  void begin_join_search(sim::SimTime delay);
  /// Send one join solicitation immediately.
  void rejoin_now() { try_rejoin(); }
  void stop();

  // -- wire entry points (the GSD routes by message scope) --
  void handle_ring_heartbeat(const RingHeartbeatMsg& ring, const net::Envelope& env);
  /// `bytes`, when given, is incoming.serialize() (a ViewChangeMsg's).
  void apply_view(MetaView incoming, CheckpointData bytes = {});
  void handle_join(const MetaJoinMsg& join);
  void handle_regroup_propose(const RegroupProposeMsg& proposal);
  void handle_regroup_vote(const RegroupVoteMsg& vote);

  // -- observers --
  std::uint32_t scope() const noexcept { return scope_; }
  /// The membership-only top ring of zone leaders.
  bool is_top() const noexcept { return scope_ == kTopRingScope; }
  const MetaView& view() const noexcept { return view_; }
  /// view().serialize(), encoded on first use and kept until the view
  /// changes: the GSD's checkpoint saves and the view messages share it.
  const CheckpointData& view_bytes() const;
  /// A ViewChangeMsg carrying the current view (and, unless this is the
  /// top ring, which never checkpoints, its bytes).
  std::shared_ptr<ViewChangeMsg> view_message() const;
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
  /// The only writer of view_ and view_bytes_: installs `view` with its
  /// `bytes` (empty: encoded on first use), recomputes self_index_ and
  /// returns the previous view.
  MetaView replace_view(MetaView view, CheckpointData bytes = {});
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

  sim::SimTime now() const;
  /// Trace prefix: "meta" (flat), "zone" or "top".
  const char* label() const noexcept;
  /// Publish with the ring scope attached (scope 0 adds nothing, keeping
  /// every flat-mode event byte-identical).
  void publish_scoped(Event e);

  GroupServiceDaemon& gsd_;
  const std::uint32_t scope_;
  const FtParams& params_;

  MetaView view_;
  mutable CheckpointData view_bytes_;  // see view_bytes()
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
