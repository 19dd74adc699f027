// Meta-group membership types (paper §4.3, Figure 3).
//
// The GSDs of all partitions form a meta-group arranged as a ring. The
// member list is kept in JOIN order: the first member is the Leader, the
// second the Princess. Each member sends ring heartbeats to its successor
// and monitors its predecessor; the member next to a failed member takes
// over (initiates the view change and the recovery of that partition).
// A failed-and-recovered member rejoins at the tail, so leadership moves
// exactly as the paper describes: Princess takes over a failed Leader, the
// member next to a failed Princess becomes Princess, and so on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "kernel/checkpoint/checkpoint_msgs.h"
#include "net/ids.h"
#include "net/message.h"

namespace phoenix::kernel {

struct MetaMember {
  net::PartitionId partition;
  net::Address gsd;
  /// Start timestamp of the GSD instance; lets the membership protocol tell
  /// a rejoined member from a stale view entry (tombstone comparison).
  std::uint64_t incarnation = 0;

  friend bool operator==(const MetaMember&, const MetaMember&) = default;
};

/// Membership difference between two views of one ring, keyed by partition.
/// A partition listed twice matches its first entry, as in
/// MetaView::index_of.
struct MetaViewDiff {
  /// New-view members absent from the old view, or present there with
  /// another address or incarnation (a completed recovery), in new-view
  /// order.
  std::vector<MetaMember> changed;
  /// New-view partitions absent from the old view, in new-view order.
  std::vector<net::PartitionId> added;
  /// Old-view partitions absent from the new view, in old-view order.
  std::vector<net::PartitionId> removed;
};

struct MetaView {
  std::uint64_t view_id = 0;
  /// Fencing epoch, bumped once per quorum takeover (FailoverPolicy::quorum()).
  /// Stays 0 forever under the paper's unilateral policy, and a zero epoch is
  /// omitted from the serialized form, so legacy views are byte-identical.
  /// Under quorum fencing the GSD bootstraps views at epoch 1, so a member
  /// deposed by the FIRST takeover (epoch 2) is already stamping rejectable
  /// traffic — epoch 0 would be admitted unconditionally as legacy. A view
  /// with a higher epoch beats any view_id; a stale-epoch view is discarded
  /// unseen.
  std::uint64_t epoch = 0;
  std::vector<MetaMember> members;  // join order; [0]=Leader, [1]=Princess

  std::optional<std::size_t> index_of(net::PartitionId p) const {
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (members[i].partition == p) return i;
    }
    return std::nullopt;
  }

  bool contains(net::PartitionId p) const { return index_of(p).has_value(); }

  /// Successor / predecessor in ring order (list order, wrapping).
  std::optional<MetaMember> successor_of(net::PartitionId p) const {
    auto i = index_of(p);
    if (!i || members.size() < 2) return std::nullopt;
    return members[(*i + 1) % members.size()];
  }
  std::optional<MetaMember> predecessor_of(net::PartitionId p) const {
    auto i = index_of(p);
    if (!i || members.size() < 2) return std::nullopt;
    return members[(*i + members.size() - 1) % members.size()];
  }

  std::optional<MetaMember> leader() const {
    if (members.empty()) return std::nullopt;
    return members.front();
  }
  std::optional<MetaMember> princess() const {
    if (members.size() < 2) return std::nullopt;
    return members[1];
  }

  bool remove(net::PartitionId p) {
    auto i = index_of(p);
    if (!i) return false;
    members.erase(members.begin() + static_cast<std::ptrdiff_t>(*i));
    return true;
  }

  /// What changed from `old` to this view, in time linear in both views
  /// and the largest partition id: partition ids are dense cluster
  /// indices, so each side's lookup is one vector.
  MetaViewDiff diff_from(const MetaView& old) const;

  std::string serialize() const;
  static MetaView deserialize(const std::string& data);
};

/// Ring scope tag carried by every membership message. Scope 0 is the
/// legacy flat meta-group; a zoned topology (FtParams::GroupTopology)
/// runs one ring per zone (scope = zone + 1) plus a top ring of zone
/// leaders (scope = kTopRingScope in zone_ring.h). A zero scope is omitted
/// from the wire, so every flat-mode message stays byte-identical to the
/// paper-mode format.
struct RingHeartbeatMsg final : net::Message {
  net::PartitionId from_partition;
  std::uint64_t view_id = 0;
  std::uint64_t seq = 0;
  std::uint32_t scope = 0;

  PHOENIX_MESSAGE_TYPE("meta.ring_heartbeat")
  std::size_t wire_size() const noexcept override {
    return 24 + (scope != 0 ? 4 : 0);
  }
};

/// View dissemination (initiator or leader -> all members).
struct ViewChangeMsg final : net::Message {
  MetaView view;
  std::uint32_t scope = 0;
  /// view.serialize(), encoded once by the sender and shared by every
  /// receiver that checkpoints the view unchanged (empty: the receiver
  /// encodes). Host-side, like a save's `attempt`: excluded from wire_size().
  CheckpointData bytes;

  PHOENIX_MESSAGE_TYPE("meta.view_change")
  std::size_t wire_size() const noexcept override {
    return 16 + view.members.size() * 12 + (view.epoch != 0 ? 8 : 0) +
           (scope != 0 ? 4 : 0);
  }
};

/// A restarted / migrated GSD asking to (re)join the meta-group.
struct MetaJoinMsg final : net::Message {
  MetaMember member;
  std::uint32_t scope = 0;

  PHOENIX_MESSAGE_TYPE("meta.join")
  std::size_t wire_size() const noexcept override {
    return 16 + (scope != 0 ? 4 : 0);
  }
};

/// Quorum regroup solicitation (FailoverPolicy::quorum() only; never on the
/// wire under the paper's unilateral policy). The initiator — the member
/// next to a silent predecessor — asks every other live view member to
/// concur with the removal before acting on its own suspicion.
struct RegroupProposeMsg final : net::Message {
  net::PartitionId initiator;
  net::PartitionId suspect;
  std::uint64_t suspect_incarnation = 0;
  std::uint64_t view_id = 0;
  std::uint64_t round_id = 0;
  net::Address reply_to;
  std::uint32_t scope = 0;

  PHOENIX_MESSAGE_TYPE("meta.regroup_propose")
  std::size_t wire_size() const noexcept override {
    return 40 + (scope != 0 ? 4 : 0);
  }
};

/// A voter's answer: `concur` when the suspect looks dead from the voter's
/// side too (its own connectivity, probed independently — that is what
/// defeats one-directional partitions fooling the initiator).
struct RegroupVoteMsg final : net::Message {
  net::PartitionId voter;
  std::uint64_t round_id = 0;
  bool concur = false;
  std::uint32_t scope = 0;

  PHOENIX_MESSAGE_TYPE("meta.regroup_vote")
  std::size_t wire_size() const noexcept override {
    return 16 + (scope != 0 ? 4 : 0);
  }
};

}  // namespace phoenix::kernel
