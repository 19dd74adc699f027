#include "kernel/group/membership_ring.h"

#include <algorithm>
#include <utility>

#include "kernel/group/group_service.h"
#include "kernel/ppm/process_manager.h"

namespace phoenix::kernel {

namespace {
/// Quorum regroup timing (FailoverPolicy::quorum()). Solicited votes must be
/// back within one round or the round is evaluated without them.
constexpr sim::SimTime kRegroupRoundTimeout = 900 * sim::kMillisecond;
/// A solicited voter pings the suspect's node over its own links and votes
/// "alive" if it answers within this window — its view of connectivity, not
/// the initiator's, which is what defeats asymmetric partitions.
constexpr sim::SimTime kRegroupProbeTimeout = 280 * sim::kMillisecond;
/// Delay before re-running a round that assembled no quorum (this member
/// sits on the minority side of a partition); rounds repeat until it heals.
constexpr sim::SimTime kRegroupRetryDelay = 2 * sim::kSecond;
}  // namespace

MembershipRing::MembershipRing(GroupServiceDaemon& gsd, std::uint32_t scope)
    : gsd_(gsd),
      scope_(scope),
      params_(gsd.params_),
      meta_checker_(gsd.engine(), kHeartbeatGrace, [this] { check_meta(); }),
      ring_beater_(gsd.engine(), params_.heartbeat_interval,
                   [this] { send_ring_heartbeat(); }),
      join_retrier_(gsd.engine(), kJoinRetryPeriod, [this] { try_rejoin(); }) {}

std::uint64_t MembershipRing::epoch_floor() const noexcept {
  return params_.failover.mode == FtParams::FailoverPolicy::Mode::kQuorum ? 1 : 0;
}

sim::SimTime MembershipRing::now() const { return gsd_.now(); }

const char* MembershipRing::label() const noexcept {
  if (scope_ == 0) return "meta";
  return is_top() ? "top" : "zone";
}

void MembershipRing::publish_scoped(Event e) {
  if (scope_ != 0) e.attrs.emplace_back("scope", std::to_string(scope_));
  gsd_.publish(std::move(e));
}

bool MembershipRing::is_ring_leader() const {
  auto l = view_.leader();
  return l && l->partition == gsd_.partition() && joined_;
}

bool MembershipRing::is_ring_princess() const {
  auto p = view_.princess();
  return p && p->partition == gsd_.partition() && joined_;
}

// --- lifecycle ---------------------------------------------------------------

MetaView MembershipRing::replace_view(MetaView view, CheckpointData bytes) {
  MetaView old = std::exchange(view_, std::move(view));
  view_bytes_ = std::move(bytes);
  self_index_ = view_.index_of(gsd_.partition());
  return old;
}

const CheckpointData& MembershipRing::view_bytes() const {
  // A serialized view is never empty: it starts with the view id.
  if (view_bytes_.size() == 0) view_bytes_ = view_.serialize();
  return view_bytes_;
}

std::shared_ptr<ViewChangeMsg> MembershipRing::view_message() const {
  auto msg = std::make_shared<ViewChangeMsg>();
  msg->view = view_;
  msg->scope = scope_;
  if (!is_top()) msg->bytes = view_bytes();
  return msg;
}

std::optional<MetaMember> MembershipRing::successor() const {
  const std::size_t n = view_.members.size();
  if (!self_index_ || n < 2) return std::nullopt;
  return view_.members[(*self_index_ + 1) % n];
}

std::optional<MetaMember> MembershipRing::predecessor() const {
  const std::size_t n = view_.members.size();
  if (!self_index_ || n < 2) return std::nullopt;
  return view_.members[(*self_index_ + n - 1) % n];
}

void MembershipRing::seed_view(MetaView view) {
  view.epoch = std::max(view.epoch, epoch_floor());
  replace_view(std::move(view));
  joined_ = self_index_.has_value();
  pred_partition_ = net::PartitionId{};
}

void MembershipRing::found(std::uint64_t view_id, bool persist) {
  futile_join_attempts_ = 0;
  join_retrier_.stop();
  MetaView v;
  v.view_id = view_id;
  // Keep the fencing epoch across re-founding (floored: a migrated fresh
  // instance that never recovered a view must still stamp nonzero epochs
  // under quorum fencing).
  v.epoch = std::max(view_.epoch, epoch_floor());
  v.members = {MetaMember{gsd_.partition(), gsd_.address(), gsd_.incarnation()}};
  const MetaView old = replace_view(std::move(v));
  joined_ = true;
  if (persist && !is_top()) gsd_.mark_dirty();
  gsd_.view_changed(*this, old);
}

void MembershipRing::adopt_recovered_view(MetaView recovered) {
  // The recovered view predates our death; adopt it as a hint for the
  // membership we are rejoining (addresses of live members).
  if (recovered.view_id >= view_.view_id) {
    recovered.remove(gsd_.partition());  // our old entry is stale
    // A checkpoint written before quorum fencing was enabled may carry
    // epoch 0; re-apply the floor so our stamps stay nonzero.
    recovered.epoch = std::max(recovered.epoch, epoch_floor());
    replace_view(std::move(recovered));
  }
}

void MembershipRing::reset_runtime_state(std::size_t network_count) {
  pred_last_per_net_.assign(network_count, now());
  pred_net_failed_.assign(network_count, false);
  pred_diagnosing_ = false;
  regroup_.reset();
  answered_rounds_.clear();
  futile_join_attempts_ = 0;
}

void MembershipRing::arm(sim::SimTime checker_delay) {
  meta_checker_.start_after(checker_delay);
  // Jittered first beat so co-booted members do not phase-lock their ring
  // traffic.
  ring_beater_.start_after(
      gsd_.engine().rng().uniform_int(1, 10 * sim::kMillisecond));
}

void MembershipRing::begin_join_search(sim::SimTime delay) {
  join_retrier_.start_after(delay);
}

void MembershipRing::stop() {
  meta_checker_.stop();
  ring_beater_.stop();
  join_retrier_.stop();
}

// --- ring heartbeats and predecessor monitoring ------------------------------

void MembershipRing::send_ring_heartbeat() {
  if (!gsd_.alive() || !joined_ || view_.members.size() < 2) return;
  auto succ = successor();
  if (!succ) return;
  auto hb = std::make_shared<RingHeartbeatMsg>();
  hb->from_partition = gsd_.partition();
  hb->view_id = view_.view_id;
  hb->seq = ++ring_seq_;
  hb->scope = scope_;
  gsd_.send_all_networks(succ->gsd, std::move(hb));
}

void MembershipRing::check_meta() {
  if (!gsd_.alive() || !joined_ || view_.members.size() < 2 ||
      pred_diagnosing_ || regroup_.has_value()) {
    return;
  }
  auto pred = predecessor();
  if (!pred) return;
  if (pred->partition != pred_partition_) {
    // Predecessor changed since the last check; restart the grace window.
    pred_partition_ = pred->partition;
    std::fill(pred_last_per_net_.begin(), pred_last_per_net_.end(), now());
    std::fill(pred_net_failed_.begin(), pred_net_failed_.end(), false);
    return;
  }
  const sim::SimTime threshold = params_.heartbeat_interval + kHeartbeatGrace;
  std::size_t fresh = 0;
  for (sim::SimTime last : pred_last_per_net_) {
    if (now() - last <= threshold) ++fresh;
  }
  if (fresh == pred_last_per_net_.size()) return;

  if (fresh == 0) {
    // Every network silent at once is exactly the asymmetric-partition shape
    // that can split-brain a Princess takeover — flag it before probing.
    gsd_.trace(sim::TraceLevel::kError,
               std::string(label()) + " predecessor partition " +
                   std::to_string(pred->partition.value) +
                   " silent on all networks; split-brain suspect, probing");
    pred_diagnosing_ = true;
    const sim::SimTime last_seen_at =
        *std::max_element(pred_last_per_net_.begin(), pred_last_per_net_.end());
    gsd_.probe(pred->gsd.node, 1, kMetaProbeTimeout,
               [this, member = *pred, detected_at = now(), last_seen_at,
                exonerations = pred_exonerations_](const ProbeReplyMsg* reply) {
                 // A heartbeat since the probe went out voids it.
                 if (exonerations != pred_exonerations_) return;
                 pred_probe_done(member, detected_at, last_seen_at, reply);
               });
    return;
  }
  const sim::SimTime net_threshold =
      params_.network_miss_rounds * params_.heartbeat_interval + kHeartbeatGrace;
  for (std::size_t n = 0; n < pred_last_per_net_.size(); ++n) {
    if (now() - pred_last_per_net_[n] > net_threshold && !pred_net_failed_[n]) {
      pred_net_failed_[n] = true;
      gsd_.diagnose_network_failure(
          pred->gsd.node, net::NetworkId{static_cast<std::uint8_t>(n)}, now(),
          "GSD", pred_last_per_net_[n]);
    }
  }
}

void MembershipRing::pred_probe_done(const MetaMember& pred, sim::SimTime detected_at,
                                     sim::SimTime last_seen_at,
                                     const ProbeReplyMsg* reply) {
  if (reply == nullptr) {
    conclude_meta_failure(pred, /*node_dead=*/true, detected_at, last_seen_at);
    return;
  }
  if (reply->gsd_running) {
    // The GSD process is alive on its node: the ring heartbeats were
    // lost in transit, not a failure. Reset the grace window.
    pred_diagnosing_ = false;
    if (pred.partition == pred_partition_) {
      std::fill(pred_last_per_net_.begin(), pred_last_per_net_.end(), now());
    }
    return;
  }
  // The node answered but its GSD is dead: one confirmation round
  // before declaring the GSD process dead and reforming the ring.
  gsd_.engine().schedule_after(
      kProcessConfirmDelay, [this, pred, detected_at, last_seen_at] {
        conclude_meta_failure(pred, /*node_dead=*/false, detected_at, last_seen_at);
      });
}

void MembershipRing::handle_ring_heartbeat(const RingHeartbeatMsg& ring,
                                           const net::Envelope& env) {
  if (ring.from_partition != pred_partition_ ||
      env.network.value >= pred_last_per_net_.size()) {
    return;
  }
  pred_last_per_net_[env.network.value] = now();
  if (pred_diagnosing_) {
    // A live predecessor cancels any suspicion, including a probe in flight.
    pred_diagnosing_ = false;
    ++pred_exonerations_;
  }
  if (regroup_ && regroup_->suspect.partition == ring.from_partition) {
    // Direct proof of life mid-regroup: exonerate without waiting for votes.
    cancel_regroup(/*exonerated=*/true);
  }
  if (pred_net_failed_[env.network.value]) {
    pred_net_failed_[env.network.value] = false;
    Event e;
    e.type = std::string(event_types::kNetworkRecovered);
    e.subject_node = env.from.node;
    e.attrs = {{"network", std::to_string(env.network.value)},
               {"component", "GSD"}};
    publish_scoped(std::move(e));
  }
}

// --- removal and recovery -----------------------------------------------------

void MembershipRing::conclude_meta_failure(const MetaMember& pred, bool node_dead,
                                           sim::SimTime detected_at,
                                           sim::SimTime last_seen_at) {
  if (!gsd_.alive()) return;
  pred_diagnosing_ = false;
  // Only remove the exact member we diagnosed: if the partition's entry was
  // replaced in the meantime (planned handover, concurrent recovery), the
  // stale diagnosis must not expel the new instance.
  const auto diagnosed_idx = view_.index_of(pred.partition);
  if (!diagnosed_idx || !(view_.members[*diagnosed_idx] == pred)) return;
  if (!node_dead && pred.partition == pred_partition_) {
    // Confirmation round: a ring heartbeat since detection exonerates it.
    for (sim::SimTime last : pred_last_per_net_) {
      if (last > detected_at) return;
    }
  }

  if (params_.failover.mode == FtParams::FailoverPolicy::Mode::kQuorum) {
    // Silence alone is not grounds for removal under the quorum policy: a
    // majority of the view must concur first (regroup round). The removal —
    // if it happens — continues in commit_member_removal.
    begin_regroup(pred, node_dead, detected_at, last_seen_at);
    return;
  }
  commit_member_removal(pred, node_dead, detected_at, last_seen_at);
}

void MembershipRing::commit_member_removal(const MetaMember& pred, bool node_dead,
                                           sim::SimTime detected_at,
                                           sim::SimTime last_seen_at) {
  if (!gsd_.alive()) return;
  // Re-checked here because a regroup round may have elapsed since the
  // diagnosis (no-op on the unilateral path, which enters synchronously).
  const auto idx = view_.index_of(pred.partition);
  if (!idx || !(view_.members[*idx] == pred)) return;
  const sim::SimTime diagnosed_at = now();
  if (!is_top()) {
    gsd_.log_member_failure(pred, node_dead, last_seen_at, detected_at,
                            diagnosed_at);
  }
  gsd_.member_removed(*this, pred, node_dead);

  // View change: drop the failed member and tell the survivors.
  tombstones_[pred.partition.value] =
      std::max(tombstones_[pred.partition.value], pred.incarnation);
  const bool fence =
      params_.failover.mode == FtParams::FailoverPolicy::Mode::kQuorum;
  MetaView next = view_;
  next.remove(pred.partition);
  ++next.view_id;
  if (fence) ++next.epoch;  // quorum takeover: new fencing epoch
  apply_view(std::move(next));
  auto msg = broadcast_view();
  if (fence) {
    send_fence();
    // Tell the deposed member directly (it is no longer in the broadcast
    // set): a merely-slow suspect that was legitimately removed steps down
    // the moment this arrives and rejoins at the tail.
    gsd_.send_any(pred.gsd, std::move(msg));
  }

  // Recovery of the failed partition (membership-only rings leave this to
  // the zone layer's census).
  if (!is_top()) gsd_.recover_member(*this, pred, node_dead);
}

// --- quorum regroup (FailoverPolicy::quorum()) --------------------------------
//
// MSCS-style concurrence before removal: the initiator solicits every other
// live view member; each voter probes the suspect over its OWN links and
// votes "concur" only if the suspect is silent from its side too. Majority
// is floor(n/2)+1 of the view including the suspect, counting the
// initiator's own observation — so a 2-member view can never depose (no
// quorum exists), and a member on the minority side of a partition retries
// until the partition heals instead of split-braining.

void MembershipRing::begin_regroup(const MetaMember& suspect, bool node_dead,
                                   sim::SimTime detected_at,
                                   sim::SimTime last_seen_at) {
  if (regroup_) return;  // one suspicion resolved at a time
  Regroup r;
  r.suspect = suspect;
  r.node_dead = node_dead;
  r.detected_at = detected_at;
  r.last_seen_at = last_seen_at;
  regroup_ = std::move(r);
  gsd_.trace(sim::TraceLevel::kWarn,
             "regroup: soliciting concurrence to remove partition " +
                 std::to_string(suspect.partition.value));
  solicit_regroup_round();
}

void MembershipRing::solicit_regroup_round() {
  if (!gsd_.alive() || !regroup_) return;
  Regroup& r = *regroup_;
  // The suspect may have been removed or replaced while we waited (another
  // member's view change, a completed rejoin): drop the stale regroup.
  const auto idx = view_.index_of(r.suspect.partition);
  if (!idx || !(view_.members[*idx] == r.suspect)) {
    regroup_.reset();
    return;
  }

  r.round_id = next_round_id_++;
  r.view_size = view_.members.size();
  r.concur = 1;  // our own observation of silence
  r.dissent = 0;
  r.done = false;
  r.voters.clear();
  ++r.rounds_run;
  ++regroup_rounds_;
  gsd_.regroup_round(*this);

  for (const MetaMember& m : view_.members) {
    if (m.partition == gsd_.partition() || m.partition == r.suspect.partition) {
      continue;
    }
    auto msg = std::make_shared<RegroupProposeMsg>();
    msg->initiator = gsd_.partition();
    msg->suspect = r.suspect.partition;
    msg->suspect_incarnation = r.suspect.incarnation;
    msg->view_id = view_.view_id;
    msg->round_id = r.round_id;
    msg->reply_to = gsd_.address();
    msg->scope = scope_;
    gsd_.send_all_networks(m.gsd, std::move(msg));
  }

  const std::uint64_t round = r.round_id;
  gsd_.engine().schedule_after(kRegroupRoundTimeout, [this, round] {
    if (gsd_.alive() && regroup_ && regroup_->round_id == round &&
        !regroup_->done) {
      evaluate_regroup(/*round_over=*/true);
    }
  });
  // A 2-member view settles immediately: quorum needs 2, we alone have 1.
  evaluate_regroup(/*round_over=*/false);
}

void MembershipRing::evaluate_regroup(bool round_over) {
  if (!regroup_ || regroup_->done) return;
  Regroup& r = *regroup_;
  if (r.dissent > 0) {
    // Someone can still reach the suspect: our silence is a partition on
    // OUR side, exactly the split-brain the paper's protocol would act on.
    // One dissent vetoes the removal outright — even a majority of
    // concurrences only proves the suspect is cut off from SOME members,
    // not dead (docs/PROTOCOLS.md: "one dissent cancels the regroup").
    cancel_regroup(/*exonerated=*/true);
    return;
  }
  const int needed = static_cast<int>(r.view_size / 2 + 1);
  const int solicited = static_cast<int>(r.view_size) - 2;  // minus us + suspect
  const int received = (r.concur - 1) + r.dissent;
  const int outstanding = round_over ? 0 : solicited - received;

  if (r.concur >= needed) {
    // Unanimous-so-far majority concurrence: the removal is safe against
    // any single asymmetric partition. Commit and fence.
    r.done = true;
    const Regroup done = r;
    regroup_.reset();
    gsd_.trace(sim::TraceLevel::kWarn,
               "regroup: quorum reached (" + std::to_string(done.concur) + "/" +
                   std::to_string(needed) + "), removing partition " +
                   std::to_string(done.suspect.partition.value));
    commit_member_removal(done.suspect, done.node_dead, done.detected_at,
                          done.last_seen_at);
    return;
  }
  if (r.concur + outstanding < needed) {
    // Not enough reachable voters (minority side / 2-member view).
    regroup_quorum_lost();
  }
}

void MembershipRing::regroup_quorum_lost() {
  if (!regroup_) return;
  Regroup& r = *regroup_;
  r.done = true;
  ++quorum_losses_;
  gsd_.trace(
      sim::TraceLevel::kError,
      "regroup: quorum lost (round " + std::to_string(r.rounds_run) +
          "); suspect partition " + std::to_string(r.suspect.partition.value) +
          " not removed");
  Event e;
  e.type = "meta.quorum_lost";
  e.subject_node = r.suspect.gsd.node;
  e.attrs = {{"suspect_partition", std::to_string(r.suspect.partition.value)},
             {"round", std::to_string(r.rounds_run)}};
  publish_scoped(std::move(e));

  gsd_.engine().schedule_after(kRegroupRetryDelay, [this, round = r.round_id] {
    if (gsd_.alive() && regroup_ && regroup_->round_id == round) {
      solicit_regroup_round();
    }
  });
}

void MembershipRing::cancel_regroup(bool exonerated) {
  if (!regroup_) return;
  const MetaMember suspect = regroup_->suspect;
  regroup_.reset();
  if (exonerated) {
    gsd_.trace(sim::TraceLevel::kInfo,
               "regroup: suspect partition " +
                   std::to_string(suspect.partition.value) + " exonerated");
    if (suspect.partition == pred_partition_) {
      // Fresh grace window: the suspect must go silent for a full period
      // again before another regroup starts.
      std::fill(pred_last_per_net_.begin(), pred_last_per_net_.end(), now());
      std::fill(pred_net_failed_.begin(), pred_net_failed_.end(), false);
    }
  }
}

void MembershipRing::handle_regroup_propose(const RegroupProposeMsg& proposal) {
  // The solicitation travels over every network; answer each round once.
  auto& last_round = answered_rounds_[proposal.initiator.value];
  if (proposal.round_id == last_round) return;
  last_round = proposal.round_id;

  if (proposal.suspect == gsd_.partition()) {
    // We are the suspect and evidently alive: dissent.
    cast_vote(proposal.reply_to, proposal.round_id, false);
    return;
  }
  const auto idx = view_.index_of(proposal.suspect);
  if (!idx || view_.members[*idx].incarnation != proposal.suspect_incarnation) {
    // Our view already dropped (or replaced) that member: concur.
    cast_vote(proposal.reply_to, proposal.round_id, true);
    return;
  }
  const MetaMember suspect = view_.members[*idx];

  // Fresh first-hand evidence: if the suspect is our own ring predecessor
  // and its heartbeats are current, it is alive — no probe needed.
  if (suspect.partition == pred_partition_) {
    const sim::SimTime threshold = params_.heartbeat_interval + kHeartbeatGrace;
    for (sim::SimTime seen : pred_last_per_net_) {
      if (now() - seen <= threshold) {
        cast_vote(proposal.reply_to, proposal.round_id, false);
        return;
      }
    }
  }

  // Independent probe over OUR links — the initiator may sit behind a
  // one-way blackhole that we do not. Alive GSD => dissent; node up but GSD
  // dead, or silent from our side too => concur.
  gsd_.probe(suspect.gsd.node, 1, kRegroupProbeTimeout,
             [this, reply_to = proposal.reply_to,
              round = proposal.round_id](const ProbeReplyMsg* reply) {
               cast_vote(reply_to, round, reply == nullptr || !reply->gsd_running);
             });
}

void MembershipRing::cast_vote(net::Address reply_to, std::uint64_t round_id,
                               bool concur) {
  if (!gsd_.alive()) return;
  ++regroup_votes_cast_;
  auto vote = std::make_shared<RegroupVoteMsg>();
  vote->voter = gsd_.partition();
  vote->round_id = round_id;
  vote->concur = concur;
  vote->scope = scope_;
  gsd_.send_any(reply_to, std::move(vote));
}

void MembershipRing::handle_regroup_vote(const RegroupVoteMsg& vote) {
  if (!regroup_ || regroup_->done || regroup_->round_id != vote.round_id) return;
  Regroup& r = *regroup_;
  // One counted vote per current view member per round: neither we nor the
  // suspect were solicited, a non-member has no say, and a retried or
  // multi-path duplicate must not be double-counted toward quorum.
  if (vote.voter == gsd_.partition() || vote.voter == r.suspect.partition) {
    return;
  }
  if (!view_.index_of(vote.voter)) return;
  if (std::find(r.voters.begin(), r.voters.end(), vote.voter.value) !=
      r.voters.end()) {
    return;
  }
  r.voters.push_back(vote.voter.value);
  if (vote.concur) {
    ++r.concur;
  } else {
    ++r.dissent;
  }
  evaluate_regroup(/*round_over=*/false);
}

void MembershipRing::send_fence() {
  if (view_.epoch == 0) return;
  // Raise the fencing watermark everywhere a deposed member could mutate
  // state: every node's PPM (service starts) and every partition's
  // checkpoint instance (view/state saves). The scope tag keeps each
  // ring's watermark independent under a zoned topology.
  auto fence = std::make_shared<EpochFenceMsg>();
  fence->epoch = view_.epoch;
  fence->scope = scope_;
  for (const auto& node : gsd_.cluster().nodes()) {
    gsd_.send_any(gsd_.ppm_at(node.id()), fence);
  }
  if (gsd_.directory() != nullptr) {
    for (std::size_t p = 0; p < gsd_.directory()->partition_count(); ++p) {
      gsd_.send_any(
          gsd_.directory()->service_address(
              ServiceKind::kCheckpointService,
              net::PartitionId{static_cast<std::uint32_t>(p)}),
          fence);
    }
  }
}

// --- views and joins ----------------------------------------------------------

void MembershipRing::apply_view(MetaView incoming, CheckpointData bytes) {
  // Epoch ordering comes first: a quorum takeover's view beats any view_id
  // a deposed member can offer, and a stale-epoch view is discarded unseen
  // (fencing on the membership plane). Both epochs are 0 under the paper's
  // unilateral policy, so this reduces to the original view_id ordering.
  if (incoming.epoch < view_.epoch) return;
  if (incoming.epoch == view_.epoch) {
    if (incoming.view_id < view_.view_id) return;
    if (incoming.view_id == view_.view_id) {
      if (incoming.members == view_.members) return;
      // Equal-id conflict (e.g. two concurrent ring founders): pick a
      // deterministic winner — more members first, then serialization order —
      // so every member converges on the same view.
      if (incoming.members.size() < view_.members.size()) return;
      if (incoming.members.size() == view_.members.size()) {
        if (bytes.size() == 0) bytes = incoming.serialize();
        if (bytes.str() > view_bytes().str()) return;
      }
    }
  }

  // Drop members our tombstones say are dead (stale entries from slow
  // views); the sender's bytes then no longer match the view we keep.
  const auto dropped = std::erase_if(incoming.members, [this](const MetaMember& m) {
    auto it = tombstones_.find(m.partition.value);
    return it != tombstones_.end() && m.incarnation <= it->second;
  });
  if (dropped != 0) bytes = {};

  gsd_.trace(sim::TraceLevel::kInfo,
             (scope_ != 0 ? std::string(label()) + ": " : "") + "applying view " +
                 std::to_string(incoming.view_id) + " with " +
                 std::to_string(incoming.members.size()) + " members");
  const MetaView old = replace_view(std::move(incoming), std::move(bytes));

  joined_ = false;
  for (const MetaMember& m : view_.members) {
    if (m.partition == gsd_.partition() && m.incarnation == gsd_.incarnation()) {
      joined_ = true;
    }
  }
  if (joined_) {
    join_retrier_.stop();
  } else if (gsd_.running()) {
    // Expelled by someone's view change (e.g. a stale diagnosis): get back
    // in rather than silently running outside the ring.
    join_retrier_.start_after(kJoinRetryPeriod);
  }

  // Predecessor may have changed; reset its grace window if so.
  auto pred = predecessor();
  const net::PartitionId new_pred = pred ? pred->partition : net::PartitionId{};
  if (new_pred != pred_partition_) {
    pred_partition_ = new_pred;
    std::fill(pred_last_per_net_.begin(), pred_last_per_net_.end(), now());
    std::fill(pred_net_failed_.begin(), pred_net_failed_.end(), false);
    pred_diagnosing_ = false;
  }

  // A member that is new or re-incarnated relative to the old view means a
  // recovery completed; let the GSD close its fault record.
  const MetaViewDiff diff = view_.diff_from(old);
  for (const MetaMember& m : diff.changed) gsd_.member_recovered(*this, m);

  if (!is_top()) gsd_.mark_dirty();
  gsd_.view_changed(*this, old);
}

std::shared_ptr<const ViewChangeMsg> MembershipRing::broadcast_view() {
  // One immutable message for the whole fan-out: receivers only read it,
  // and every one that keeps the view unchanged checkpoints its bytes.
  std::shared_ptr<const ViewChangeMsg> msg = view_message();
  for (const MetaMember& m : view_.members) {
    if (m.partition != gsd_.partition()) gsd_.send_any(m.gsd, msg);
  }
  return msg;
}

void MembershipRing::handle_join(const MetaJoinMsg& join) {
  const MetaMember& member = join.member;
  if (member.partition == gsd_.partition()) return;

  if (!is_ring_leader()) {
    // Forward to the current leader.
    auto leader = view_.leader();
    if (leader && leader->partition != gsd_.partition()) {
      auto fwd = std::make_shared<MetaJoinMsg>();
      fwd->member = member;
      fwd->scope = scope_;
      gsd_.send_any(leader->gsd, std::move(fwd));
    }
    return;
  }

  auto tomb = tombstones_.find(member.partition.value);
  if (tomb != tombstones_.end() && member.incarnation <= tomb->second) return;

  auto existing = view_.index_of(member.partition);
  if (existing) {
    const MetaMember& cur = view_.members[*existing];
    if (cur.incarnation >= member.incarnation) {
      // Duplicate join: re-send the current view so the joiner learns it.
      gsd_.send_any(member.gsd, view_message());
      return;
    }
  }

  MetaView next = view_;
  next.remove(member.partition);
  // Top ring: one representative per zone. A newly promoted zone leader
  // displaces its zone's stale entry; the displaced member is told
  // directly so it stops acting as the zone's representative.
  std::vector<MetaMember> displaced;
  if (is_top()) {
    const std::uint32_t zone = gsd_.zones().zone_of(member.partition);
    for (const MetaMember& m : next.members) {
      if (gsd_.zones().zone_of(m.partition) == zone) displaced.push_back(m);
    }
    for (const MetaMember& m : displaced) next.remove(m.partition);
  }
  next.members.push_back(member);  // rejoiners go to the tail (paper's order)
  ++next.view_id;
  apply_view(std::move(next));
  const auto msg = broadcast_view();
  // The joiner may not be in our broadcast path if apply_view dropped it;
  // send the view directly too.
  gsd_.send_any(member.gsd, msg);
  for (const MetaMember& m : displaced) {
    gsd_.send_any(m.gsd, msg);
  }
}

void MembershipRing::try_rejoin() {
  if (!gsd_.alive() || joined_ || gsd_.directory() == nullptr) return;
  if (++futile_join_attempts_ > 10) {
    // Nobody answered ten rounds of joins: the ring is gone (or we are the
    // first member up). Found a fresh singleton group; others will join it.
    found(view_.view_id + 1, /*persist=*/true);
    return;
  }
  auto join = std::make_shared<MetaJoinMsg>();
  join->member = MetaMember{gsd_.partition(), gsd_.address(), gsd_.incarnation()};
  join->scope = scope_;
  for (const net::Address& target : gsd_.join_targets(*this)) {
    gsd_.send_any(target, join);
  }
}

}  // namespace phoenix::kernel
