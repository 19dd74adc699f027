#include "kernel/group/group_service.h"

#include <algorithm>
#include <utility>

#include "kernel/checkpoint/checkpoint_service.h"
#include "kernel/event/event_service.h"
#include "kernel/ppm/process_manager.h"

namespace phoenix::kernel {

GroupServiceDaemon::GroupServiceDaemon(cluster::Cluster& cluster, net::NodeId node,
                                       net::PartitionId partition,
                                       const FtParams& params,
                                       ServiceDirectory* directory, FaultLog* log,
                                       std::vector<SupervisedSpec> default_supervised,
                                       double cpu_share)
    : ServiceRuntime(cluster, "gsd/" + std::to_string(partition.value), node,
                     port_of(ServiceKind::kGroupService), directory, &params,
                     Options{.kind = ServiceKind::kGroupService,
                             .partition = partition,
                             .checkpoint_namespace =
                                 "gsd/" + std::to_string(partition.value),
                             .checkpoint_key = "view"},
                     cpu_share),
      partition_(partition),
      params_(params),
      log_(log),
      supervised_(std::move(default_supervised)),
      partition_checker_(cluster.engine(), kHeartbeatGrace,
                         [this] { check_partition(); }),
      service_checker_(cluster.engine(), params.heartbeat_interval,
                       [this] { check_services(); }),
      census_checker_(cluster.engine(), params.heartbeat_interval,
                      [this] { run_census(); }) {
  zoned_ = params.topology.mode == FtParams::GroupTopology::Mode::kZoned;
  zones_ = ZoneTopology::from(
      params.topology, directory != nullptr ? directory->partition_count() : 1);
  zone_ = zones_.zone_of(partition_);

  primary_ring_ =
      std::make_unique<MembershipRing>(*this, zoned_ ? zones_.zone_scope(zone_) : 0);
  if (zoned_) {
    top_ring_ = std::make_unique<MembershipRing>(*this, kTopRingScope);
    churn_ = std::make_unique<ZoneChurnAggregator>(
        cluster.engine(), params.heartbeat_interval, [this](Event e) {
          if (!alive()) return;
          e.attrs.emplace_back("zone", std::to_string(zone_));
          publish(std::move(e));
        });
  }

  on<HeartbeatMsg>([this](const HeartbeatMsg& hb, const net::Envelope& env) {
    handle_heartbeat(hb, env.network);
  });
  on<RingHeartbeatMsg>([this](const RingHeartbeatMsg& ring, const net::Envelope& env) {
    if (MembershipRing* r = ring_for(ring.scope)) r->handle_ring_heartbeat(ring, env);
  });
  on<ViewChangeMsg>([this](const ViewChangeMsg& msg) {
    if (MembershipRing* r = ring_for(msg.scope)) r->apply_view(msg.view, msg.bytes);
  });
  on<MetaJoinMsg>([this](const MetaJoinMsg& join) {
    if (MembershipRing* r = ring_for(join.scope)) r->handle_join(join);
  });
  on<RegroupProposeMsg>([this](const RegroupProposeMsg& proposal) {
    if (MembershipRing* r = ring_for(proposal.scope)) {
      r->handle_regroup_propose(proposal);
    }
  });
  on<RegroupVoteMsg>([this](const RegroupVoteMsg& vote) {
    if (MembershipRing* r = ring_for(vote.scope)) r->handle_regroup_vote(vote);
  });
  on<ServiceUpMsg>([this](const ServiceUpMsg& up) { handle_service_up(up); });
  // Recovery here is fetch_state_and_join (view merge + ring rejoin), not the
  // runtime's generic restore loop, so this daemon owns the reply type.
  on<CheckpointLoadReplyMsg>([this](const CheckpointLoadReplyMsg& reply) {
    handle_state_load_reply(reply);
  });
}

MembershipRing* GroupServiceDaemon::ring_for(std::uint32_t scope) {
  if (scope == primary_ring_->scope()) return primary_ring_.get();
  if (top_ring_ != nullptr && scope == top_ring_->scope()) return top_ring_.get();
  return nullptr;
}

void GroupServiceDaemon::set_initial_view(MetaView view) {
  primary_ring_->seed_view(std::move(view));
  booted_with_view_ = true;
}

void GroupServiceDaemon::seed_top_view(MetaView view) {
  if (top_ring_ == nullptr) return;
  has_seeded_top_view_ = true;
  seeded_top_view_ = std::move(view);
}

void GroupServiceDaemon::supervise(SupervisedSpec spec) {
  for (auto& existing : supervised_) {
    if (existing.component == spec.component) {
      existing = std::move(spec);
      return;
    }
  }
  supervised_.push_back(std::move(spec));
}

GroupServiceDaemon::NodeStatus GroupServiceDaemon::node_status(net::NodeId node) const {
  auto it = watches_.find(node.value);
  return it == watches_.end() ? NodeStatus::kHealthy : it->second.status;
}

void GroupServiceDaemon::on_service_start() {
  // Members seeded at cluster boot carry incarnation 0; every restart or
  // migration gets a strictly larger one so tombstones can tell them apart.
  incarnation_ = booted_with_view_ ? 0 : std::max<std::uint64_t>(now(), 1);

  // Fresh watch table: give every partition node a full grace period.
  watches_.clear();
  const std::size_t nets = cluster().fabric().network_count();
  for (net::NodeId n : cluster().partition_nodes(partition_)) {
    NodeWatch watch;
    watch.last_per_net.assign(nets, now());
    watch.net_failed.assign(nets, false);
    watches_.emplace(n.value, std::move(watch));
  }
  primary_ring_->reset_runtime_state(nets);
  service_recovering_.clear();
  if (top_ring_ != nullptr) {
    top_ring_->reset_runtime_state(nets);
    top_ring_->stop();
    top_active_ = false;
    was_zone_leader_ = false;
  }

  const sim::SimTime interval = params_.heartbeat_interval;
  // Heartbeat staleness is judged against interval + grace, but the SCAN
  // runs at grace granularity so a missed heartbeat is noticed promptly
  // (paper §5.1: detection time ~= the heartbeat interval, not a multiple
  // of it). Supervision of local services stays at the full interval — the
  // paper's Table 3 measures a 30 s detection for a dead event service.
  partition_checker_.start_after(interval + kHeartbeatGrace + 1 * sim::kMillisecond);
  primary_ring_->arm(interval + kHeartbeatGrace + 2 * sim::kMillisecond);
  service_checker_.set_period(interval);
  service_checker_.start_after(interval + 3 * sim::kMillisecond);

  announce_to_partition();

  if (booted_with_view_ && !started_before_) {
    // Cluster boot: the kernel seeded the full view; nothing to recover.
    // Persist it so a later in-place restart recovers from the warm local
    // checkpoint segment instead of scanning the federation.
    booted_with_view_ = false;
    mark_dirty();
  } else if (bootstrap_requested_ && !started_before_) {
    // Ring founder (staged construction): start a singleton group.
    bootstrap_requested_ = false;
    primary_ring_->found(1, /*persist=*/true);
  } else {
    // Restart or migration: recover the last view, then rejoin the ring.
    booted_with_view_ = false;
    primary_ring_->mark_unjoined();
    fetch_state_and_join();
  }
  started_before_ = true;

  if (zoned_ && directory() != nullptr) {
    // Hierarchy repair loop: first pass only after everything had a chance
    // to boot and beat (2 intervals + a distinct offset).
    census_checker_.set_period(interval);
    census_checker_.start_after(2 * interval + 5 * sim::kMillisecond);
    // Seed/boot paths set the zone view without going through apply_view;
    // reconcile the role explicitly.
    update_zone_role(primary_ring_->view());
  }
}

void GroupServiceDaemon::on_service_stop() {
  partition_checker_.stop();
  service_checker_.stop();
  census_checker_.stop();
  primary_ring_->stop();
  if (top_ring_ != nullptr) top_ring_->stop();
}

void GroupServiceDaemon::publish(Event e) {
  if (directory() == nullptr) return;
  e.partition = partition_;
  auto msg = std::make_shared<EsPublishMsg>();
  msg->event = std::move(e);
  send_any(directory()->service_address(ServiceKind::kEventService, partition_),
           std::move(msg));
}

void GroupServiceDaemon::announce_to_partition() {
  // Every WD re-points its heartbeats — including the one on our own node,
  // which matters after a migration (it was beating the dead server).
  for (net::NodeId n : cluster().partition_nodes(partition_)) {
    auto announce = std::make_shared<GsdAnnounceMsg>();
    announce->gsd = address();
    announce->partition = partition_;
    send_any({n, port_of(ServiceKind::kWatchDaemon)}, std::move(announce));
  }
}

// --- ring hooks ---------------------------------------------------------------

std::vector<net::Address> GroupServiceDaemon::join_targets(
    const MembershipRing& ring) const {
  // A zone ring solicits its zone. The flat ring and the top ring solicit
  // every GSD (any partition may lead its zone, so the top ring's membership
  // is not statically known): members forward the join to their Leader,
  // everyone else drops it. Flat mode has one zone.
  std::vector<net::Address> targets;
  for (std::size_t p = 0; p < directory()->partition_count(); ++p) {
    const net::PartitionId pid{static_cast<std::uint32_t>(p)};
    if (pid == partition_) continue;
    if (!ring.is_top() && zones_.zone_of(pid) != zone_) continue;
    targets.push_back(
        directory()->service_address(ServiceKind::kGroupService, pid));
  }
  return targets;
}

void GroupServiceDaemon::log_member_failure(const MetaMember& member,
                                            bool node_dead,
                                            sim::SimTime last_seen_at,
                                            sim::SimTime detected_at,
                                            sim::SimTime diagnosed_at) {
  if (log_ == nullptr) return;
  const FaultKind kind =
      node_dead ? FaultKind::kNodeFailure : FaultKind::kProcessFailure;
  log_->append(FaultRecord{
      .component = "GSD",
      .kind = kind,
      .node = member.gsd.node,
      .partition = member.partition,
      .network = net::NetworkId{},
      .last_seen_at = last_seen_at,
      .detected_at = detected_at,
      .diagnosed_at = diagnosed_at,
  });
  if (node_dead) {
    // The server node carried the partition's kernel services too.
    for (const char* component : {"ES", "DB", "CS"}) {
      log_->append(FaultRecord{
          .component = component,
          .kind = FaultKind::kNodeFailure,
          .node = member.gsd.node,
          .partition = member.partition,
          .network = net::NetworkId{},
          .last_seen_at = last_seen_at,
          .detected_at = detected_at,
          .diagnosed_at = diagnosed_at,
      });
    }
  }
}

void GroupServiceDaemon::member_removed(const MembershipRing& ring,
                                        const MetaMember& member, bool node_dead) {
  if (ring.is_top()) {
    // A zone lost its representative (leader death or displacement race).
    // The zone's own Princess promotion brings the replacement; the census
    // catches the whole-zone-death case.
    trace(sim::TraceLevel::kInfo,
          "top ring: zone " + std::to_string(zones_.zone_of(member.partition)) +
              " leader (partition " + std::to_string(member.partition.value) +
              ") lost");
    Event e;
    e.type = "meta.zone.leader_lost";
    e.subject_node = member.gsd.node;
    e.attrs = {{"zone", std::to_string(zones_.zone_of(member.partition))},
               {"partition", std::to_string(member.partition.value)}};
    publish(std::move(e));
    return;
  }
  Event e;
  e.type = std::string(node_dead ? event_types::kNodeFailed
                                 : event_types::kServiceFailed);
  e.subject_node = member.gsd.node;
  e.attrs = {{"service", "GSD"},
             {"failed_partition", std::to_string(member.partition.value)}};
  publish(std::move(e));
}

void GroupServiceDaemon::recover_member(const MembershipRing& ring,
                                        const MetaMember& member, bool node_dead) {
  if (!node_dead) {
    auto restart = std::make_shared<StartServiceMsg>();
    restart->kind = ServiceKind::kGroupService;
    restart->partition = member.partition;
    restart->create = false;
    restart->request_id = rpc().mint_id();
    restart->epoch = ring.view().epoch;
    restart->scope = ring.scope();
    send_any(ppm_at(member.gsd.node), std::move(restart));
  } else {
    migrate_partition(member, ring);
  }
}

void GroupServiceDaemon::member_recovered(const MembershipRing& ring,
                                          const MetaMember& member) {
  if (ring.is_top()) {
    trace(sim::TraceLevel::kInfo,
          "top ring: zone " + std::to_string(zones_.zone_of(member.partition)) +
              " represented by partition " +
              std::to_string(member.partition.value));
    return;
  }
  if (log_ != nullptr &&
      log_->mark_recovered_partition("GSD", member.partition, now())) {
    Event e;
    e.type = std::string(event_types::kServiceRecovered);
    e.subject_node = member.gsd.node;
    e.attrs = {{"service", "GSD"},
               {"partition", std::to_string(member.partition.value)}};
    publish(std::move(e));
  }
}

void GroupServiceDaemon::regroup_round(const MembershipRing& ring) {
  if (!zoned_ || !cluster().metrics().enabled()) return;
  cluster().metrics().counter(ring.is_top() ? "meta.top.regroups"
                                            : "meta.zone.regroups")
      ->inc();
}

void GroupServiceDaemon::view_changed(const MembershipRing& ring,
                                      const MetaView& old_view) {
  if (!zoned_) return;  // flat mode: nothing layered on top of the ring

  if (ring.is_top()) {
    auto old_leader = old_view.leader();
    auto new_leader = ring.view().leader();
    if (new_leader &&
        (!old_leader || !(old_leader->partition == new_leader->partition))) {
      trace(sim::TraceLevel::kInfo,
            "top ring: leader is now partition " +
                std::to_string(new_leader->partition.value) + " (view " +
                std::to_string(ring.view().view_id) + ")");
    }
    // A deposed zone leader must not linger in (or rejoin) the top ring.
    if (!primary_ring_->is_ring_leader()) suspend_top_ring();
    return;
  }

  // Primary (zone) ring. Zone leaders summarize member churn into one
  // aggregated event per window instead of flooding per-member events up.
  if (primary_ring_->is_ring_leader() && churn_ != nullptr) {
    const MetaViewDiff diff = ring.view().diff_from(old_view);
    churn_->record(diff.removed, diff.added);
  }
  update_zone_role(old_view);
}

// --- zone hierarchy -----------------------------------------------------------

void GroupServiceDaemon::update_zone_role(const MetaView& old_view) {
  if (!zoned_ || top_ring_ == nullptr) return;
  const bool leader_now = primary_ring_->is_ring_leader();
  if (leader_now && !was_zone_leader_) {
    was_zone_leader_ = true;
    auto old_leader = old_view.leader();
    const bool promotion =
        old_leader && !(old_leader->partition == partition_);
    trace(sim::TraceLevel::kInfo,
          std::string("zone ") + std::to_string(zone_) + ": partition " +
              std::to_string(partition_.value) +
              (promotion ? " promoted to zone leader" : " elected zone leader"));
    if (promotion && cluster().metrics().enabled()) {
      cluster().metrics().counter("meta.zone.promotions")->inc();
    }
    ensure_top_ring_active();
  } else if (!leader_now && was_zone_leader_) {
    was_zone_leader_ = false;
    trace(sim::TraceLevel::kInfo,
          "zone " + std::to_string(zone_) + ": partition " +
              std::to_string(partition_.value) + " ceded zone leadership");
    suspend_top_ring();
  }
}

void GroupServiceDaemon::ensure_top_ring_active() {
  if (top_ring_ == nullptr || top_active_) return;
  top_active_ = true;
  top_ring_->arm(params_.heartbeat_interval + kHeartbeatGrace + 4 * sim::kMillisecond);
  if (has_seeded_top_view_) {
    // Cluster boot: the kernel seeded the zone leaders directly.
    has_seeded_top_view_ = false;
    top_ring_->seed_view(std::move(seeded_top_view_));
    seeded_top_view_ = MetaView{};
    if (top_ring_->joined()) return;
  }
  // Promotion (or re-activation): join the live top ring. If nobody
  // answers — every other zone leader is gone too — the futile-join path
  // self-founds a fresh top ring and the census rebuilds the rest.
  top_ring_->rejoin_now();
  top_ring_->begin_join_search(MembershipRing::kJoinRetryPeriod);
}

void GroupServiceDaemon::suspend_top_ring() {
  if (top_ring_ == nullptr || !top_active_) return;
  top_active_ = false;
  top_ring_->stop();
  // Drop the stale view: if this member is promoted again later, its old
  // view ids must not outrank the ring it is rejoining.
  top_ring_->forget_membership();
}

void GroupServiceDaemon::run_census() {
  if (!alive() || !zoned_ || directory() == nullptr) return;
  // Zone-member census (zone leader): every statically-assigned member of
  // our zone must be in the zone view; absentees are probed and recovered.
  if (primary_ring_->is_ring_leader()) {
    for (net::PartitionId q : zones_.zone_members(zone_)) {
      if (q == partition_) continue;
      if (primary_ring_->view().contains(q)) continue;
      census_probe(q, /*top=*/false);
    }
  }
  // Orphan-zone census (top leader only — a single actor, so two survivors
  // never race duplicate migrations): every zone must have a top-ring
  // representative; for an orphaned zone, probe its first partition.
  if (top_ring_ != nullptr && top_ring_->is_ring_leader()) {
    for (std::uint32_t z = 0; z < zones_.num_zones; ++z) {
      if (z == zone_) continue;  // we represent our own zone
      bool represented = false;
      for (const MetaMember& m : top_ring_->view().members) {
        if (zones_.zone_of(m.partition) == z) {
          represented = true;
          break;
        }
      }
      if (!represented) census_probe(zones_.first_of(z), /*top=*/true);
    }
  }
}

void GroupServiceDaemon::census_probe(net::PartitionId target, bool top) {
  // Backoff: a recovery takes exec + state fetch + several join rounds;
  // re-probing sooner would double-start the same partition.
  auto& next_ok = census_backoff_[target.value];
  if (now() < next_ok) return;
  next_ok = now() + kGsdExecTime + params_.checkpoint_federation_fetch +
            12 * MembershipRing::kJoinRetryPeriod;
  const net::NodeId node =
      directory()->service_node(ServiceKind::kGroupService, target);
  trace(sim::TraceLevel::kInfo,
        std::string(top ? "orphan-zone census" : "zone census") +
            ": probing partition " + std::to_string(target.value) + " on node " +
            std::to_string(node.value));
  probe(node, 2, params_.node_probe_timeout,
        [this, node, target, top](const ProbeReplyMsg* reply) {
          // Repair on behalf of the ring that missed the partition (its
          // epoch/scope stamp the orders).
          MembershipRing& ring =
              top && top_ring_ != nullptr ? *top_ring_ : *primary_ring_;
          if (reply == nullptr) {
            // Census target unreachable: migrate the partition.
            migrate_partition(
                MetaMember{target, {node, port_of(ServiceKind::kGroupService)}, 0},
                ring);
          } else if (reply->gsd_running) {
            // Alive but absent from the ring: a stale believer (e.g. an
            // isolated ex-leader still holding its old view). Re-invite it by
            // sending the ring's current view — a higher view id dislodges
            // its stale one and its rejoin logic does the rest.
            send_any(directory()->service_address(ServiceKind::kGroupService, target),
                     ring.view_message());
          } else {
            // Node alive, GSD process dead: restart it in place under the
            // ring's current epoch.
            trace(sim::TraceLevel::kInfo,
                  "census: restarting dead GSD of partition " +
                      std::to_string(target.value));
            auto restart = std::make_shared<StartServiceMsg>();
            restart->kind = ServiceKind::kGroupService;
            restart->partition = target;
            restart->create = false;
            restart->request_id = rpc().mint_id();
            restart->epoch = ring.view().epoch;
            restart->scope = ring.scope();
            send_any(ppm_at(node), std::move(restart));
          }
        });
}

// --- partition (WD) monitoring ----------------------------------------------

void GroupServiceDaemon::handle_heartbeat(const HeartbeatMsg& hb,
                                          net::NetworkId network) {
  ++heartbeats_received_;
  auto it = watches_.find(hb.node.value);
  if (it == watches_.end()) return;  // not one of ours
  NodeWatch& watch = it->second;
  if (network.value >= watch.last_per_net.size()) return;
  watch.last_per_net[network.value] = now();

  if (watch.net_failed[network.value]) {
    watch.net_failed[network.value] = false;
    Event e;
    e.type = std::string(event_types::kNetworkRecovered);
    e.subject_node = hb.node;
    e.attrs = {{"network", std::to_string(network.value)}};
    publish(std::move(e));
  }
  if (watch.status == NodeStatus::kNodeFailed) {
    watch.status = NodeStatus::kHealthy;
    Event e;
    e.type = std::string(event_types::kNodeRecovered);
    e.subject_node = hb.node;
    publish(std::move(e));
  } else if (watch.status == NodeStatus::kProcessFailed) {
    // The restarted WD is beating again.
    watch.status = NodeStatus::kHealthy;
    if (log_ != nullptr && log_->mark_recovered("WD", hb.node, now())) {
      Event e;
      e.type = std::string(event_types::kServiceRecovered);
      e.subject_node = hb.node;
      e.attrs = {{"service", "WD"}};
      publish(std::move(e));
    }
  }
}

void GroupServiceDaemon::check_partition() {
  if (!alive()) return;
  const sim::SimTime threshold = params_.heartbeat_interval + kHeartbeatGrace;
  // Single-network classification may require several consecutive misses
  // (lossy-fabric tolerance); node-level silence always uses one interval.
  const sim::SimTime net_threshold =
      params_.network_miss_rounds * params_.heartbeat_interval + kHeartbeatGrace;
  for (auto& [node_value, watch] : watches_) {
    const net::NodeId node{node_value};
    if (watch.diagnosing || watch.status == NodeStatus::kNodeFailed ||
        watch.status == NodeStatus::kProcessFailed) {
      continue;
    }
    std::size_t fresh = 0;
    for (sim::SimTime last : watch.last_per_net) {
      if (now() - last <= threshold) ++fresh;
    }
    if (fresh == watch.last_per_net.size()) continue;

    if (fresh == 0) {
      begin_node_diagnosis(node);
      continue;
    }
    // Some interfaces deliver and some do not: single-network failures.
    for (std::size_t n = 0; n < watch.last_per_net.size(); ++n) {
      if (now() - watch.last_per_net[n] > net_threshold && !watch.net_failed[n]) {
        watch.net_failed[n] = true;
        diagnose_network_failure(node, net::NetworkId{static_cast<std::uint8_t>(n)},
                                 now(), "WD", watch.last_per_net[n]);
      }
    }
  }
}

void GroupServiceDaemon::diagnose_network_failure(net::NodeId node,
                                                  net::NetworkId network,
                                                  sim::SimTime detected_at,
                                                  const char* component,
                                                  sim::SimTime last_seen_at) {
  // Diagnosis is pure analysis of the per-network arrival table.
  engine().schedule_after(
      kNetworkAnalysisTime,
      [this, node, network, detected_at, component, last_seen_at] {
        if (!alive()) return;
        if (log_ != nullptr) {
          log_->append(FaultRecord{
              .component = component,
              .kind = FaultKind::kNetworkFailure,
              .node = node,
              .partition = cluster().partition_of(node),
              .network = network,
              .last_seen_at = last_seen_at,
              .detected_at = detected_at,
              .diagnosed_at = now(),
              .recovered_at = now(),  // one of three networks: nothing to repair
              .recovered = true,
          });
        }
        Event e;
        e.type = std::string(event_types::kNetworkFailed);
        e.subject_node = node;
        e.attrs = {{"network", std::to_string(network.value)},
                   {"component", component}};
        publish(std::move(e));
      });
}

void GroupServiceDaemon::begin_node_diagnosis(net::NodeId node) {
  trace(sim::TraceLevel::kWarn,
        "node " + std::to_string(node.value) + " silent on every network; probing");
  NodeWatch& watch = watches_.at(node.value);
  watch.status = NodeStatus::kSuspect;
  watch.diagnosing = true;
  const sim::SimTime detected_at = now();
  const sim::SimTime last_seen_at =
      *std::max_element(watch.last_per_net.begin(), watch.last_per_net.end());
  probe(node, params_.node_probe_attempts, params_.node_probe_timeout,
        [this, node, detected_at, last_seen_at](const ProbeReplyMsg* reply) {
          if (reply == nullptr) {
            // Every attempt timed out: the node is dead.
            conclude_node_failure(node, detected_at, last_seen_at);
          } else if (reply->wd_running) {
            // False alarm (lost heartbeats): the WD process is alive.
            NodeWatch& w = watches_.at(node.value);
            w.diagnosing = false;
            w.status = NodeStatus::kHealthy;
            std::fill(w.last_per_net.begin(), w.last_per_net.end(), now());
          } else {
            // The node answered and its WD is dead. One more confirmation
            // round before declaring it.
            engine().schedule_after(
                kProcessConfirmDelay, [this, node, detected_at, last_seen_at] {
                  conclude_wd_process_failure(node, detected_at, last_seen_at);
                });
          }
        });
}

void GroupServiceDaemon::probe(net::NodeId node, int attempts, sim::SimTime timeout,
                               std::function<void(const ProbeReplyMsg*)> done) {
  auto msg = std::make_shared<ProbeMsg>();
  msg->reply_to = address();
  rpc().call<ProbeReplyMsg>(
      std::move(msg), ppm_at(node),
      [this, done = std::move(done)](net::Result<const ProbeReplyMsg*> reply) {
        if (alive()) done(reply ? reply.value : nullptr);
      },
      {.deadline = attempts * timeout, .max_retries = attempts - 1, .rto = timeout},
      "probe");
}

void GroupServiceDaemon::conclude_wd_process_failure(net::NodeId node,
                                                     sim::SimTime detected_at,
                                                     sim::SimTime last_seen_at) {
  if (!alive()) return;
  trace(sim::TraceLevel::kWarn,
        "diagnosed WD process failure on node " + std::to_string(node.value) +
            "; restarting via PPM");
  auto wit = watches_.find(node.value);
  if (wit != watches_.end()) {
    wit->second.status = NodeStatus::kProcessFailed;
    wit->second.diagnosing = false;
  }
  if (log_ != nullptr) {
    log_->append(FaultRecord{
        .component = "WD",
        .kind = FaultKind::kProcessFailure,
        .node = node,
        .partition = partition_,
        .network = net::NetworkId{},
        .last_seen_at = last_seen_at,
        .detected_at = detected_at,
        .diagnosed_at = now(),
    });
  }
  Event e;
  e.type = std::string(event_types::kServiceFailed);
  e.subject_node = node;
  e.attrs = {{"service", "WD"}};
  publish(std::move(e));

  // Recovery: have the node's PPM restart the watch daemon (one attempt).
  auto restart = std::make_shared<StartServiceMsg>();
  restart->kind = ServiceKind::kWatchDaemon;
  restart->partition = partition_;
  restart->create = false;
  restart->reply_to = address();
  restart->epoch = primary_ring_->view().epoch;
  restart->scope = primary_ring_->scope();
  rpc().call<StartServiceReplyMsg>(
      std::move(restart), ppm_at(node),
      [this, node](net::Result<const StartServiceReplyMsg*> reply) {
        finish_wd_restart(node, reply && reply.value->ok);
      },
      {.max_retries = 0}, "restart_wd");
}

void GroupServiceDaemon::conclude_node_failure(net::NodeId node,
                                               sim::SimTime detected_at,
                                               sim::SimTime last_seen_at) {
  if (!alive()) return;
  trace(sim::TraceLevel::kWarn,
        "diagnosed node failure: node " + std::to_string(node.value));
  auto wit = watches_.find(node.value);
  if (wit != watches_.end()) {
    wit->second.status = NodeStatus::kNodeFailed;
    wit->second.diagnosing = false;
  }
  if (log_ != nullptr) {
    // The WD is the node's representative: with the node gone there is
    // nothing to migrate, so recovery is complete at diagnosis (paper §5.1).
    log_->append(FaultRecord{
        .component = "WD",
        .kind = FaultKind::kNodeFailure,
        .node = node,
        .partition = partition_,
        .network = net::NetworkId{},
        .last_seen_at = last_seen_at,
        .detected_at = detected_at,
        .diagnosed_at = now(),
        .recovered_at = now(),
        .recovered = true,
    });
  }
  Event e;
  e.type = std::string(event_types::kNodeFailed);
  e.subject_node = node;
  publish(std::move(e));
}

// --- membership plumbing ------------------------------------------------------

void GroupServiceDaemon::migrate_partition(const MetaMember& failed,
                                           const MembershipRing& ring) {
  const MembershipRing* r = &ring;  // rings live as long as this daemon
  engine().schedule_after(kMigrationSelectTime, [this, failed, r] {
    if (!alive() || directory() == nullptr) return;
    const auto targets = directory()->migration_targets(failed.partition);
    if (targets.empty()) {
      Event e;
      e.type = "partition.lost";
      e.attrs = {{"partition", std::to_string(failed.partition.value)}};
      publish(std::move(e));
      return;
    }
    // A partition takeover relocates every kernel service of the dead
    // server — the heaviest recovery action the GSD can take.
    trace(sim::TraceLevel::kError,
          "migrating partition " + std::to_string(failed.partition.value) +
              " services from node " + std::to_string(failed.gsd.node.value) +
              " to node " + std::to_string(targets.front().value));
    auto start = std::make_shared<StartServiceMsg>();
    start->kind = ServiceKind::kGroupService;
    start->partition = failed.partition;
    start->create = true;
    start->request_id = rpc().mint_id();
    start->epoch = r->view().epoch;
    start->scope = r->scope();
    send_any(ppm_at(targets.front()), std::move(start));
    Event e;
    e.type = std::string(event_types::kGsdMigrated);
    e.subject_node = targets.front();
    e.attrs = {{"partition", std::to_string(failed.partition.value)},
               {"from_node", std::to_string(failed.gsd.node.value)},
               {"to_node", std::to_string(targets.front().value)}};
    publish(std::move(e));
  });
}

void GroupServiceDaemon::fetch_state_and_join() {
  if (directory() == nullptr) {
    primary_ring_->mark_joined();
    return;
  }
  const bool singleton =
      zoned_ ? zones_.zone_members(zone_).size() == 1
             : directory()->partition_count() == 1;
  if (singleton) {
    // Nothing to rejoin; adopt a singleton view.
    primary_ring_->found(primary_ring_->view().view_id + 1, /*persist=*/false);
    check_services();
    return;
  }

  // Ask both our own partition's checkpoint instance (fast path after an
  // in-place restart) and the ring replica (survives server-node death).
  const std::uint64_t load_id = engine().rng().next() | 1;
  auto send_load = [this, load_id](net::PartitionId target) {
    auto load = std::make_shared<CheckpointLoadMsg>();
    load->service = "gsd/" + std::to_string(partition_.value);
    load->key = "view";
    load->reply_to = address();
    load->request_id = load_id;
    send_any(directory()->service_address(ServiceKind::kCheckpointService, target),
             std::move(load));
  };
  send_load(partition_);
  // Replica target: the ring successor — (p+1) mod partitions on the flat
  // ring, the next member of our zone under a zoned topology.
  send_load(zoned_ ? zones_.next_in_zone(partition_)
                   : net::PartitionId{static_cast<std::uint32_t>(
                         (partition_.value + 1) % directory()->partition_count())});
  state_load_id_ = load_id;

  // Whether or not the state fetch answers, keep trying to join; and bring
  // local services back regardless.
  primary_ring_->begin_join_search(params_.checkpoint_federation_fetch +
                                   500 * sim::kMillisecond);
}

void GroupServiceDaemon::check_services() {
  if (!alive() || directory() == nullptr) return;
  bool created_cs_this_pass = false;

  // Checkpoint entries first: every other service recovers its state
  // through the checkpoint service, so it must come back before them.
  std::vector<const SupervisedSpec*> ordered;
  for (const auto& s : supervised_) {
    if (s.kind == ServiceKind::kCheckpointService) ordered.push_back(&s);
  }
  for (const auto& s : supervised_) {
    if (s.kind != ServiceKind::kCheckpointService) ordered.push_back(&s);
  }

  for (const SupervisedSpec* spec : ordered) {
    const net::Address addr{node_id(), spec->port};
    cluster::Daemon* d = cluster().daemon_at(addr);
    if (d != nullptr && d->alive()) continue;
    if (service_recovering_[spec->component]) continue;

    const bool create = (d == nullptr);  // no instance here: migrated partition
    if (create && spec->kind != ServiceKind::kCheckpointService &&
        created_cs_this_pass) {
      continue;  // wait until the new checkpoint instance reports up
    }

    const sim::SimTime detected_at = now();
    service_recovering_[spec->component] = true;
    engine().schedule_after(
        kLocalDiagnoseTime,
        [this, spec = *spec, detected_at, create] {
          if (!alive()) return;
          if (log_ != nullptr && !create) {
            // In-place restarts are process failures; created instances
            // belong to a node-failure record already logged by the
            // migration initiator.
            log_->append(FaultRecord{
                .component = spec.component,
                .kind = FaultKind::kProcessFailure,
                .node = node_id(),
                .partition = partition_,
                .network = net::NetworkId{},
                // Death happened between supervision checks; the previous
                // check is the last confirmed sign of life.
                .last_seen_at = detected_at > params_.heartbeat_interval
                                    ? detected_at - params_.heartbeat_interval
                                    : 0,
                .detected_at = detected_at,
                .diagnosed_at = now(),
            });
          }
          Event e;
          e.type = std::string(event_types::kServiceFailed);
          e.subject_node = node_id();
          e.attrs = {{"service", spec.component}};
          publish(std::move(e));

          auto start = std::make_shared<StartServiceMsg>();
          start->kind = spec.kind;
          start->extension = spec.extension;
          start->extension_port = spec.port;
          start->partition = partition_;
          start->create = create;
          start->request_id = rpc().mint_id();
          start->epoch = primary_ring_->view().epoch;
          start->scope = primary_ring_->scope();
          send_any(ppm_at(node_id()), std::move(start));
        });
    if (create && spec->kind == ServiceKind::kCheckpointService) {
      created_cs_this_pass = true;
    }
  }
}

void GroupServiceDaemon::handle_service_up(const ServiceUpMsg& up) {
  std::string component = up.extension;
  if (component.empty()) {
    switch (up.kind) {
      case ServiceKind::kEventService: component = "ES"; break;
      case ServiceKind::kDataBulletin: component = "DB"; break;
      case ServiceKind::kCheckpointService: component = "CS"; break;
      default: component = std::string(to_string(up.kind)); break;
    }
  }
  service_recovering_[component] = false;
  if (log_ != nullptr &&
      log_->mark_recovered_partition(component, partition_, now())) {
    Event e;
    e.type = std::string(event_types::kServiceRecovered);
    e.subject_node = up.service.node;
    e.attrs = {{"service", component}};
    publish(std::move(e));
  }
  if (up.kind == ServiceKind::kCheckpointService) {
    // The checkpoint instance is back: bring up services waiting on it.
    check_services();
  }
}

// --- message handlers ---------------------------------------------------------

void GroupServiceDaemon::finish_wd_restart(net::NodeId node, bool restarted) {
  if (!alive()) return;
  auto wit = watches_.find(node.value);
  if (!restarted) {
    // No reply, or a refusal: the node may have died under the restart.
    // Unless the WD's heartbeat already answered for it, diagnose afresh.
    if (wit != watches_.end() && wit->second.status == NodeStatus::kProcessFailed) {
      begin_node_diagnosis(node);
    }
    return;
  }
  if (log_ != nullptr && log_->mark_recovered("WD", node, now())) {
    Event e;
    e.type = std::string(event_types::kServiceRecovered);
    e.subject_node = node;
    e.attrs = {{"service", "WD"}};
    publish(std::move(e));
  }
  if (wit != watches_.end() && wit->second.status == NodeStatus::kProcessFailed) {
    wit->second.status = NodeStatus::kHealthy;
  }
}

void GroupServiceDaemon::handle_state_load_reply(
    const CheckpointLoadReplyMsg& reply) {
  if (reply.request_id != state_load_id_ || state_load_id_ == 0) return;
  state_load_id_ = 0;
  if (reply.found) {
    primary_ring_->adopt_recovered_view(MetaView::deserialize(reply.data.str()));
  }
  primary_ring_->rejoin_now();
  primary_ring_->begin_join_search(MembershipRing::kJoinRetryPeriod);
  check_services();
}

}  // namespace phoenix::kernel
