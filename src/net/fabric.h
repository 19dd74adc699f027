// Simulated multi-network cluster fabric.
//
// The Dawning 4000A attaches every node to three independent networks; the
// Phoenix watch daemon heartbeats over all of them so the group service can
// distinguish a dead node from a dead link. The fabric models exactly that:
// per-(node, network) interface state, a latency model, and byte/message
// accounting per network (used by the PWS-vs-PBS bandwidth experiment).
//
// The fabric is topology + transport only; it delivers envelopes through a
// handler installed by the cluster layer, which knows which daemon owns
// which address.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "net/message.h"
#include "obs/metrics.h"
#include "obs/span_store.h"
#include "sim/engine.h"

namespace phoenix::net {

/// Latency model: base + per-byte cost + uniform jitter fraction, plus an
/// independent per-message loss probability (lossy datagram semantics; the
/// kernel's heartbeat grace and retry logic must absorb this).
struct LatencyModel {
  sim::SimTime base = 50 * sim::kMicrosecond;     // switch + stack traversal
  /// Extra one-way cost when the path crosses partition edge switches into
  /// the core (0 = flat topology). Applied when the fabric knows the
  /// partition grouping (Fabric::set_group_size).
  sim::SimTime cross_group_extra = 30 * sim::kMicrosecond;
  double per_byte_us = 0.001;                     // ~1 GB/s effective
  double jitter_frac = 0.2;                       // +/- fraction of total
  double loss_probability = 0.0;                  // per message, per network

  sim::SimTime sample(std::size_t bytes, sim::Rng& rng,
                      bool cross_group = false) const;
};

/// Per-network traffic counters. The per-type breakdown is indexed by
/// interned MessageTypeId (one array index per send, no string hashing);
/// its string-keyed lookup API is unchanged for tests and reports.
struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_dropped = 0;    // interface down or node dead
  std::uint64_t messages_lost = 0;       // random loss (LatencyModel)
  std::uint64_t messages_delivered = 0;  // reached the delivery handler
  TypeCounts bytes_by_type;

  /// Accumulates `other` into this — the one merge used by every
  /// per-network aggregation (no more open-coded field sums).
  void add(const NetworkStats& other) {
    messages_sent += other.messages_sent;
    bytes_sent += other.bytes_sent;
    messages_dropped += other.messages_dropped;
    messages_lost += other.messages_lost;
    messages_delivered += other.messages_delivered;
    bytes_by_type.add(other.bytes_by_type);
  }
};

class Fabric {
 public:
  /// Called when an envelope reaches its destination (both interfaces up at
  /// send time, destination still reachable at delivery time).
  using DeliveryHandler = std::function<void(const Envelope&)>;

  /// Predicate the cluster layer installs: is this node powered and alive?
  using NodeAlivePredicate = std::function<bool(NodeId)>;

  /// Fault-injection hook: returns true to silently discard a message that
  /// was accepted on the wire (counted as messages_lost, like random loss).
  /// Checked before the random-loss draw, so targeted drops consume no
  /// randomness and stay deterministic.
  using DropFilter =
      std::function<bool(const Address& from, const Address& to, const Message&)>;

  Fabric(sim::Engine& engine, std::size_t node_count, std::size_t network_count);

  std::size_t node_count() const noexcept { return node_count_; }
  std::size_t network_count() const noexcept { return network_count_; }

  void set_delivery_handler(DeliveryHandler handler) { deliver_ = std::move(handler); }
  void set_node_alive_predicate(NodeAlivePredicate pred) { node_alive_ = std::move(pred); }
  void set_drop_filter(DropFilter filter) { drop_ = std::move(filter); }

  /// Attaches a span store for causal tracing. While `store->enabled()`,
  /// every send records a wire-hop span (outcome delivered / lost /
  /// dropped / unreachable) parented to the sender's ambient TraceContext,
  /// and the delivery handler runs under a ContextScope rooted at that hop
  /// so server-side spans link to it. The untraced path is unchanged
  /// (same closure size, one extra null-check per send).
  void set_span_store(obs::SpanStore* store) noexcept { spans_ = store; }

  /// Registers a snapshot-time probe on `registry` that publishes this
  /// fabric's merged stats as gauges named "<prefix>.messages_sent" etc.
  /// Returns the probe id; unregister it if the fabric dies first.
  std::uint64_t register_metrics(obs::Registry& registry, std::string prefix);

  LatencyModel& latency_model() noexcept { return latency_; }

  /// Enables the two-level topology model: nodes in the same group of
  /// `nodes_per_group` consecutive ids share an edge switch; traffic
  /// between groups pays LatencyModel::cross_group_extra. 0 = flat.
  void set_group_size(std::size_t nodes_per_group) noexcept {
    group_size_ = nodes_per_group;
  }

  // --- interface state ---------------------------------------------------

  bool interface_up(NodeId node, NetworkId network) const;
  void set_interface_up(NodeId node, NetworkId network, bool up);

  /// Cuts/restores every interface of `node` (models unplugging the node).
  void set_node_links_up(NodeId node, bool up);

  /// True when at least one network connects the two nodes end to end.
  bool any_path(NodeId a, NodeId b) const;

  // --- adversarial link weather --------------------------------------------
  //
  // Unlike interface cuts (visible to both ends as a down NIC), these model
  // the faults that fool naive failure detection: traffic silently vanishes
  // in ONE direction, or a node's sends all run late. Both interfaces stay
  // administratively up throughout.

  /// Blocks (or unblocks) every message from `from`'s node to `to`'s node,
  /// on every network, in that direction only — the asymmetric-partition
  /// primitive. Blocked messages count as messages_lost; the sender cannot
  /// tell. The reverse direction is unaffected.
  void set_link_blocked(NodeId from, NodeId to, bool blocked);
  bool link_blocked(NodeId from, NodeId to) const;
  void clear_blocked_links();

  /// Adds `extra` to the latency of every message `node` originates (a slow
  /// node: heartbeats arrive late but the node is not dead). 0 clears.
  void set_node_send_delay(NodeId node, sim::SimTime extra);
  sim::SimTime node_send_delay(NodeId node) const;

  // --- sending -----------------------------------------------------------

  /// Sends `message` from->to over `network`. Returns true if it was put on
  /// the wire (both interfaces up, both nodes alive); the envelope is then
  /// scheduled for delivery after a sampled latency. A message put on the
  /// wire can still be lost if the destination dies before delivery.
  bool send(const Address& from, const Address& to, NetworkId network,
            std::shared_ptr<const Message> message);

  /// Sends over the first network whose path is currently up. Returns the
  /// network used, or an invalid NetworkId if none is available.
  NetworkId send_any(const Address& from, const Address& to,
                     std::shared_ptr<const Message> message);

  // --- stats ---------------------------------------------------------------

  const NetworkStats& stats(NetworkId network) const;
  NetworkStats total_stats() const;
  void reset_stats();

 private:
  std::size_t index(NodeId node, NetworkId network) const {
    return static_cast<std::size_t>(node.value) * network_count_ + network.value;
  }
  bool node_alive(NodeId n) const { return !node_alive_ || node_alive_(n); }
  void record_wire_span(const Message& message, sim::SimTime start,
                        sim::SimTime end, const char* outcome);

  static std::uint64_t link_key(NodeId from, NodeId to) noexcept {
    return (static_cast<std::uint64_t>(from.value) << 32) | to.value;
  }

  sim::Engine& engine_;
  std::size_t node_count_;
  std::size_t network_count_;
  std::size_t group_size_ = 0;
  std::vector<char> interface_up_;  // [node * network_count + network]
  LatencyModel latency_;
  DeliveryHandler deliver_;
  NodeAlivePredicate node_alive_;
  DropFilter drop_;
  std::unordered_set<std::uint64_t> blocked_links_;  // directional, link_key()
  std::vector<sim::SimTime> send_delay_;             // [node]; empty until used
  std::vector<NetworkStats> stats_;
  obs::SpanStore* spans_ = nullptr;
};

}  // namespace phoenix::net
