#include "net/fabric.h"

#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace phoenix::net {

sim::SimTime LatencyModel::sample(std::size_t bytes, sim::Rng& rng,
                                  bool cross_group) const {
  double raw = static_cast<double>(base) + per_byte_us * static_cast<double>(bytes);
  if (cross_group) raw += static_cast<double>(cross_group_extra);
  const double jitter = raw * jitter_frac;
  const double total = raw + rng.uniform(-jitter, jitter);
  return total < 1.0 ? sim::SimTime{1} : static_cast<sim::SimTime>(total);
}

Fabric::Fabric(sim::Engine& engine, std::size_t node_count, std::size_t network_count)
    : engine_(engine),
      node_count_(node_count),
      network_count_(network_count),
      interface_up_(node_count * network_count, 1),
      stats_(network_count) {
  if (network_count == 0) throw std::invalid_argument("Fabric requires >= 1 network");
}

bool Fabric::interface_up(NodeId node, NetworkId network) const {
  assert(node.value < node_count_ && network.value < network_count_);
  return interface_up_[index(node, network)] != 0;
}

void Fabric::set_interface_up(NodeId node, NetworkId network, bool up) {
  assert(node.value < node_count_ && network.value < network_count_);
  interface_up_[index(node, network)] = up ? 1 : 0;
}

void Fabric::set_node_links_up(NodeId node, bool up) {
  for (std::size_t n = 0; n < network_count_; ++n) {
    set_interface_up(node, NetworkId{static_cast<std::uint8_t>(n)}, up);
  }
}

bool Fabric::any_path(NodeId a, NodeId b) const {
  for (std::size_t n = 0; n < network_count_; ++n) {
    const NetworkId net{static_cast<std::uint8_t>(n)};
    if (interface_up(a, net) && interface_up(b, net)) return true;
  }
  return false;
}

void Fabric::set_link_blocked(NodeId from, NodeId to, bool blocked) {
  if (blocked) {
    blocked_links_.insert(link_key(from, to));
  } else {
    blocked_links_.erase(link_key(from, to));
  }
}

bool Fabric::link_blocked(NodeId from, NodeId to) const {
  return !blocked_links_.empty() && blocked_links_.count(link_key(from, to)) > 0;
}

void Fabric::clear_blocked_links() { blocked_links_.clear(); }

void Fabric::set_node_send_delay(NodeId node, sim::SimTime extra) {
  if (send_delay_.empty()) {
    if (extra == 0) return;
    send_delay_.assign(node_count_, 0);
  }
  send_delay_.at(node.value) = extra;
}

sim::SimTime Fabric::node_send_delay(NodeId node) const {
  return send_delay_.empty() ? 0 : send_delay_.at(node.value);
}

void Fabric::record_wire_span(const Message& message, sim::SimTime start,
                              sim::SimTime end, const char* outcome) {
  // Root a fresh trace when no ambient context exists, so standalone sends
  // are still visible when tracing is on.
  const obs::TraceContext parent = obs::current_context();
  const std::uint64_t trace_id =
      parent.active() ? parent.trace_id : spans_->mint_id();
  spans_->record(obs::Span{trace_id, spans_->mint_id(), parent.parent_span_id,
                           start, end, "fabric",
                           std::string("hop:") + std::string(message.type()),
                           outcome});
}

bool Fabric::send(const Address& from, const Address& to, NetworkId network,
                  std::shared_ptr<const Message> message) {
  assert(message != nullptr);
  NetworkStats& st = stats_.at(network.value);
  const std::size_t bytes = kWireHeaderBytes + message->wire_size();
  const bool traced = spans_ != nullptr && spans_->enabled();

  if (!node_alive(from.node) || !node_alive(to.node) ||
      !interface_up(from.node, network) || !interface_up(to.node, network)) {
    ++st.messages_dropped;
    if (traced) {
      record_wire_span(*message, engine_.now(), engine_.now(), "unreachable");
    }
    return false;
  }

  ++st.messages_sent;
  st.bytes_sent += bytes;
  st.bytes_by_type.slot(message->type_id()) += bytes;

  if (!blocked_links_.empty() &&
      blocked_links_.count(link_key(from.node, to.node)) > 0) {
    ++st.messages_lost;  // directional blackhole; sender cannot tell
    if (traced) record_wire_span(*message, engine_.now(), engine_.now(), "lost");
    return true;
  }

  if (drop_ && drop_(from, to, *message)) {
    ++st.messages_lost;  // targeted fault injection; sender cannot tell
    if (traced) record_wire_span(*message, engine_.now(), engine_.now(), "lost");
    return true;
  }

  if (latency_.loss_probability > 0.0 &&
      engine_.rng().chance(latency_.loss_probability)) {
    ++st.messages_lost;  // vanished on the wire; sender cannot tell
    if (traced) record_wire_span(*message, engine_.now(), engine_.now(), "lost");
    return true;
  }

  const bool cross_group =
      group_size_ > 0 &&
      from.node.value / group_size_ != to.node.value / group_size_;
  sim::SimTime latency = latency_.sample(bytes, engine_.rng(), cross_group);
  if (!send_delay_.empty()) latency += send_delay_[from.node.value];
  Envelope env{from, to, network, std::move(message)};

  if (traced) {
    // Traced delivery carries the hop span's identity; the fatter closure
    // may spill out of the scheduler's small-buffer optimization, which is
    // why this is a separate path from the default one below.
    const obs::TraceContext parent = obs::current_context();
    const std::uint64_t trace_id =
        parent.active() ? parent.trace_id : spans_->mint_id();
    const std::uint64_t hop_id = spans_->mint_id();
    const sim::SimTime sent_at = engine_.now();
    engine_.schedule_after(
        latency, [this, env = std::move(env), trace_id, hop_id,
                  parent_span = parent.parent_span_id, sent_at] {
          const sim::SimTime at = engine_.now();
          const std::string name =
              std::string("hop:") + std::string(env.message->type());
          if (!node_alive(env.to.node) || !interface_up(env.to.node, env.network)) {
            ++stats_.at(env.network.value).messages_dropped;
            spans_->record(obs::Span{trace_id, hop_id, parent_span, sent_at, at,
                                     "fabric", name, "dropped"});
            return;
          }
          ++stats_.at(env.network.value).messages_delivered;
          spans_->record(obs::Span{trace_id, hop_id, parent_span, sent_at, at,
                                   "fabric", name, "delivered"});
          obs::ContextScope scope(obs::TraceContext{trace_id, hop_id}, sent_at);
          if (deliver_) deliver_(env);
        });
    return true;
  }

  engine_.schedule_after(latency, [this, env = std::move(env)] {
    // Delivery-time checks: the destination may have died or its interface
    // may have been cut while the message was in flight.
    if (!node_alive(env.to.node) || !interface_up(env.to.node, env.network)) {
      ++stats_.at(env.network.value).messages_dropped;
      return;
    }
    ++stats_.at(env.network.value).messages_delivered;
    if (deliver_) deliver_(env);
  });
  return true;
}

NetworkId Fabric::send_any(const Address& from, const Address& to,
                           std::shared_ptr<const Message> message) {
  for (std::size_t n = 0; n < network_count_; ++n) {
    const NetworkId net{static_cast<std::uint8_t>(n)};
    if (interface_up(from.node, net) && interface_up(to.node, net)) {
      if (send(from, to, net, message)) return net;
    }
  }
  return NetworkId{};
}

const NetworkStats& Fabric::stats(NetworkId network) const {
  return stats_.at(network.value);
}

NetworkStats Fabric::total_stats() const {
  NetworkStats total;
  for (const auto& st : stats_) total.add(st);
  return total;
}

std::uint64_t Fabric::register_metrics(obs::Registry& registry,
                                       std::string prefix) {
  return registry.register_probe(
      [this, prefix = std::move(prefix)](obs::Registry& r) {
        const NetworkStats st = total_stats();
        r.gauge(prefix + ".messages_sent")
            ->set(static_cast<double>(st.messages_sent));
        r.gauge(prefix + ".bytes_sent")->set(static_cast<double>(st.bytes_sent));
        r.gauge(prefix + ".messages_dropped")
            ->set(static_cast<double>(st.messages_dropped));
        r.gauge(prefix + ".messages_lost")
            ->set(static_cast<double>(st.messages_lost));
        r.gauge(prefix + ".messages_delivered")
            ->set(static_cast<double>(st.messages_delivered));
      });
}

void Fabric::reset_stats() {
  for (auto& st : stats_) st = NetworkStats{};
}

}  // namespace phoenix::net
