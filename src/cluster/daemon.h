// Daemon: the actor base class for every Phoenix service process.
//
// A daemon is bound to an (node, port) address, owns a pid in its node's
// process table while running, and reacts to delivered envelopes and timers.
// Killing a daemon (fault injection or node crash) silences it without
// notice — exactly what the group service must detect and repair.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "cluster/cluster.h"
#include "net/message.h"

namespace phoenix::cluster {

/// Well-known ports for kernel daemons (one service instance per node, so a
/// static port map suffices — mirrors /etc/services in a real deployment).
namespace ports {
inline constexpr net::PortId kWatchDaemon{1};
inline constexpr net::PortId kGroupService{2};
inline constexpr net::PortId kEventService{3};
inline constexpr net::PortId kCheckpointService{4};
inline constexpr net::PortId kDataBulletin{5};
inline constexpr net::PortId kProcessManager{6};
inline constexpr net::PortId kConfiguration{7};
inline constexpr net::PortId kSecurity{8};
inline constexpr net::PortId kDetector{9};
inline constexpr net::PortId kPbsServer{10};
inline constexpr net::PortId kPbsMom{11};
inline constexpr net::PortId kPwsScheduler{12};
inline constexpr net::PortId kGridView{13};
inline constexpr net::PortId kClient{14};
inline constexpr net::PortId kPwsGateway{15};
}  // namespace ports

class Daemon {
 public:
  /// Binds the daemon to (node, port) and registers it with the cluster.
  /// The daemon starts in the stopped state; call start().
  Daemon(Cluster& cluster, std::string name, NodeId node, net::PortId port,
         double cpu_share = 0.0);
  virtual ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& name() const noexcept { return name_; }
  net::Address address() const noexcept { return {node_, port_}; }
  NodeId node_id() const noexcept { return node_; }
  Pid pid() const noexcept { return pid_; }

  /// Running, and hosted on a live node.
  bool alive() const;
  bool running() const noexcept { return running_; }

  /// Starts (or restarts) the daemon: allocates a pid, enters the node's
  /// process table, and invokes on_start().
  void start();

  /// Graceful stop: leaves the process table cleanly, invokes on_stop().
  void stop();

  /// Abrupt process death (fault injection / node crash). No on_stop();
  /// the process-table entry is marked killed.
  void kill();

  /// Releases this daemon's address binding without destroying the object.
  /// Used when a service instance is superseded (migration): the old object
  /// stays alive in a graveyard so its pending timers fire harmlessly, but
  /// its address becomes free for a successor. Idempotent.
  void unbind();

  /// Envelope delivery entry point; ignored unless alive().
  void deliver(const net::Envelope& env);

 protected:
  Cluster& cluster() noexcept { return cluster_; }
  const Cluster& cluster() const noexcept { return cluster_; }
  sim::Engine& engine() noexcept { return cluster_.engine(); }
  sim::SimTime now() const noexcept { return cluster_.now(); }

  /// Records a structured trace entry under this daemon's name (no-op
  /// unless the cluster's tracer is enabled).
  void trace(sim::TraceLevel level, std::string message) {
    cluster_.tracer().record(cluster_.now(), level, name_, std::move(message));
  }

  /// Sends over a specific network; returns false if the path is down.
  bool send(const net::Address& to, net::NetworkId network,
            std::shared_ptr<const net::Message> msg);

  /// Sends over the first available network; invalid NetworkId if none.
  net::NetworkId send_any(const net::Address& to,
                          std::shared_ptr<const net::Message> msg);

  /// Sends the same message over EVERY network whose path is up (the watch
  /// daemon's heartbeat pattern). Returns the number of copies sent.
  std::size_t send_all_networks(const net::Address& to,
                                std::shared_ptr<const net::Message> msg);

  /// Hooks for subclasses.
  virtual void on_start() {}
  virtual void on_stop() {}
  virtual void handle(const net::Envelope& env) = 0;

 private:
  friend class RpcClient;  // sends, traces and times calls as its owner

  Cluster& cluster_;
  std::string name_;
  NodeId node_;
  net::PortId port_;
  double cpu_share_;
  bool running_ = false;
  Pid pid_ = 0;
};

}  // namespace phoenix::cluster
