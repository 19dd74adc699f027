// Parallel process management service (paper §4.2).
//
// One PPM daemon per node. It loads and deletes remote jobs, answers
// liveness probes (the group service's node-vs-process diagnosis hinges on
// this), restarts or instantiates kernel service daemons on request (the
// recovery/migration path), and executes parallel commands across node sets
// with tree fan-out. Terminated process entries are cleaned up by the node's
// detector, right after the sample that reports their exit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/daemon.h"
#include "kernel/ft_params.h"
#include "kernel/runtime/service_runtime.h"
#include "kernel/service_kind.h"
#include "net/message.h"
#include "net/rpc.h"

namespace phoenix::kernel {

// --- messages ---------------------------------------------------------------

struct ProbeMsg final : net::Message {
  /// The prober checks whether the node is reachable at all, not one path:
  /// every attempt goes out on every network (cluster::RpcClient).
  static constexpr bool kEveryNetwork = true;

  net::Address reply_to;
  std::uint64_t request_id = 0;

  PHOENIX_MESSAGE_TYPE("ppm.probe")
  std::size_t wire_size() const noexcept override { return 16; }
};

struct ProbeReplyMsg final : net::Message {
  std::uint64_t request_id = 0;
  net::NodeId node;
  /// ps-style liveness of the node's watch daemon and GSD, so the prober
  /// can tell "your heartbeats got lost" from "the daemon is dead".
  bool wd_running = false;
  bool gsd_running = false;

  PHOENIX_MESSAGE_TYPE("ppm.probe_reply")
  std::size_t wire_size() const noexcept override { return 18; }
};

/// Specification of a remote job process.
struct ProcessSpec {
  std::string name;
  std::string owner;
  double cpu_share = 1.0;            // CPUs consumed while running
  sim::SimTime duration = 0;         // 0 = runs until killed
  std::size_t image_bytes = 4 << 20; // binary+input shipped at load time
};

struct SpawnMsg final : net::Message {
  ProcessSpec spec;
  net::Address reply_to;       // SpawnReplyMsg destination (invalid = none)
  net::Address exit_notify;    // ExitNotifyMsg destination (invalid = none)
  std::uint64_t request_id = 0;
  std::uint16_t attempt = 1;   // header-resident; excluded from wire_size()

  PHOENIX_MESSAGE_TYPE("ppm.spawn")
  std::size_t wire_size() const noexcept override {
    return spec.name.size() + spec.owner.size() + spec.image_bytes / 1024 + 32;
  }
};

struct SpawnReplyMsg final : net::Message {
  std::uint64_t request_id = 0;
  bool ok = false;
  cluster::Pid pid = 0;
  net::NodeId node;

  PHOENIX_MESSAGE_TYPE("ppm.spawn_reply")
  std::size_t wire_size() const noexcept override { return 24; }
};

struct ExitNotifyMsg final : net::Message {
  cluster::Pid pid = 0;
  net::NodeId node;
  std::string name;
  int exit_code = 0;

  PHOENIX_MESSAGE_TYPE("ppm.exit_notify")
  std::size_t wire_size() const noexcept override { return name.size() + 24; }
};

struct KillMsg final : net::Message {
  cluster::Pid pid = 0;
  net::Address reply_to;
  std::uint64_t request_id = 0;

  PHOENIX_MESSAGE_TYPE("ppm.kill")
  std::size_t wire_size() const noexcept override { return 24; }
};

struct KillReplyMsg final : net::Message {
  std::uint64_t request_id = 0;
  bool ok = false;

  PHOENIX_MESSAGE_TYPE("ppm.kill_reply")
  std::size_t wire_size() const noexcept override { return 9; }
};

/// Restart a kernel service instance on this node (recovery), or create and
/// start one here (migration). `extension` names a registered extension
/// service instead of a kernel ServiceKind when non-empty.
struct StartServiceMsg final : net::Message {
  ServiceKind kind = ServiceKind::kWatchDaemon;
  std::string extension;
  net::PortId extension_port;  // mailbox of the extension instance (restarts)
  net::PartitionId partition;
  bool create = false;  // false: restart existing instance object on this node
  net::Address reply_to;
  std::uint64_t request_id = 0;
  /// Sender's meta-group epoch (fencing). 0 = unfenced legacy traffic: the
  /// paper's unilateral policy never stamps it, keeping the wire identical.
  std::uint64_t epoch = 0;
  /// Ring scope the epoch belongs to (0 = the flat meta-group; zone rings
  /// fence independently under a zoned topology). Adds bytes only when set.
  std::uint32_t scope = 0;

  PHOENIX_MESSAGE_TYPE("ppm.start_service")
  std::size_t wire_size() const noexcept override {
    return extension.size() + 24 + (epoch != 0 ? 8 : 0) + (scope != 0 ? 4 : 0);
  }
};

struct StartServiceReplyMsg final : net::Message {
  std::uint64_t request_id = 0;
  bool ok = false;
  /// Rejected by the epoch fence: the requester's epoch predates a quorum
  /// takeover this node has already witnessed.
  bool fenced = false;
  net::Address service;

  PHOENIX_MESSAGE_TYPE("ppm.start_service_reply")
  std::size_t wire_size() const noexcept override { return 24 + (fenced ? 1 : 0); }
};

/// Parallel command over a node set, executed with tree fan-out.
struct ParallelCmdMsg final : net::Message {
  std::string command;
  std::vector<net::NodeId> nodes;  // nodes still to cover (first = executor)
  std::size_t fanout = 4;
  net::Address reply_to;
  std::uint64_t request_id = 0;
  std::uint16_t attempt = 1;  // header-resident; excluded from wire_size()

  PHOENIX_MESSAGE_TYPE("ppm.parallel_cmd")
  std::size_t wire_size() const noexcept override {
    return command.size() + nodes.size() * 4 + 24;
  }
};

struct ParallelCmdReplyMsg final : net::Message {
  std::uint64_t request_id = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;

  PHOENIX_MESSAGE_TYPE("ppm.parallel_cmd_reply")
  std::size_t wire_size() const noexcept override { return 24; }
};

// --- daemon -----------------------------------------------------------------

class ProcessManager final : public ServiceRuntime {
 public:
  ProcessManager(cluster::Cluster& cluster, net::NodeId node,
                 const FtParams& params, ServiceDirectory* directory,
                 double cpu_share = 0.0);

  /// Local spawn used by in-process callers (PWS scheduler tests etc.).
  cluster::Pid spawn_local(const ProcessSpec& spec, net::Address exit_notify = {});

  /// Local command execution cost (per node, per command).
  static constexpr sim::SimTime kCommandExecTime = 5 * sim::kMillisecond;

 private:
  void handle_start_service(const StartServiceMsg& msg);
  void handle_parallel_cmd(const ParallelCmdMsg& msg);
  void process_exited(cluster::Pid pid, net::Address notify);
  sim::SimTime exec_time_for(ServiceKind kind, bool extension) const;

  const FtParams& params_;
};

}  // namespace phoenix::kernel
