#include "kernel/ppm/process_manager.h"

#include <algorithm>
#include <utility>

namespace phoenix::kernel {

namespace {
/// Give up on a parallel-command subtree after this long.
constexpr sim::SimTime kCmdTimeout = 5 * sim::kSecond;
}  // namespace

ProcessManager::ProcessManager(cluster::Cluster& cluster, net::NodeId node,
                               const FtParams& params, ServiceDirectory* directory,
                               double cpu_share)
    : ServiceRuntime(cluster, "ppm", node, port_of(ServiceKind::kProcessManager),
                     directory, &params,
                     Options{.kind = ServiceKind::kProcessManager,
                             .partition = cluster.partition_of(node)},
                     cpu_share),
      params_(params) {
  on<ProbeMsg>([this](const ProbeMsg& probe, const net::Envelope& env) {
    auto reply = std::make_shared<ProbeReplyMsg>();
    reply->request_id = probe.request_id;
    reply->node = node_id();
    const auto* wd = this->cluster().daemon_at(
        {node_id(), port_of(ServiceKind::kWatchDaemon)});
    reply->wd_running = wd != nullptr && wd->alive();
    const auto* gsd = this->cluster().daemon_at(
        {node_id(), port_of(ServiceKind::kGroupService)});
    reply->gsd_running = gsd != nullptr && gsd->alive();
    // Answer on the same network the probe arrived on: the prober is
    // checking reachability of this node, not of a particular path.
    send(probe.reply_to, env.network, std::move(reply));
  });
  on<SpawnMsg>([this](const SpawnMsg& msg) {
    serve_mutating(msg, [&]() -> std::shared_ptr<const net::Message> {
      const cluster::Pid pid = spawn_local(msg.spec, msg.exit_notify);
      auto reply = std::make_shared<SpawnReplyMsg>();
      reply->request_id = msg.request_id;
      reply->ok = true;
      reply->pid = pid;
      reply->node = node_id();
      return reply;
    });
  });
  on<KillMsg>([this](const KillMsg& msg) {
    serve_idempotent(msg, [&] {
      auto& node = this->cluster().node(node_id());
      const bool ok =
          node.terminate_process(msg.pid, cluster::ProcessState::kKilled, now());
      auto reply = std::make_shared<KillReplyMsg>();
      reply->request_id = msg.request_id;
      reply->ok = ok;
      return reply;
    });
  });
  on<StartServiceMsg>([this](const StartServiceMsg& msg) {
    handle_start_service(msg);
  });
  on<ParallelCmdMsg>([this](const ParallelCmdMsg& msg) {
    handle_parallel_cmd(msg);
  });
}

cluster::Pid ProcessManager::spawn_local(const ProcessSpec& spec,
                                         net::Address exit_notify) {
  auto& node = cluster().node(node_id());
  const cluster::Pid pid = cluster().next_pid();
  node.add_process(cluster::ProcessInfo{
      .pid = pid,
      .name = spec.name,
      .owner = spec.owner,
      .state = cluster::ProcessState::kRunning,
      .cpu_share = spec.cpu_share,
      .started_at = now(),
  });
  if (spec.duration > 0) {
    engine().schedule_after(spec.duration, [this, pid, exit_notify] {
      process_exited(pid, exit_notify);
    });
  }
  return pid;
}

void ProcessManager::process_exited(cluster::Pid pid, net::Address notify) {
  auto& node = cluster().node(node_id());
  if (!node.alive()) return;  // the node died first; nothing exits cleanly
  if (!node.terminate_process(pid, cluster::ProcessState::kExited, now())) return;
  if (notify.valid() && alive()) {
    auto msg = std::make_shared<ExitNotifyMsg>();
    msg->pid = pid;
    msg->node = node_id();
    const cluster::ProcessInfo* info = node.find_process(pid);
    if (info != nullptr) msg->name = info->name;
    send_any(notify, std::move(msg));
  }
}

sim::SimTime ProcessManager::exec_time_for(ServiceKind kind, bool extension) const {
  if (extension) return kServiceExecTime;
  switch (kind) {
    case ServiceKind::kWatchDaemon: return kWdExecTime;
    case ServiceKind::kGroupService: return kGsdExecTime;
    default: return kServiceExecTime;
  }
}

void ProcessManager::handle_start_service(const StartServiceMsg& msg) {
  auto reply = std::make_shared<StartServiceReplyMsg>();
  reply->request_id = msg.request_id;

  if (!admit_epoch(msg.epoch, msg.scope)) {
    // A deposed meta-group member ordering restarts/migrations with its
    // pre-takeover epoch: refuse, or it could resurrect services the new
    // Leader is already recovering elsewhere.
    reply->fenced = true;
    if (msg.reply_to.valid()) send_any(msg.reply_to, std::move(reply));
    return;
  }

  cluster::Daemon* target = nullptr;
  if (msg.create) {
    if (directory() != nullptr) {
      target = msg.extension.empty()
                   ? directory()->create_service(msg.kind, msg.partition, node_id())
                   : directory()->create_extension(msg.extension, node_id());
    }
  } else {
    // Restart the existing (dead) instance object bound on this node.
    const net::PortId port =
        msg.extension.empty() ? port_of(msg.kind) : msg.extension_port;
    target = cluster().daemon_at({node_id(), port});
  }

  if (target == nullptr) {
    if (msg.reply_to.valid()) send_any(msg.reply_to, std::move(reply));
    return;
  }

  const sim::SimTime exec = exec_time_for(msg.kind, !msg.extension.empty());
  const net::Address service_addr = target->address();
  engine().schedule_after(exec, [this, target, service_addr, reply_to = msg.reply_to,
                                 request_id = msg.request_id] {
    if (!cluster().node(node_id()).alive()) return;
    target->start();
    if (reply_to.valid() && alive()) {
      auto r = std::make_shared<StartServiceReplyMsg>();
      r->request_id = request_id;
      r->ok = true;
      r->service = service_addr;
      send_any(reply_to, std::move(r));
    }
  });
}

void ProcessManager::handle_parallel_cmd(const ParallelCmdMsg& msg) {
  // At-most-once: a retransmission while the fan-out is still running is
  // dropped (the original's reply answers it); one arriving after completion
  // replays the aggregated reply without re-executing the command tree.
  std::shared_ptr<const net::Message> replay;
  switch (replay_cache().begin(msg.reply_to, msg.type_id(), msg.request_id,
                               &replay)) {
    case net::ReplayCache::Admit::kReplay:
      send_any(msg.reply_to, std::move(replay));
      return;
    case net::ReplayCache::Admit::kInFlight:
      return;
    case net::ReplayCache::Admit::kNew:
      break;
  }

  // Execute locally, then fan the remaining nodes out to up to `fanout`
  // children; each child covers a contiguous chunk of the node list.
  std::vector<net::NodeId> rest;
  for (net::NodeId n : msg.nodes) {
    if (n != node_id()) rest.push_back(n);
  }

  const std::size_t fanout = std::max<std::size_t>(1, msg.fanout);
  const std::size_t chunks = std::min(fanout, rest.size());
  std::vector<std::pair<net::Address, std::shared_ptr<ParallelCmdMsg>>> subtrees;
  for (std::size_t i = 0; i < chunks; ++i) {
    // Chunk i takes elements [i*len, (i+1)*len) with remainder spread left.
    const std::size_t base = rest.size() / chunks;
    const std::size_t extra = rest.size() % chunks;
    const std::size_t begin = i * base + std::min(i, extra);
    const std::size_t end = begin + base + (i < extra ? 1 : 0);
    if (begin >= end) continue;

    auto sub = std::make_shared<ParallelCmdMsg>();
    sub->command = msg.command;
    sub->nodes.assign(rest.begin() + static_cast<std::ptrdiff_t>(begin),
                      rest.begin() + static_cast<std::ptrdiff_t>(end));
    sub->fanout = fanout;
    sub->reply_to = address();
    subtrees.emplace_back(
        net::Address{sub->nodes.front(), port_of(ServiceKind::kProcessManager)},
        std::move(sub));
  }

  // The reply goes out once both the subtrees' gather (closed at kCmdTimeout)
  // and the local execution are done. Every covered node that did not report
  // success failed: its chunk head was unreachable, or its subtree silent.
  struct Tally {
    net::Address reply_to;
    std::uint64_t request_id = 0;
    std::uint64_t covered = 0;
    std::uint64_t succeeded = 1;  // the local execution
    int waiting = 2;              // the gather and the local execution
  };
  auto tally = std::make_shared<Tally>(
      Tally{.reply_to = msg.reply_to, .request_id = msg.request_id,
            .covered = rest.size() + 1});
  const auto finish = [this, tally] {
    if (--tally->waiting > 0 || !tally->reply_to.valid() || !alive()) return;
    auto reply = std::make_shared<ParallelCmdReplyMsg>();
    reply->request_id = tally->request_id;
    reply->succeeded = tally->succeeded;
    reply->failed = tally->covered - tally->succeeded;
    replay_cache().complete(tally->reply_to, ParallelCmdMsg::static_type_id(),
                            tally->request_id, reply);
    send_any(tally->reply_to, std::move(reply));
  };
  rpc().gather<ParallelCmdReplyMsg>(
      subtrees, kCmdTimeout,
      [tally](const ParallelCmdReplyMsg& sub, const net::Envelope&) {
        tally->succeeded += sub.succeeded;
        return false;
      },
      finish);
  engine().schedule_after(kCommandExecTime, finish);
}

}  // namespace phoenix::kernel
