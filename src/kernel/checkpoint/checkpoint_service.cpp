#include "kernel/checkpoint/checkpoint_service.h"

#include <utility>

namespace phoenix::kernel {

CheckpointService::CheckpointService(cluster::Cluster& cluster, net::NodeId node,
                                     net::PartitionId partition,
                                     const FtParams& params,
                                     ServiceDirectory* directory, double cpu_share)
    : ServiceRuntime(cluster, "ckpt/" + std::to_string(partition.value), node,
                     port_of(ServiceKind::kCheckpointService), directory, &params,
                     // The store is disk-backed in a real deployment, so a
                     // restart needs no state recovery: announce readiness to
                     // the partition's GSD immediately, no recover_on_start.
                     Options{.kind = ServiceKind::kCheckpointService,
                             .partition = partition,
                             .announce_up = true},
                     cpu_share),
      partition_(partition),
      params_(params) {
  on<CheckpointSaveMsg>([this](const CheckpointSaveMsg& save) {
    // Fencing: silently drop writes stamped with a pre-takeover epoch (no
    // reply — to the deposed writer this store is simply gone).
    if (!admit_epoch(save.epoch, save.scope)) return;
    serve_mutating(save, [&] {
      const std::uint64_t version = save_local(save.service, save.key, save.data);
      auto reply = std::make_shared<CheckpointSaveReplyMsg>();
      reply->request_id = save.request_id;
      reply->version = version;
      return reply;
    });
  });

  on<CheckpointReplicateMsg>([this](const CheckpointReplicateMsg& rep) {
    auto it = store_.find({rep.service, rep.key});
    if (rep.deleted) {
      if (it != store_.end() && it->second.version < rep.version) store_.erase(it);
    } else if (it == store_.end() || it->second.version < rep.version) {
      store_[{rep.service, rep.key}] = Entry{rep.data, rep.version};
    }
  });

  on<CheckpointLoadMsg>(
      [this](const CheckpointLoadMsg& load, const net::Envelope& env) {
        handle_load(load, env);
      });

  on<CheckpointFetchMsg>([this](const CheckpointFetchMsg& fetch) {
    // Peer fetch: scanning replicated segments costs the federation delay.
    auto reply = std::make_shared<CheckpointLoadReplyMsg>();
    reply->request_id = fetch.request_id;
    if (auto data = load_local(fetch.service, fetch.key)) {
      reply->found = true;
      reply->data = std::move(*data);
    }
    reply_after(params_.checkpoint_federation_fetch, fetch.reply_to,
                std::move(reply));
  });

  on<CheckpointListMsg>([this](const CheckpointListMsg& list) {
    serve_idempotent(list, [&] {
      auto reply = std::make_shared<CheckpointListReplyMsg>();
      reply->request_id = list.request_id;
      reply->keys = list_keys(list.service);
      return reply;
    });
  });

  on<CheckpointDeleteNamespaceMsg>([this](const CheckpointDeleteNamespaceMsg& delns) {
    serve_mutating(delns, [&] {
      auto reply = std::make_shared<CheckpointDeleteNamespaceReplyMsg>();
      reply->request_id = delns.request_id;
      reply->removed = delete_namespace(delns.service);
      return reply;
    });
  });

  on<CheckpointDeleteMsg>([this](const CheckpointDeleteMsg& del) {
    serve_mutating(del, [&] {
      const bool existed = delete_local(del.service, del.key);
      auto reply = std::make_shared<CheckpointDeleteReplyMsg>();
      reply->request_id = del.request_id;
      reply->existed = existed;
      return reply;
    });
  });
}

void CheckpointService::handle_load(const CheckpointLoadMsg& load,
                                    const net::Envelope& env) {
  if (auto data = load_local(load.service, load.key)) {
    // Hit in this instance's store. A requester from our own partition is
    // served from the warm local segment; a cross-partition requester
    // (recovery after migration) pays the cold replicated-segment scan.
    const bool same_partition =
        cluster().partition_of(env.from.node) == partition_;
    auto reply = std::make_shared<CheckpointLoadReplyMsg>();
    reply->request_id = load.request_id;
    reply->found = true;
    reply->data = std::move(*data);
    reply_after(same_partition ? params_.checkpoint_local_fetch
                               : params_.checkpoint_federation_fetch,
                load.reply_to, std::move(reply));
    return;
  }
  // Miss: ask every federation peer; the first positive answer wins. The
  // fetch is the same for every peer, so they all share one message. Dead
  // peers never answer, so the load closes as not-found after a bounded wait:
  // recovering services are not stuck behind a half-down federation (e.g.
  // during staged cluster construction).
  auto fetch = std::make_shared<CheckpointFetchMsg>();
  fetch->service = load.service;
  fetch->key = load.key;
  fetch->reply_to = address();
  std::vector<std::pair<net::Address, std::shared_ptr<CheckpointFetchMsg>>> peers;
  if (directory() != nullptr) {
    for (std::size_t p = 0; p < directory()->partition_count(); ++p) {
      const net::PartitionId pid{static_cast<std::uint32_t>(p)};
      if (pid == partition_) continue;
      peers.emplace_back(
          directory()->service_address(ServiceKind::kCheckpointService, pid), fetch);
    }
  }
  const auto answer = [this, to = load.reply_to, id = load.request_id](
                          const CheckpointLoadReplyMsg* found) {
    auto reply = std::make_shared<CheckpointLoadReplyMsg>();
    reply->request_id = id;
    if (found != nullptr) {
      reply->found = true;
      reply->data = found->data;
      reply->version = found->version;
    }
    send_any(to, std::move(reply));
  };
  rpc().gather<CheckpointLoadReplyMsg>(
      peers, params_.checkpoint_federation_fetch + 2 * sim::kSecond,
      [answer](const CheckpointLoadReplyMsg& lr, const net::Envelope&) {
        if (lr.found) answer(&lr);
        return lr.found;
      },
      [this, answer] {
        if (alive()) answer(nullptr);
      });
}

void CheckpointService::reply_after(sim::SimTime delay, net::Address reply_to,
                                    std::shared_ptr<CheckpointLoadReplyMsg> reply) {
  // Scheduled once per load or fetch (about a million times in a 1,024-
  // partition boot), so it must fit the engine's inline callback buffer.
  auto send = [this, reply_to, reply = std::move(reply)]() mutable {
    if (alive()) send_any(reply_to, std::move(reply));
  };
  static_assert(sim::Engine::Callback::stores_inline<decltype(send)>(),
                "a per-reply closure must not heap-allocate");
  engine().schedule_after(delay, std::move(send));
}

std::uint64_t CheckpointService::save_local(const std::string& service,
                                            const std::string& key,
                                            CheckpointData data, bool do_replicate) {
  const std::uint64_t version = next_version_++;
  const auto it =
      store_.insert_or_assign({service, key}, Entry{std::move(data), version}).first;
  if (do_replicate) replicate(service, key, it->second.data, version, /*deleted=*/false);
  return version;
}

std::optional<CheckpointData> CheckpointService::load_local(
    const std::string& service, const std::string& key) const {
  auto it = store_.find({service, key});
  if (it == store_.end()) return std::nullopt;
  return it->second.data;
}

bool CheckpointService::delete_local(const std::string& service,
                                     const std::string& key, bool do_replicate) {
  const bool existed = store_.erase({service, key}) > 0;
  if (do_replicate) replicate(service, key, {}, next_version_++, /*deleted=*/true);
  return existed;
}

std::vector<std::string> CheckpointService::list_keys(
    const std::string& service) const {
  std::vector<std::string> out;
  for (auto it = store_.lower_bound({service, std::string()});
       it != store_.end() && it->first.first == service; ++it) {
    out.push_back(it->first.second);
  }
  return out;
}

std::size_t CheckpointService::delete_namespace(const std::string& service,
                                                bool do_replicate) {
  std::size_t removed = 0;
  for (const std::string& key : list_keys(service)) {
    store_.erase({service, key});
    ++removed;
    if (do_replicate) replicate(service, key, {}, next_version_++, /*deleted=*/true);
  }
  return removed;
}

void CheckpointService::replicate(const std::string& service, const std::string& key,
                                  const CheckpointData& data, std::uint64_t version,
                                  bool deleted) {
  if (directory() == nullptr || replication_factor_ <= 1) return;
  const std::size_t parts = directory()->partition_count();
  if (parts <= 1) return;
  // Replicas live on the next (replication_factor - 1) partitions ring-wise.
  for (std::size_t i = 1; i < replication_factor_ && i < parts; ++i) {
    const net::PartitionId target{
        static_cast<std::uint32_t>((partition_.value + i) % parts)};
    auto msg = std::make_shared<CheckpointReplicateMsg>();
    msg->service = service;
    msg->key = key;
    msg->data = data;
    msg->version = version;
    msg->deleted = deleted;
    send_any(directory()->service_address(ServiceKind::kCheckpointService, target),
             std::move(msg));
  }
}

}  // namespace phoenix::kernel
