// Checkpoint service (paper §4.2, §4.4).
//
// One instance per partition, on the partition's server node; the instances
// form a federation. Upper-layer services save their own state here and
// retrieve it after a restart or migration. Writes replicate to the next
// `replication_factor - 1` partitions in ring order, so a service migrated
// to a different node — even a different partition's checkpoint instance —
// can recover its state by asking the federation.
//
// Serving a load costs a disk-read delay (local) or a replicated-segment
// scan delay (federation fetch); both are FtParams knobs calibrated to the
// paper's measured recovery constants.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/daemon.h"
#include "kernel/checkpoint/checkpoint_msgs.h"
#include "kernel/ft_params.h"
#include "kernel/runtime/service_runtime.h"
#include "kernel/service_kind.h"
#include "kernel/service_msgs.h"
#include "net/message.h"
#include "net/rpc.h"

namespace phoenix::kernel {

class CheckpointService final : public ServiceRuntime {
 public:
  CheckpointService(cluster::Cluster& cluster, net::NodeId node,
                    net::PartitionId partition, const FtParams& params,
                    ServiceDirectory* directory, double cpu_share = 0.0);

  net::PartitionId partition() const noexcept { return partition_; }

  /// Writes replicate to this many instances total (including this one).
  void set_replication_factor(std::size_t r) noexcept { replication_factor_ = r; }

  // --- local API ----------------------------------------------------------

  std::uint64_t save_local(const std::string& service, const std::string& key,
                           CheckpointData data, bool replicate = true);
  std::optional<CheckpointData> load_local(const std::string& service,
                                           const std::string& key) const;
  bool delete_local(const std::string& service, const std::string& key,
                    bool replicate = true);
  std::size_t entry_count() const noexcept { return store_.size(); }

  /// Keys a service has saved at this instance, sorted.
  std::vector<std::string> list_keys(const std::string& service) const;

  /// Deletes every key of a service ("deleting system state", paper §4.2),
  /// replicated across the federation. Returns the local count removed.
  std::size_t delete_namespace(const std::string& service, bool replicate = true);

 private:
  void handle_load(const CheckpointLoadMsg& load, const net::Envelope& env);
  /// Sends `reply` after the store's read `delay`, unless this instance
  /// died in the meantime.
  void reply_after(sim::SimTime delay, net::Address reply_to,
                   std::shared_ptr<CheckpointLoadReplyMsg> reply);
  void replicate(const std::string& service, const std::string& key,
                 const CheckpointData& data, std::uint64_t version, bool deleted);

  struct Entry {
    CheckpointData data;
    std::uint64_t version = 0;
  };

  net::PartitionId partition_;
  const FtParams& params_;
  std::size_t replication_factor_ = 2;
  std::map<std::pair<std::string, std::string>, Entry> store_;
  std::uint64_t next_version_ = 1;
};

}  // namespace phoenix::kernel
