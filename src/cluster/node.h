// Simulated cluster node: role, liveness, resource gauges, process table.
//
// A node hosts daemons (Phoenix kernel services) and managed processes (jobs
// loaded through the parallel process manager). Crashing a node kills
// everything on it; the group service's job is to notice and recover.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/ids.h"
#include "sim/time.h"

namespace phoenix::cluster {

using net::NodeId;
using net::PartitionId;

enum class NodeRole : std::uint8_t {
  kServer,   // runs the partition's GSD + kernel service instances
  kBackup,   // takes over server daemons on server-node failure
  kCompute,  // runs WD + detectors + user jobs only
};

std::string_view to_string(NodeRole role) noexcept;

/// Instantaneous resource gauges, as sampled by the physical resource
/// detector. Units follow the paper's monitoring figure: percentages for
/// CPU/memory/swap, MB/s for I/O rates.
struct ResourceUsage {
  double cpu_pct = 0.0;
  double mem_pct = 0.0;
  double swap_pct = 0.0;
  double disk_io_mbps = 0.0;
  double net_io_mbps = 0.0;

  /// Serialized size of one gauge record on the wire.
  static constexpr std::size_t kWireBytes = 5 * sizeof(double);

  /// Exact comparison — the detector's delta reports use it to skip
  /// re-shipping gauges that have not moved since the last sample.
  friend bool operator==(const ResourceUsage&, const ResourceUsage&) = default;
};

using Pid = std::uint64_t;

enum class ProcessState : std::uint8_t { kRunning, kExited, kKilled };

std::string_view to_string(ProcessState state) noexcept;

/// A process entry in a node's process table. Covers both kernel daemons
/// and user jobs loaded via PPM; the application-state detector reports
/// these records to the data bulletin.
struct ProcessInfo {
  Pid pid = 0;
  std::string name;
  std::string owner;          // submitting user or "kernel"
  ProcessState state = ProcessState::kRunning;
  double cpu_share = 0.0;     // fraction of one CPU consumed while running
  sim::SimTime started_at = 0;
  sim::SimTime ended_at = 0;  // valid when state != kRunning
  int exit_code = 0;
};

class Node {
 public:
  Node(NodeId id, PartitionId partition, NodeRole role, unsigned cpus,
       std::string arch = "x86_64", double cpu_speed_ghz = 2.2);

  NodeId id() const noexcept { return id_; }
  PartitionId partition() const noexcept { return partition_; }
  NodeRole role() const noexcept { return role_; }
  unsigned cpus() const noexcept { return cpus_; }

  /// Hardware architecture tag (the heterogeneous-resource layer of the
  /// paper's Figure 1; placement constraints match against this).
  const std::string& arch() const noexcept { return arch_; }
  double cpu_speed_ghz() const noexcept { return cpu_speed_ghz_; }

  bool alive() const noexcept { return alive_; }
  void set_alive(bool alive) noexcept { alive_ = alive; }

  ResourceUsage& resources() noexcept { return resources_; }
  const ResourceUsage& resources() const noexcept { return resources_; }

  // --- process table ------------------------------------------------------

  /// Registers a running process; pid must be unique on this node.
  void add_process(ProcessInfo info);

  /// Marks a process exited/killed. Returns false if the pid is unknown or
  /// already terminated.
  bool terminate_process(Pid pid, ProcessState final_state, sim::SimTime now,
                         int exit_code = 0);

  /// Removes terminated processes from the table (the paper's PPM "resource
  /// cleanup"). The node's detector calls it after every sample, so an entry
  /// outlives its exit by at most one sample period. Returns the number of
  /// entries removed.
  std::size_t reap();

  const ProcessInfo* find_process(Pid pid) const;
  std::vector<ProcessInfo> processes() const;

  /// Zero-copy view of the process table (the detector walks this every
  /// sample; processes() copies every name/owner string per call).
  const std::unordered_map<Pid, ProcessInfo>& process_table() const noexcept {
    return processes_;
  }
  std::size_t running_process_count() const;

  /// Sum of cpu_share over running processes — background load daemons
  /// impose on this node (the Linpack-overhead experiment reads this).
  double daemon_cpu_load() const;

 private:
  NodeId id_;
  PartitionId partition_;
  NodeRole role_;
  unsigned cpus_;
  std::string arch_;
  double cpu_speed_ghz_;
  bool alive_ = true;
  ResourceUsage resources_;
  std::unordered_map<Pid, ProcessInfo> processes_;
};

}  // namespace phoenix::cluster
