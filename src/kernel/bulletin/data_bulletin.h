// Data bulletin service (paper §4.2, §4.4): the in-memory database of
// cluster-wide physical-resource and application state.
//
// One instance per partition; detectors on each node export their state to
// the partition's instance. The instances form a complete-graph federation:
// a client may query ANY instance for cluster-wide data and that instance
// fans the query out to its peers and merges the answers — the single
// access point of §4.4. If one instance is down, only its partition's rows
// are missing from the merged answer (paper: "only the state of one
// partition can't be obtained").
//
// Data-plane layout (DESIGN.md §8): process identity strings are interned
// into dense SymbolIds (net/symbol.h), detectors ship compact deltas with a
// periodic full-snapshot resync, and the tables live in contiguous row
// storage so a query is answered in a single pass — filter, summarize, and
// reply-building all walk the slots once, copying each row at most once.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/daemon.h"
#include "cluster/node.h"
#include "kernel/ft_params.h"
#include "kernel/runtime/service_runtime.h"
#include "kernel/service_kind.h"
#include "net/message.h"
#include "net/symbol.h"

namespace phoenix::kernel {

/// One node's gauge row in the bulletin.
struct NodeRecord {
  net::NodeId node;
  net::PartitionId partition;
  cluster::ResourceUsage usage;
  bool alive = true;
  sim::SimTime updated_at = 0;

  static constexpr std::size_t kWireBytes = cluster::ResourceUsage::kWireBytes + 24;

  friend bool operator==(const NodeRecord&, const NodeRecord&) = default;
};

/// One application process row in the bulletin. Identity strings are
/// interned: the row carries dense SymbolIds on the hot path; name()/owner()
/// resolve the strings at the edges (rendering, assertions).
struct AppRecord {
  net::NodeId node;
  cluster::Pid pid = 0;
  net::SymbolId name_id;
  net::SymbolId owner_id;
  cluster::ProcessState state = cluster::ProcessState::kRunning;
  double cpu_share = 0.0;
  sim::SimTime started_at = 0;

  std::string_view name() const { return net::symbol_name(name_id); }
  std::string_view owner() const { return net::symbol_name(owner_id); }

  /// Identity strings still travel on the wire when a row is shipped (no
  /// cross-process dictionary), so accounting keeps their lengths.
  std::size_t wire_bytes() const noexcept {
    return name().size() + owner().size() + 40;
  }

  friend bool operator==(const AppRecord&, const AppRecord&) = default;
};

enum class BulletinTable : std::uint8_t { kNodes, kApps, kBoth };

/// Row predicate evaluated AT each federation instance (filter pushdown:
/// only matching rows travel back to the access point).
struct BulletinFilter {
  bool has_partition = false;
  net::PartitionId partition;   // node+app rows: restrict to this partition
  net::SymbolId owner;          // app rows: exact owner match (invalid = any)
  double min_cpu_pct = -1.0;    // node rows: cpu_pct >= threshold (<0 = any)
  bool alive_only = false;      // node rows: reporting nodes only

  /// String edge for the owner predicate. An owner no process ever carried
  /// still interns (ids are cheap) and simply matches nothing.
  void set_owner(std::string_view name) { owner = net::intern_symbol(name); }
  std::string_view owner_name() const { return net::symbol_name(owner); }

  bool matches(const NodeRecord& row) const {
    if (has_partition && row.partition != partition) return false;
    if (min_cpu_pct >= 0.0 && row.usage.cpu_pct < min_cpu_pct) return false;
    if (alive_only && !row.alive) return false;
    return true;
  }
  bool matches(const AppRecord& row, net::PartitionId row_partition) const {
    if (has_partition && row_partition != partition) return false;
    if (owner.valid() && row.owner_id != owner) return false;
    return true;
  }
  std::size_t wire_bytes() const noexcept { return owner_name().size() + 16; }
};

/// Detector full-snapshot export: one node's physical + application state.
/// Sent on the first sample, after a detector restart, and every
/// FtParams::detector_resync_every samples as the delta stream's resync
/// point; DbDeltaMsg carries the steady state in between.
struct DbReportMsg final : net::Message {
  NodeRecord node_record;
  std::vector<AppRecord> apps;
  std::uint64_t seq = 0;  // per-detector report sequence this snapshot sets

  PHOENIX_MESSAGE_TYPE("db.report")
  std::size_t wire_size() const noexcept override {
    std::size_t n = NodeRecord::kWireBytes + 8;
    for (const auto& a : apps) n += a.wire_bytes();
    return n;
  }
};

/// Detector delta export: what changed since report `prev_seq` — gauges (if
/// they moved), apps that started, pids that exited. The bulletin applies
/// it only when its stored sequence for the node matches prev_seq;
/// otherwise the delta is dropped and the next full snapshot resyncs.
struct DbDeltaMsg final : net::Message {
  net::NodeId node;
  net::PartitionId partition;
  std::uint64_t prev_seq = 0;
  std::uint64_t seq = 0;
  bool has_usage = false;        // gauges unchanged since prev_seq if false
  cluster::ResourceUsage usage;  // valid when has_usage
  sim::SimTime sampled_at = 0;
  std::vector<AppRecord> started;
  std::vector<cluster::Pid> exited;

  PHOENIX_MESSAGE_TYPE("db.delta")
  std::size_t wire_size() const noexcept override {
    std::size_t n = 33 + (has_usage ? cluster::ResourceUsage::kWireBytes : 0) +
                    exited.size() * sizeof(cluster::Pid);
    for (const auto& a : started) n += a.wire_bytes();
    return n;
  }
};

/// Cluster-wide usage aggregates (what GridView's Figure-6 dashboard shows).
struct UsageSummary {
  std::size_t node_count = 0;
  std::size_t alive_count = 0;
  double avg_cpu_pct = 0.0;
  double avg_mem_pct = 0.0;
  double avg_swap_pct = 0.0;
  std::size_t app_count = 0;
};

UsageSummary summarize(const std::vector<NodeRecord>& nodes,
                       const std::vector<AppRecord>& apps);

/// Merges `from` into `into` (weighted means; used when partition instances
/// aggregate locally and only summaries travel to the access point).
void merge_summary(UsageSummary& into, const UsageSummary& from);

struct DbQueryMsg final : net::Message {
  std::uint64_t request_id = 0;
  BulletinTable table = BulletinTable::kBoth;
  bool cluster_scope = true;  // false: this partition only
  /// Aggregation pushdown: every instance summarizes locally and only the
  /// UsageSummary travels back — constant-size replies at any cluster size.
  bool aggregate_only = false;
  BulletinFilter filter;
  net::Address reply_to;
  std::uint16_t attempt = 1;  // header-resident; excluded from wire_size()

  PHOENIX_MESSAGE_TYPE("db.query")
  std::size_t wire_size() const noexcept override {
    return 24 + filter.wire_bytes();
  }
};

/// Peer-to-peer leg of a cluster-scope query.
struct DbPartitionQueryMsg final : net::Message {
  std::uint64_t request_id = 0;
  BulletinTable table = BulletinTable::kBoth;
  bool aggregate_only = false;
  BulletinFilter filter;
  net::Address reply_to;

  PHOENIX_MESSAGE_TYPE("db.partition_query")
  std::size_t wire_size() const noexcept override {
    return 24 + filter.wire_bytes();
  }
};

struct DbQueryReplyMsg final : net::Message {
  std::uint64_t request_id = 0;
  std::vector<NodeRecord> node_rows;
  std::vector<AppRecord> app_rows;
  bool aggregated = false;
  UsageSummary summary;  // valid when aggregated
  std::uint32_t partitions_included = 1;

  PHOENIX_MESSAGE_TYPE("db.query_reply")
  std::size_t wire_size() const noexcept override {
    std::size_t n = 24 + node_rows.size() * NodeRecord::kWireBytes;
    for (const auto& a : app_rows) n += a.wire_bytes();
    if (aggregated) n += 48;
    return n;
  }
};

class DataBulletin final : public ServiceRuntime {
 public:
  DataBulletin(cluster::Cluster& cluster, net::NodeId node,
               net::PartitionId partition, const FtParams& params,
               ServiceDirectory* directory, double cpu_share = 0.0);

  net::PartitionId partition() const noexcept { return partition_; }

  /// How long a cluster-scope query waits for slow/dead peers.
  void set_query_timeout(sim::SimTime t) noexcept { query_timeout_ = t; }

  /// Rows not refreshed within this horizon are marked not-alive, and rows
  /// twice as old are evicted (a crashed node's detector stops reporting).
  /// 0 disables the sweep. Default: 6x the detector sampling interval.
  void set_staleness_horizon(sim::SimTime t);

  // --- local API ----------------------------------------------------------

  void report_local(const NodeRecord& record, std::vector<AppRecord> apps,
                    std::uint64_t seq = 0);

  /// Applies a detector delta; returns false (and counts a drop) when the
  /// node is unknown or the sequence chain is broken — the next full
  /// snapshot repairs the row.
  bool apply_delta(const DbDeltaMsg& delta);

  std::vector<NodeRecord> node_rows() const;
  std::vector<AppRecord> app_rows() const;
  std::vector<NodeRecord> node_rows(const BulletinFilter& filter) const;
  std::vector<AppRecord> app_rows(const BulletinFilter& filter) const;
  std::size_t node_row_count() const noexcept { return slots_.size(); }
  std::size_t app_row_count() const noexcept { return app_row_count_; }

  /// Deltas rejected because their base sequence no longer matched (lost
  /// report, detector restart, bulletin failover). Steady state: 0.
  std::uint64_t deltas_dropped() const noexcept { return deltas_dropped_; }

  /// Retransmitted queries dropped because the original fan-out is still in
  /// flight (its reply answers the retry too). Queries are reads, so they
  /// are not replay-cached — a later retry re-executes against fresh rows.
  std::uint64_t duplicate_queries() const noexcept { return duplicate_queries_; }

  /// One staleness sweep now (also runs periodically while started).
  void sweep_stale();

 private:
  void on_service_start() override;
  void on_service_stop() override;
  void handle_query(const DbQueryMsg& q);

  /// One contiguous storage slot: a node's gauge row, its app rows, and the
  /// detector sequence the pair reflects.
  struct NodeSlot {
    NodeRecord rec;
    std::vector<AppRecord> apps;
    std::uint64_t seq = 0;
  };

  NodeSlot* find_slot(net::NodeId node);

  /// The one-pass query core: walks the slots once, filtering node and app
  /// rows, either accumulating `summary` (aggregate pushdown) or appending
  /// matching rows to the output vectors (each row copied exactly once).
  void collect(const BulletinFilter& filter, BulletinTable table,
               bool aggregate_only, std::vector<NodeRecord>& nodes_out,
               std::vector<AppRecord>& apps_out, UsageSummary& summary) const;

  net::PartitionId partition_;
  const FtParams& params_;
  sim::SimTime query_timeout_ = 500 * sim::kMillisecond;
  sim::SimTime staleness_horizon_ = 0;  // set from params in constructor
  sim::PeriodicTask sweeper_;
  std::vector<NodeSlot> slots_;                           // contiguous rows
  std::unordered_map<std::uint32_t, std::uint32_t> index_;  // node id -> slot
  std::size_t app_row_count_ = 0;
  std::uint64_t deltas_dropped_ = 0;
  std::uint64_t duplicate_queries_ = 0;
  /// (reply_to, request_id) of every query whose fan-out is in flight.
  std::vector<std::pair<net::Address, std::uint64_t>> in_flight_;
};

}  // namespace phoenix::kernel
