// Event service (paper §4.2, §4.4): the kernel's communication channel.
//
// One instance per partition (server node); instances form a federation.
// Suppliers register the event types they produce; consumers register the
// types they are interested in, optionally with attribute filters. The
// consumer registry is replicated across the federation, so publishing at
// any instance notifies every matching consumer cluster-wide — the single
// service access point of §4.4. The registry is checkpointed on every
// change; a restarted or migrated instance retrieves it from the checkpoint
// service, so consumers keep receiving events without re-registering.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/daemon.h"
#include "kernel/checkpoint/checkpoint_msgs.h"
#include "kernel/event/event.h"
#include "kernel/runtime/service_runtime.h"
#include "kernel/ft_params.h"
#include "kernel/service_kind.h"
#include "kernel/service_msgs.h"
#include "net/message.h"

namespace phoenix::kernel {

struct EsSubscribeMsg final : net::Message {
  Subscription subscription;
  bool remove = false;

  PHOENIX_MESSAGE_TYPE("es.subscribe")
  std::size_t wire_size() const noexcept override {
    std::size_t n = 16;
    for (const auto& t : subscription.types) n += t.size() + 1;
    for (const auto& [k, v] : subscription.attr_filters) n += k.size() + v.size() + 2;
    return n;
  }
};

struct EsRegisterSupplierMsg final : net::Message {
  net::Address supplier;
  std::vector<std::string> types;
  bool remove = false;

  PHOENIX_MESSAGE_TYPE("es.register_supplier")
  std::size_t wire_size() const noexcept override {
    std::size_t n = 16;
    for (const auto& t : types) n += t.size() + 1;
    return n;
  }
};

struct EsPublishMsg final : net::Message {
  Event event;

  PHOENIX_MESSAGE_TYPE("es.publish")
  std::size_t wire_size() const noexcept override { return event.wire_bytes(); }
};

struct EsNotifyMsg final : net::Message {
  Event event;

  PHOENIX_MESSAGE_TYPE("es.notify")
  std::size_t wire_size() const noexcept override { return event.wire_bytes(); }
};

/// A late subscriber asking for this instance's recent event history:
/// every buffered event matching `subscription` with seq > `after_seq` is
/// re-notified to the subscription's consumer (at-least-once; consumers
/// dedup by (origin_es, seq)).
struct EsReplayMsg final : net::Message {
  Subscription subscription;
  std::uint64_t after_seq = 0;

  PHOENIX_MESSAGE_TYPE("es.replay")
  std::size_t wire_size() const noexcept override {
    std::size_t n = 24;
    for (const auto& t : subscription.types) n += t.size() + 1;
    return n;
  }
};

/// Federation replication of one registry change.
struct EsSyncMsg final : net::Message {
  Subscription subscription;
  bool remove = false;

  PHOENIX_MESSAGE_TYPE("es.sync")
  std::size_t wire_size() const noexcept override {
    std::size_t n = 17;
    for (const auto& t : subscription.types) n += t.size() + 1;
    for (const auto& [k, v] : subscription.attr_filters) n += k.size() + v.size() + 2;
    return n;
  }
};

class EventService final : public ServiceRuntime {
 public:
  EventService(cluster::Cluster& cluster, net::NodeId node,
               net::PartitionId partition, const FtParams& params,
               ServiceDirectory* directory, double cpu_share = 0.0);

  net::PartitionId partition() const noexcept { return partition_; }

  // --- local API ----------------------------------------------------------

  void subscribe_local(Subscription sub, bool replicate = true);
  void unsubscribe_local(const net::Address& consumer, bool replicate = true);

  /// Assigns identity and fans the event out to matching consumers.
  void publish_local(Event event);

  std::size_t subscription_count() const noexcept { return subscriptions_.size(); }
  std::uint64_t published_count() const noexcept { return next_seq_ - 1; }

  /// Recent-event retention (per instance). 0 disables history/replay.
  void set_history_limit(std::size_t n);
  std::size_t history_size() const noexcept { return history_.size(); }

  /// Registry serialization (used for checkpointing; exposed for tests).
  std::string serialize_registry() const;
  void restore_registry(const std::string& data);

 private:
  /// Runtime lifecycle: the consumer registry is the checkpointed state.
  CheckpointData snapshot() const override { return serialize_registry(); }
  void restore(const std::string& data) override { restore_registry(data); }

  // --- publish fan-out index ----------------------------------------------
  // publish_local used to scan every subscription per event. The index
  // splits consumers into (a) exact-type buckets — consulted with one hash
  // lookup on the published type — and (b) a small scan list for
  // subscriptions that need pattern evaluation ("*", "prefix.*", or an
  // empty type list meaning match-all). A consumer lives in exactly one of
  // the two structures, so no per-publish dedup is needed. Candidates still
  // go through Subscription::matches, preserving attribute-filter semantics
  // exactly; the index only prunes type mismatches.
  void index_insert(const Subscription& sub);
  void index_erase(const net::Address& consumer);
  void rebuild_index();
  void store_subscription(Subscription sub);
  bool drop_subscription(const net::Address& consumer);

  net::PartitionId partition_;
  std::unordered_map<net::Address, Subscription> subscriptions_;
  std::unordered_map<std::string, std::vector<net::Address>> exact_index_;
  std::vector<net::Address> pattern_subs_;
  std::unordered_map<net::Address, std::vector<std::string>> suppliers_;
  std::deque<Event> history_;
  std::size_t history_limit_ = 512;
  std::uint64_t next_seq_ = 1;
};

}  // namespace phoenix::kernel
