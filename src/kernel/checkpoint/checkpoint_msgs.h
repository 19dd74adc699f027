// Checkpoint federation wire protocol (paper §4.2, §4.4).
//
// Split from checkpoint_service.h so layers below the service — notably
// kernel/runtime/service_runtime.h, whose generic recovery path issues
// CheckpointLoadMsg and CheckpointSaveMsg on behalf of every stateful
// service — can speak the protocol without depending on the service class
// itself (CheckpointService is built *on* the runtime).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/ids.h"
#include "net/message.h"

namespace phoenix::kernel {

/// The bytes of one saved checkpoint, immutable and shared: the save, the
/// store entry, its replicas and every load reply hold the same buffer, so
/// passing it on copies a pointer, not the state. An overwrite replaces the
/// store's buffer and leaves the ones already handed out untouched.
class CheckpointData {
 public:
  CheckpointData() = default;
  CheckpointData(std::string bytes)  // NOLINT(google-explicit-constructor)
      : bytes_(std::make_shared<const std::string>(std::move(bytes))) {}
  CheckpointData(const char* bytes)  // NOLINT(google-explicit-constructor)
      : CheckpointData(std::string(bytes)) {}

  const std::string& str() const noexcept {
    static const std::string kEmpty;
    return bytes_ ? *bytes_ : kEmpty;
  }
  std::size_t size() const noexcept { return bytes_ ? bytes_->size() : 0; }

  friend bool operator==(const CheckpointData& a, std::string_view b) noexcept {
    return a.str() == b;
  }

 private:
  std::shared_ptr<const std::string> bytes_;
};

struct CheckpointSaveMsg final : net::Message {
  std::string service;  // owning service, e.g. "es/3"
  std::string key;
  CheckpointData data;
  net::Address reply_to;
  std::uint64_t request_id = 0;
  std::uint16_t attempt = 1;  // header-resident; excluded from wire_size()
  /// Writer's meta-group epoch (fencing): a save stamped below the target's
  /// watermark is dropped, so a deposed GSD cannot clobber the view its
  /// successor checkpointed. 0 = unfenced (every service but the GSD, and
  /// the GSD itself under the paper's unilateral policy — wire unchanged).
  std::uint64_t epoch = 0;
  /// Ring scope the epoch belongs to (0 = the flat meta-group; zone rings
  /// fence independently under a zoned topology). Adds bytes only when set.
  std::uint32_t scope = 0;

  PHOENIX_MESSAGE_TYPE("ckpt.save")
  std::size_t wire_size() const noexcept override {
    return service.size() + key.size() + data.size() + 16 +
           (epoch != 0 ? 8 : 0) + (scope != 0 ? 4 : 0);
  }
};

struct CheckpointSaveReplyMsg final : net::Message {
  std::uint64_t request_id = 0;
  std::uint64_t version = 0;

  PHOENIX_MESSAGE_TYPE("ckpt.save_reply")
  std::size_t wire_size() const noexcept override { return 16; }
};

struct CheckpointReplicateMsg final : net::Message {
  std::string service;
  std::string key;
  CheckpointData data;
  std::uint64_t version = 0;
  bool deleted = false;

  PHOENIX_MESSAGE_TYPE("ckpt.replicate")
  std::size_t wire_size() const noexcept override {
    return service.size() + key.size() + data.size() + 17;
  }
};

struct CheckpointLoadMsg final : net::Message {
  std::string service;
  std::string key;
  net::Address reply_to;
  std::uint64_t request_id = 0;
  std::uint16_t attempt = 1;  // header-resident; excluded from wire_size()

  PHOENIX_MESSAGE_TYPE("ckpt.load")
  std::size_t wire_size() const noexcept override {
    return service.size() + key.size() + 16;
  }
};

struct CheckpointLoadReplyMsg final : net::Message {
  std::uint64_t request_id = 0;
  bool found = false;
  CheckpointData data;
  std::uint64_t version = 0;

  PHOENIX_MESSAGE_TYPE("ckpt.load_reply")
  std::size_t wire_size() const noexcept override { return data.size() + 25; }
};

/// Peer-to-peer fetch inside the federation (a load that missed locally).
struct CheckpointFetchMsg final : net::Message {
  std::string service;
  std::string key;
  net::Address reply_to;
  std::uint64_t request_id = 0;

  PHOENIX_MESSAGE_TYPE("ckpt.fetch")
  std::size_t wire_size() const noexcept override {
    return service.size() + key.size() + 16;
  }
};

struct CheckpointDeleteMsg final : net::Message {
  std::string service;
  std::string key;
  net::Address reply_to;
  std::uint64_t request_id = 0;

  PHOENIX_MESSAGE_TYPE("ckpt.delete")
  std::size_t wire_size() const noexcept override {
    return service.size() + key.size() + 16;
  }
};

struct CheckpointDeleteReplyMsg final : net::Message {
  std::uint64_t request_id = 0;
  bool existed = false;

  PHOENIX_MESSAGE_TYPE("ckpt.delete_reply")
  std::size_t wire_size() const noexcept override { return 9; }
};

/// Lists the keys a service has saved at this instance.
struct CheckpointListMsg final : net::Message {
  std::string service;
  net::Address reply_to;
  std::uint64_t request_id = 0;

  PHOENIX_MESSAGE_TYPE("ckpt.list")
  std::size_t wire_size() const noexcept override { return service.size() + 16; }
};

struct CheckpointListReplyMsg final : net::Message {
  std::uint64_t request_id = 0;
  std::vector<std::string> keys;

  PHOENIX_MESSAGE_TYPE("ckpt.list_reply")
  std::size_t wire_size() const noexcept override {
    std::size_t n = 16;
    for (const auto& k : keys) n += k.size() + 1;
    return n;
  }
};

/// Deletes a service's entire namespace ("deleting system state", §4.2).
struct CheckpointDeleteNamespaceMsg final : net::Message {
  std::string service;
  net::Address reply_to;
  std::uint64_t request_id = 0;

  PHOENIX_MESSAGE_TYPE("ckpt.delete_ns")
  std::size_t wire_size() const noexcept override { return service.size() + 16; }
};

struct CheckpointDeleteNamespaceReplyMsg final : net::Message {
  std::uint64_t request_id = 0;
  std::uint64_t removed = 0;

  PHOENIX_MESSAGE_TYPE("ckpt.delete_ns_reply")
  std::size_t wire_size() const noexcept override { return 16; }
};

}  // namespace phoenix::kernel
