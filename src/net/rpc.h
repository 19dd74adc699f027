// Resilient RPC substrate (DESIGN.md §9).
//
// The kernel's client plane (KernelApi) promises "uniformed semantics", but
// the fabric underneath is a lossy datagram network and service instances
// migrate between nodes during recovery. This header supplies the three
// building blocks that close the gap, in the MSCS re-binding / transparent
// retry tradition:
//
//   - Result<T> / Status: every call completes exactly once with a typed
//     payload plus a status a caller can branch on — "the service said no"
//     (kDenied) is distinguishable from "nothing answered in time"
//     (kTimeout), "no network path ever existed" (kUnreachable), and "the
//     retry budget ran out first" (kRetriesExhausted).
//   - CallOptions / RetryPolicy: per-call deadline and retry budget, with
//     exponential backoff between attempts and optional jitter (drawn only
//     when a retry actually happens, so fault-free runs consume no
//     randomness and stay bit-identical), or a fixed per-call wait.
//   - ReplayCache: the server half of at-most-once execution. Mutating
//     handlers register each (client, request-type, request-id) before
//     executing and cache the reply; a retransmitted request is answered
//     from the cache instead of being applied twice.
//
// Requests carry a small `attempt` ordinal for diagnostics. It rides inside
// the fixed wire header (net::kWireHeaderBytes), so no wire_size() formula
// changes and simulated latencies are unaffected.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "net/ids.h"
#include "net/message.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace phoenix::net {

/// How a call completed. kOk is the only success.
enum class Status : std::uint8_t {
  kOk,                // reply received, request granted
  kTimeout,           // deadline expired with at least one attempt on the wire
  kDenied,            // the service answered and refused
  kUnreachable,       // no attempt could be transmitted (no path / node dead)
  kRetriesExhausted,  // retry budget spent before the deadline
};

std::string_view to_string(Status s) noexcept;

/// Completion value of an RPC: a status plus a payload (default-constructed
/// unless status == kOk, except where a method documents otherwise).
template <typename T>
struct Result {
  Status status = Status::kUnreachable;
  T value{};

  bool ok() const noexcept { return status == Status::kOk; }
  explicit operator bool() const noexcept { return ok(); }

  static Result success(T v) { return Result{Status::kOk, std::move(v)}; }
  static Result failure(Status s) { return Result{s, T{}}; }
};

/// Per-call knobs, all defaulted. Zero/negative fields inherit the client's
/// defaults at issue time.
struct CallOptions {
  /// Absolute budget for the whole call, retries included. 0 = inherit.
  sim::SimTime deadline = 0;
  /// Retransmissions allowed after the first attempt. -1 = inherit;
  /// 0 = one-shot (for a request the server gives no at-most-once
  /// guarantee for).
  int max_retries = -1;
  /// Fixed wait for a reply after every attempt, never jittered, so the
  /// attempts go out at t, t + rto, t + 2·rto, ... 0 = the client's
  /// RetryPolicy backoff.
  sim::SimTime rto = 0;
};

/// Exponential backoff schedule: attempt n (1-based) waits
/// min(initial_rto * multiplier^(n-1), max_rto) for a reply before
/// retransmitting, with +/- jitter_frac applied from the second attempt on.
struct RetryPolicy {
  sim::SimTime initial_rto = 2 * sim::kSecond;
  double multiplier = 2.0;
  sim::SimTime max_rto = 8 * sim::kSecond;
  /// Fractional jitter on retry waits; 0 gives a deterministic schedule.
  double jitter_frac = 0.1;
  /// Retry budget used when CallOptions::max_retries is -1.
  int default_max_retries = 4;

  /// The un-jittered wait after attempt `attempt` (1-based).
  sim::SimTime rto_for(int attempt) const noexcept;

  /// Applies +/- jitter_frac to `rto` (one uniform draw; call only on
  /// retries so fault-free runs draw nothing).
  sim::SimTime jittered(sim::SimTime rto, sim::Rng& rng) const;
};

/// Server-side at-most-once filter. A mutating handler calls begin() before
/// executing; kNew means execute and complete() with the reply, kReplay
/// means resend the cached reply verbatim, kInFlight means drop the
/// duplicate (the original execution's reply will serve it — used by
/// asynchronous handlers such as parallel commands).
///
/// Keys are (client address, request type, request id): a client never
/// reuses a request id across retries of different operations, and the type
/// component keeps two services' id spaces from colliding in shared caches.
/// Requests with id 0 or an invalid client address bypass the cache.
///
/// Eviction is FIFO at `capacity` entries — old enough that any plausible
/// retransmission window has long closed (a retry after eviction would
/// re-execute, which is the pre-cache behaviour).
class ReplayCache {
 public:
  enum class Admit : std::uint8_t { kNew, kInFlight, kReplay };

  explicit ReplayCache(std::size_t capacity = 256) : capacity_(capacity) {}

  /// Admission check; on kReplay, *replay (if non-null) receives the cached
  /// reply to retransmit.
  Admit begin(const Address& client, MessageTypeId type, std::uint64_t request_id,
              std::shared_ptr<const Message>* replay = nullptr);

  /// Stores the reply for an entry begin() admitted as kNew. No-op for
  /// untracked or already-evicted entries.
  void complete(const Address& client, MessageTypeId type,
                std::uint64_t request_id, std::shared_ptr<const Message> reply);

  std::uint64_t replays_served() const noexcept { return replays_; }
  std::uint64_t duplicates_suppressed() const noexcept { return in_flight_hits_; }
  std::size_t size() const noexcept { return entries_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Key {
    Address client;
    MessageTypeId type;
    std::uint64_t request_id = 0;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::size_t h = std::hash<Address>{}(k.client);
      h ^= (static_cast<std::size_t>(k.type.value) + 0x9e3779b9u) + (h << 6) + (h >> 2);
      h ^= static_cast<std::size_t>(k.request_id) + 0x9e3779b9u + (h << 6) + (h >> 2);
      return h;
    }
  };
  struct Entry {
    std::shared_ptr<const Message> reply;  // null while the request executes
  };

  std::size_t capacity_;
  std::unordered_map<Key, Entry, KeyHash> entries_;
  std::deque<Key> order_;  // insertion order, for FIFO eviction
  std::uint64_t replays_ = 0;
  std::uint64_t in_flight_hits_ = 0;
};

}  // namespace phoenix::net
