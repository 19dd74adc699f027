// RpcClient — the client half of every request/reply exchange a daemon
// starts (DESIGN.md §9): point-to-point calls and fan-out gathers.
//
// The owning daemon hands the client every envelope it receives (deliver()).
// A call mints the request id, stamps it (and the attempt ordinal, where the
// request has one) into the request and sends it from the owner's address,
// so the request's reply_to stays the owner's and no wire byte changes; a
// request type with `static constexpr bool kEveryNetwork = true` (the PPM
// liveness probe) goes out on every network instead of the first usable
// one. The client then runs the call's timer: attempt n waits the call's
// fixed CallOptions::rto, or else net::RetryPolicy's rto_for(n) jittered
// only on retries, capped at the call's deadline, then retransmits or fails.
// Replies match on their request_id. Every call completes exactly once with
// a net::Result; the client keeps the call/attempt spans, the latency
// histogram and the per-status counters. A timer that fires while the owner
// is dead fails its call without sending and without drawing jitter.
//
// A gather sends several requests under one id, never resends, and ends
// when every request on the wire has been answered, when its reply handler
// says so, or at its deadline.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/daemon.h"
#include "net/message.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"

namespace phoenix::cluster {

class RpcClient {
 public:
  using Status = net::Status;

  /// Where one attempt goes. An attempt sent elsewhere than the previous one
  /// (the first: than `home`, the preferred target) counts as a reroute.
  struct Route {
    net::Address target;
    net::Address home;
  };
  /// Re-evaluated before every attempt (directory re-resolution, failover).
  using Router = std::function<Route()>;

  explicit RpcClient(Daemon& owner) : owner_(owner) {}
  ~RpcClient();
  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Default retry budget of every call, and backoff schedule of every
  /// call without a fixed CallOptions::rto.
  net::RetryPolicy& policy() noexcept { return policy_; }
  const net::RetryPolicy& policy() const noexcept { return policy_; }

  /// Deadline of calls whose CallOptions::deadline is 0.
  static constexpr sim::SimTime kDefaultDeadline = 10 * sim::kSecond;

  /// Next id of the owner's request-id space. Requests the owner sends
  /// without waiting for a reply draw from it too, so no two of its requests
  /// share an id at a server's replay cache.
  std::uint64_t mint_id() noexcept { return next_id_++; }

  /// Sends `request` and completes `done(net::Result<const Reply*>)` with the
  /// reply (valid during the callback) or the failure status.
  template <typename Reply, typename Req, typename Done>
  void call(std::shared_ptr<Req> request, Router route, Done&& done,
            net::CallOptions opts = {}, const char* op = "call") {
    static_assert(std::is_final_v<Reply>, "replies match by exact type id");
    const std::uint64_t id = mint_id();
    request->request_id = id;
    Call c;
    if constexpr (requires { request->attempt; }) c.attempt_field = &request->attempt;
    if constexpr (requires { Req::kEveryNetwork; }) {
      c.every_network = Req::kEveryNetwork;
    }
    c.reply_type = expect_reply<Reply>();
    c.request = std::move(request);
    c.route = std::move(route);
    c.done = [done = std::forward<Done>(done)](Status s, const net::Message* m) {
      using R = net::Result<const Reply*>;
      done(s == Status::kOk ? R::success(static_cast<const Reply*>(m)) : R::failure(s));
    };
    launch(id, std::move(c), opts, op);
  }

  /// Same, to a fixed address.
  template <typename Reply, typename Req, typename Done>
  void call(std::shared_ptr<Req> request, net::Address to, Done&& done,
            net::CallOptions opts = {}, const char* op = "call") {
    call<Reply>(std::move(request), Router([to] { return Route{to, to}; }),
                std::forward<Done>(done), opts, op);
  }

  /// Fan-out gather: sends each (address, request) pair under one minted id
  /// and passes every reply, with its envelope, to `on_reply(const Reply&,
  /// const net::Envelope&)`; returning true ends the gather, and `done` then
  /// never runs. Otherwise `done()` runs once: when every request that went
  /// on the wire has been answered (at once if none went), or at `deadline`.
  /// A gather never resends and never draws randomness.
  template <typename Reply, typename Req, typename OnReply, typename Done>
  void gather(
      const std::vector<std::pair<net::Address, std::shared_ptr<Req>>>& requests,
      sim::SimTime deadline, OnReply&& on_reply, Done&& done) {
    static_assert(std::is_final_v<Reply>, "replies match by exact type id");
    const std::uint64_t id = mint_id();
    Call c;
    for (const auto& [to, request] : requests) {
      request->request_id = id;
      if (owner_.send_any(to, request).valid()) ++c.awaiting;
    }
    if (c.awaiting == 0) {
      done();
      return;
    }
    c.reply_type = expect_reply<Reply>();
    c.on_reply = [fn = std::forward<OnReply>(on_reply)](const net::Envelope& env) {
      return fn(static_cast<const Reply&>(*env.message), env);
    };
    c.done = [done = std::forward<Done>(done)](Status, const net::Message*) { done(); };
    c.issued_at = owner_.now();
    c.deadline_at = c.issued_at + deadline;
    c.timer = owner_.engine().schedule_at(c.deadline_at, [this, id] { on_timer(id); });
    calls_.emplace(id, std::move(c));
  }

  /// One-way request: completes kOk once an attempt is on the wire, so it is
  /// never sent twice; attempts repeat only while none could be transmitted.
  void send(std::shared_ptr<const net::Message> request, Router route,
            std::function<void(Status)> done, net::CallOptions opts = {},
            const char* op = "send");

  /// Completes the pending call (or feeds the gather) the envelope's reply
  /// answers. False when it is not a reply type this client waits on; one
  /// that matches no pending call is counted as a duplicate.
  bool deliver(const net::Envelope& env);

  /// Forgets every pending call without completing it (the owner restarted:
  /// the process that waited is gone).
  void drop_all();

  std::size_t pending_calls() const noexcept { return calls_.size(); }
  std::uint64_t completed_ok() const noexcept { return completed_ok_; }
  std::uint64_t retries_sent() const noexcept { return retries_; }
  std::uint64_t reroutes() const noexcept { return reroutes_; }
  std::uint64_t timed_out_calls() const noexcept { return timeouts_; }
  std::uint64_t exhausted_calls() const noexcept { return exhausted_; }
  std::uint64_t unreachable_calls() const noexcept { return unreachable_; }
  std::uint64_t duplicate_replies() const noexcept { return duplicate_replies_; }

 private:
  struct Call {
    std::shared_ptr<const net::Message> request;
    std::uint16_t* attempt_field = nullptr;  // request's attempt ordinal slot
    bool every_network = false;              // each attempt on every network
    Router route;
    std::function<void(Status, const net::Message*)> done;
    /// Set for a gather: takes each reply, returns true to end the gather.
    std::function<bool(const net::Envelope&)> on_reply;
    std::size_t awaiting = 0;       // a gather's requests still unanswered
    net::MessageTypeId reply_type;  // invalid for one-way calls
    bool one_way = false;           // completes kOk at transmit time
    net::CallOptions opts;          // resolved (no inherit markers left)
    sim::SimTime issued_at = 0;
    sim::SimTime deadline_at = 0;
    int attempt = 0;           // attempts started (1 = first send)
    bool transmitted = false;  // at least one attempt reached the fabric
    net::Address last_target;
    sim::EventId timer{};
    const char* op = "";  // span name suffix, e.g. "config_set"
    /// When tracing: trace id plus the root ("call:") span's own id, which
    /// parents every attempt span and every downstream hop.
    obs::TraceContext ctx;
  };
  using Calls = std::unordered_map<std::uint64_t, Call>;

  /// Lets deliver() read Reply's request_id; returns Reply's type id.
  template <typename Reply>
  net::MessageTypeId expect_reply() {
    const net::MessageTypeId type = Reply::static_type_id();
    if (type.value >= reply_ids_.size()) reply_ids_.resize(type.value + std::size_t{1});
    reply_ids_[type.value] = [](const net::Message& m) {
      return static_cast<const Reply&>(m).request_id;
    };
    return type;
  }

  void launch(std::uint64_t id, Call call, net::CallOptions opts, const char* op);
  void start_attempt(std::uint64_t id);
  void on_timer(std::uint64_t id);
  void fail(Calls::iterator it, Status status);
  /// Removes the call, cancels its timer, records its span and latency.
  Call finish(Calls::iterator it, std::string_view outcome);

  Daemon& owner_;
  net::RetryPolicy policy_;
  Calls calls_;
  std::vector<std::uint64_t (*)(const net::Message&)> reply_ids_;  // by type id
  obs::Histogram* latency_ = nullptr;  // "<owner>.call_latency_us", on first use
  std::uint64_t next_id_ = 1;
  std::uint64_t completed_ok_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t reroutes_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t exhausted_ = 0;
  std::uint64_t unreachable_ = 0;
  std::uint64_t duplicate_replies_ = 0;
};

}  // namespace phoenix::cluster
