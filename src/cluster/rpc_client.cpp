#include "cluster/rpc_client.h"

#include <algorithm>
#include <optional>
#include <string>

#include "obs/span_store.h"

namespace phoenix::cluster {

RpcClient::~RpcClient() { drop_all(); }

void RpcClient::send(std::shared_ptr<const net::Message> request, Router route,
                     std::function<void(Status)> done, net::CallOptions opts,
                     const char* op) {
  Call c;
  c.request = std::move(request);
  c.route = std::move(route);
  c.one_way = true;
  c.done = [done = std::move(done)](Status s, const net::Message*) {
    if (done) done(s);
  };
  launch(mint_id(), std::move(c), opts, op);
}

void RpcClient::launch(std::uint64_t id, Call call, net::CallOptions opts,
                       const char* op) {
  if (opts.deadline == 0) opts.deadline = kDefaultDeadline;
  if (opts.max_retries < 0) opts.max_retries = policy_.default_max_retries;
  call.opts = opts;
  call.op = op;
  call.issued_at = owner_.now();
  call.deadline_at = call.issued_at + opts.deadline;
  obs::SpanStore& spans = owner_.cluster().span_store();
  if (spans.enabled()) {
    // Root the call's trace here: the ctx's "parent" slot holds the root
    // span's own id, so attempts (and everything under them) link to it.
    call.ctx.trace_id = spans.mint_id();
    call.ctx.parent_span_id = spans.mint_id();
  }
  calls_.emplace(id, std::move(call));
  start_attempt(id);
}

void RpcClient::start_attempt(std::uint64_t id) {
  auto it = calls_.find(id);
  if (it == calls_.end()) return;
  Call& c = it->second;
  ++c.attempt;
  if (c.attempt_field != nullptr) {
    *c.attempt_field = static_cast<std::uint16_t>(c.attempt);
  }

  const Route route = c.route();
  const bool rerouted = route.target != (c.attempt == 1 ? route.home : c.last_target);
  if (rerouted) {
    ++reroutes_;
    owner_.trace(sim::TraceLevel::kInfo,
                 "reroute call=" + std::to_string(id) +
                     " node=" + std::to_string(route.target.node.value));
  }
  c.last_target = route.target;
  if (c.attempt > 1) {
    ++retries_;
    owner_.trace(sim::TraceLevel::kInfo, "retry call=" + std::to_string(id) +
                                             " attempt=" + std::to_string(c.attempt));
  }

  // Under tracing each attempt gets its own span (child of the call root),
  // and the send runs inside its ContextScope so the fabric parents the
  // wire hop — and, through it, the server-side serve span — to this
  // attempt. The outcome distinguishes plain sends from retries/reroutes.
  obs::SpanStore& spans = owner_.cluster().span_store();
  std::uint64_t attempt_span = 0;
  std::optional<obs::ContextScope> scope;
  if (c.ctx.active()) {
    attempt_span = spans.mint_id();
    scope.emplace(obs::TraceContext{c.ctx.trace_id, attempt_span});
  }
  const bool sent =
      route.target.valid() &&
      (c.every_network ? owner_.send_all_networks(route.target, c.request) > 0
                       : owner_.send_any(route.target, c.request).valid());
  scope.reset();
  if (c.ctx.active()) {
    const char* outcome = !sent           ? "send_failed"
                          : rerouted      ? "reroute"
                          : c.attempt > 1 ? "retry"
                                          : "send";
    spans.record(obs::Span{c.ctx.trace_id, attempt_span, c.ctx.parent_span_id,
                           owner_.now(), owner_.now(), owner_.name(),
                           "attempt:" + std::to_string(c.attempt), outcome});
  }
  if (sent) c.transmitted = true;

  if (c.one_way && sent) {
    // No reply will come; on the wire is as good as done. Not re-armed, so
    // a one-way is never duplicated by the retry machinery.
    ++completed_ok_;
    finish(it, "ok").done(Status::kOk, nullptr);
    return;
  }

  // Jitter is drawn only when a backoff retry actually happens, so
  // fault-free runs consume no randomness.
  sim::SimTime wait = c.opts.rto;
  if (wait == 0) {
    wait = policy_.rto_for(c.attempt);
    if (c.attempt > 1 && policy_.jitter_frac > 0.0) {
      wait = policy_.jittered(wait, owner_.engine().rng());
    }
  }
  const sim::SimTime fire_at = std::min(owner_.now() + wait, c.deadline_at);
  c.timer = owner_.engine().schedule_at(fire_at, [this, id] { on_timer(id); });
}

void RpcClient::on_timer(std::uint64_t id) {
  auto it = calls_.find(id);
  if (it == calls_.end()) return;
  const Call& c = it->second;
  if (c.on_reply) {
    finish(it, "deadline").done(Status::kTimeout, nullptr);
  } else if (!owner_.alive() || owner_.now() >= c.deadline_at) {
    fail(it, c.transmitted ? Status::kTimeout : Status::kUnreachable);
  } else if (c.attempt > c.opts.max_retries) {
    fail(it, c.transmitted ? Status::kRetriesExhausted : Status::kUnreachable);
  } else {
    start_attempt(id);
  }
}

RpcClient::Call RpcClient::finish(Calls::iterator it, std::string_view outcome) {
  Call c = std::move(it->second);
  calls_.erase(it);
  owner_.engine().cancel(c.timer);
  if (c.ctx.active()) {
    owner_.cluster().span_store().record(
        obs::Span{c.ctx.trace_id, c.ctx.parent_span_id, 0, c.issued_at, owner_.now(),
                  owner_.name(), std::string("call:") + c.op, std::string(outcome)});
  }
  obs::Registry& metrics = owner_.cluster().metrics();
  if (metrics.enabled()) {
    if (latency_ == nullptr) {
      latency_ = metrics.histogram(owner_.name() + ".call_latency_us");
    }
    latency_->record(owner_.now() - c.issued_at);
  }
  return c;
}

void RpcClient::fail(Calls::iterator it, Status status) {
  switch (status) {
    case Status::kTimeout: ++timeouts_; break;
    case Status::kRetriesExhausted: ++exhausted_; break;
    case Status::kUnreachable: ++unreachable_; break;
    default: break;
  }
  // A call that burned its whole retry budget is an operator-grade event:
  // every path to the service failed repeatedly.
  owner_.trace(status == Status::kRetriesExhausted ? sim::TraceLevel::kError
                                                   : sim::TraceLevel::kWarn,
               "call " + std::to_string(it->first) +
                   " failed: " + std::string(net::to_string(status)));
  finish(it, net::to_string(status)).done(status, nullptr);
}

bool RpcClient::deliver(const net::Envelope& env) {
  const net::Message& reply = *env.message;
  const net::MessageTypeId type = reply.type_id();
  if (type.value >= reply_ids_.size() || reply_ids_[type.value] == nullptr) {
    return false;
  }
  auto it = calls_.find(reply_ids_[type.value](reply));
  if (it == calls_.end() || it->second.reply_type != type) {
    ++duplicate_replies_;  // original answer won, or the call already failed
    obs::SpanStore& spans = owner_.cluster().span_store();
    const obs::TraceContext ctx = obs::current_context();
    if (spans.enabled() && ctx.active()) {
      spans.record(obs::Span{ctx.trace_id, spans.mint_id(), ctx.parent_span_id,
                             owner_.now(), owner_.now(), owner_.name(),
                             "duplicate_reply", "suppressed"});
    }
    return true;
  }
  if (!it->second.on_reply) {
    ++completed_ok_;
    finish(it, "ok").done(Status::kOk, &reply);
    return true;
  }
  const std::uint64_t id = it->first;
  const bool ended = it->second.on_reply(env);
  it = calls_.find(id);  // on_reply may have started calls of its own
  if (it == calls_.end()) return true;
  if (ended) {
    finish(it, "ended");
  } else if (--it->second.awaiting == 0) {
    finish(it, "ok").done(Status::kOk, nullptr);
  }
  return true;
}

void RpcClient::drop_all() {
  for (auto& [id, c] : calls_) owner_.engine().cancel(c.timer);
  calls_.clear();
}

}  // namespace phoenix::cluster
