#include "kernel/runtime/service_runtime.h"

#include <algorithm>

namespace phoenix::kernel {

ServiceRuntime::ServiceRuntime(cluster::Cluster& cluster, std::string name,
                               net::NodeId node, net::PortId port,
                               ServiceDirectory* directory,
                               const FtParams* params, Options opts,
                               double cpu_share)
    : cluster::Daemon(cluster, std::move(name), node, port, cpu_share),
      directory_(directory),
      params_(params),
      opts_(std::move(opts)),
      rpc_(*this),
      metrics_(&cluster.metrics()),
      spans_(&cluster.span_store()) {
  // Every runtime understands the fencing broadcast; under the unilateral
  // policy the message simply never arrives.
  on<EpochFenceMsg>([this](const EpochFenceMsg& fence) {
    raise_epoch_watermark(fence.epoch, fence.scope);
  });
  if (opts_.recover_on_start) {
    // The recovery loop is the only handler the runtime registers itself; a
    // service that needs CheckpointLoadReplyMsg for its own protocol (the
    // checkpoint federation, the GSD view fetch) keeps recover_on_start off
    // and owns the type.
    on<CheckpointLoadReplyMsg>([this](const CheckpointLoadReplyMsg& reply) {
      on_recovery_reply(reply);
    });
  }
}

ServiceRuntime::~ServiceRuntime() = default;

std::uint64_t ServiceRuntime::witnessed_epoch(std::uint32_t scope) const noexcept {
  if (scope == 0) return witnessed_epoch_;
  auto it = scoped_epochs_.find(scope);
  return it == scoped_epochs_.end() ? 0 : it->second;
}

bool ServiceRuntime::admit_epoch(std::uint64_t epoch, std::uint32_t scope) {
  if (epoch == 0) return true;  // legacy / unfenced traffic
  if (epoch >= witnessed_epoch(scope)) return true;
  ++counters_.fenced_rejections;
  return false;
}

void ServiceRuntime::raise_epoch_watermark(std::uint64_t epoch,
                                           std::uint32_t scope) {
  if (scope == 0) {
    if (epoch > witnessed_epoch_) witnessed_epoch_ = epoch;
    return;
  }
  auto& watermark = scoped_epochs_[scope];
  if (epoch > watermark) watermark = epoch;
}

void ServiceRuntime::handle(const net::Envelope& env) {
  const net::MessageTypeId id = env.message->type_id();
  ++counters_.messages_received;
  counters_.messages_by_type.slot(id) += 1;
  if (spans_->enabled() || metrics_->enabled()) {
    handle_observed(env, id);
    return;
  }
  dispatch(env, id);
}

bool ServiceRuntime::dispatch(const net::Envelope& env, net::MessageTypeId id) {
  if (id.value < table_.size() && table_[id.value]) {
    table_[id.value](env);
    return true;
  }
  if (rpc_.deliver(env)) return true;
  ++counters_.messages_unhandled;
  return false;
}

void ServiceRuntime::handle_observed(const net::Envelope& env,
                                     net::MessageTypeId id) {
  if (metrics_->enabled()) {
    // Transport + queue latency, measurable only for envelopes that came
    // through a traced fabric delivery (the ambient frame carries the wire
    // send time); direct test deliveries have no frame and are skipped.
    const sim::SimTime sent_at = obs::current_delivery_sent_at();
    if (sent_at != 0) {
      if (serve_latency_ == nullptr) {
        serve_latency_ = metrics_->histogram("svc." + name() +
                                             ".serve_latency_us");
      }
      serve_latency_->record(now() - sent_at);
    }
  }
  const obs::TraceContext ctx = obs::current_context();
  if (spans_->enabled() && ctx.active()) {
    const std::uint64_t span_id = spans_->mint_id();
    const sim::SimTime started = now();
    serve_outcome_ = nullptr;
    bool handled = false;
    {
      // Handlers (and their replies) parent to this serve span; a dedup hit
      // in serve_mutating reports itself through serve_outcome_.
      obs::ContextScope scope(obs::TraceContext{ctx.trace_id, span_id});
      handled = dispatch(env, id);
    }
    const char* outcome = serve_outcome_ != nullptr ? serve_outcome_
                          : handled                 ? "handled"
                                                    : "unhandled";
    serve_outcome_ = nullptr;
    spans_->record(obs::Span{ctx.trace_id, span_id, ctx.parent_span_id, started,
                             now(), name(),
                             "serve:" + std::string(env.message->type()),
                             outcome});
    return;
  }
  dispatch(env, id);
}

void ServiceRuntime::on_start() {
  rpc_.drop_all();  // whatever the dead process waited on died with it
  if (pending_takeover_) {
    pending_takeover_ = false;
    ++counters_.takeovers;
    // A takeover means a server died and this instance is its failover
    // replacement — operator-grade, hence kError. It also roots a fresh
    // trace: the recovery work it triggers has no client call above it.
    trace(sim::TraceLevel::kError, "takeover: starting as failover replacement");
    if (spans_->enabled()) {
      const std::uint64_t trace_id = spans_->mint_id();
      spans_->record(obs::Span{trace_id, spans_->mint_id(), 0, now(), now(),
                               name(), "takeover", "takeover"});
    }
    on_takeover();
  }
  on_service_start();
  if (directory_ == nullptr) return;
  if (opts_.recover_on_start && !opts_.checkpoint_namespace.empty() &&
      params_ != nullptr) {
    recovery_attempts_left_ = kRecoveryAttempts;
    attempt_recovery_load();
  } else if (opts_.announce_up) {
    announce_up();
  }
}

void ServiceRuntime::on_stop() { on_service_stop(); }

void ServiceRuntime::announce_up() {
  if (directory_ == nullptr) return;
  auto up = std::make_shared<ServiceUpMsg>();
  up->kind = opts_.kind;
  up->extension = opts_.extension;
  up->partition = opts_.partition;
  up->service = address();
  send_any(partition_service(ServiceKind::kGroupService), std::move(up));
}

void ServiceRuntime::save_state() {
  if (directory_ == nullptr || opts_.checkpoint_namespace.empty()) return;
  auto save = std::make_shared<CheckpointSaveMsg>();
  save->service = opts_.checkpoint_namespace;
  save->key = opts_.checkpoint_key;
  save->data = snapshot();
  save->epoch = fence_epoch();
  save->scope = fence_scope();
  ++counters_.snapshots_saved;
  last_save_time_ = now();
  ever_saved_ = true;
  dirty_ = false;
  send_any(partition_service(ServiceKind::kCheckpointService), std::move(save));
}

void ServiceRuntime::mark_dirty(sim::SimTime window) {
  if (directory_ == nullptr || opts_.checkpoint_namespace.empty()) return;
  if (!ever_saved_ || now() - last_save_time_ >= std::max<sim::SimTime>(window, 1)) {
    // Leading edge: a change after a quiet stretch checkpoints immediately
    // (identical wire behaviour to save-on-every-change when changes are
    // further apart than the window, which is the steady-state case).
    save_state();
    return;
  }
  // Saved recently; fold further changes into one trailing flush at the end
  // of the window (the end of the tick for window 0).
  dirty_ = true;
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  engine().schedule_after(last_save_time_ + window - now(), [this] {
    flush_scheduled_ = false;
    if (dirty_ && alive()) save_state();
  });
}

void ServiceRuntime::attempt_recovery_load() {
  if (!alive()) return;
  if (recovery_attempts_left_ <= 0) {
    // Give up: come up empty-handed rather than never.
    recovery_load_id_ = 0;
    if (opts_.announce_up) announce_up();
    return;
  }
  --recovery_attempts_left_;
  recovery_load_id_ = engine().rng().next() | 1;  // never 0
  auto load = std::make_shared<CheckpointLoadMsg>();
  load->service = opts_.checkpoint_namespace;
  load->key = opts_.checkpoint_key;
  load->reply_to = address();
  load->request_id = recovery_load_id_;
  send_any(partition_service(ServiceKind::kCheckpointService), std::move(load));
  const std::uint64_t this_try = recovery_load_id_;
  engine().schedule_after(
      2 * sim::kSecond + params_->checkpoint_federation_fetch, [this, this_try] {
        if (recovery_load_id_ == this_try) attempt_recovery_load();
      });
}

void ServiceRuntime::on_recovery_reply(const CheckpointLoadReplyMsg& reply) {
  if (recovery_load_id_ == 0 || reply.request_id != recovery_load_id_) return;
  recovery_load_id_ = 0;
  if (reply.found) {
    restore(reply.data.str());
    ++counters_.restores;
  }
  if (opts_.announce_up) announce_up();
  // Re-seed the checkpoint immediately: a fresh instance on a new node must
  // not depend on the old node's federation entry staying reachable.
  save_state();
}

}  // namespace phoenix::kernel
