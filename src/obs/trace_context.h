// Causal trace context propagation.
//
// A TraceContext names the trace a piece of work belongs to and the span
// that should parent whatever the current code records or sends. It is
// propagated *ambiently* through a thread-local frame rather than through
// message envelopes: the fabric captures the sender's ambient context when
// tracing is enabled, and re-establishes it (rooted at the wire-hop span)
// around the delivery callback on the receiving side. This keeps Envelope
// — and with it the fabric's small-buffer-optimized delivery closures —
// exactly the size it was before tracing existed; the traced path pays for
// its fatter closures, the untraced path pays one branch.
//
// Thread-local means each thread that runs a simulation carries its own
// frame, so independent trials on worker threads (sim::run_parallel_trials)
// never see each other's context.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace phoenix::obs {

/// Identifies the enclosing trace and the span that parents new work.
/// trace_id 0 = no active trace.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;

  bool active() const noexcept { return trace_id != 0; }
};

namespace detail {
struct AmbientFrame {
  TraceContext ctx;
  /// When the frame was established by a message delivery: the sim time the
  /// message was put on the wire (0 = not a delivery frame). Lets servers
  /// measure transport+queue latency without growing Envelope.
  sim::SimTime sent_at = 0;
};
inline thread_local AmbientFrame g_ambient;
}  // namespace detail

/// The context ambient on this thread ({0,0} when none).
inline TraceContext current_context() noexcept { return detail::g_ambient.ctx; }

/// Wire-send time of the delivery that established the current frame
/// (0 when the current work was not triggered by a traced delivery).
inline sim::SimTime current_delivery_sent_at() noexcept {
  return detail::g_ambient.sent_at;
}

/// RAII: installs `ctx` as the ambient context for the current scope and
/// restores the previous frame on exit. `sent_at` != 0 marks a delivery
/// frame (see current_delivery_sent_at).
class ContextScope {
 public:
  explicit ContextScope(TraceContext ctx, sim::SimTime sent_at = 0) noexcept
      : saved_(detail::g_ambient) {
    detail::g_ambient = detail::AmbientFrame{ctx, sent_at};
  }
  ~ContextScope() { detail::g_ambient = saved_; }

  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  detail::AmbientFrame saved_;
};

}  // namespace phoenix::obs
