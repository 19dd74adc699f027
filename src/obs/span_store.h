// Bounded store of completed spans + Chrome trace-event export.
//
// A span is one unit of causally-linked work: a KernelApi call, one send
// attempt, a wire hop, a server-side serve, a dedup replay, a takeover.
// Components record spans *on completion* (start and end sim-times known),
// linked to their parent by span id, so the store is append-only and needs
// no open-span bookkeeping.
//
// Cost discipline: `enabled()` is the one branch instrumented code checks;
// everything else (id minting, string copies) happens only when tracing is
// on.
//
// Thread discipline: not thread-safe. Each Cluster owns one store, used only
// by the thread that runs that cluster's engine.
//
// Export is Chrome trace-event JSON ("X" complete events, ts/dur in
// microseconds = sim-time units), loadable in Perfetto / chrome://tracing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>

#include "obs/trace_context.h"
#include "sim/time.h"

namespace phoenix::obs {

struct Span {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;  // 0 = trace root
  sim::SimTime start = 0;
  sim::SimTime end = 0;
  std::string component;  // e.g. "api", "fabric/0", "cs/0"
  std::string name;       // e.g. "call:config_set", "hop:ConfigSetMsg"
  std::string outcome;    // e.g. "ok", "retry", "lost", "replay"
};

class SpanStore {
 public:
  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Retention bound; oldest spans are evicted first.
  void set_capacity(std::size_t n);
  std::size_t capacity() const noexcept { return capacity_; }

  /// Fresh unique id, usable as a trace id or span id.
  std::uint64_t mint_id() noexcept { return next_id_++; }

  /// Appends a completed span. No-op when disabled (callers normally check
  /// enabled() first and skip building the span at all).
  void record(Span span);

  /// Retained spans, oldest-first.
  const std::deque<Span>& spans() const noexcept { return spans_; }
  std::size_t size() const noexcept { return spans_.size(); }
  std::uint64_t recorded_total() const noexcept { return recorded_; }
  void clear();

  /// Chrome trace-event JSON: {"traceEvents":[...]}. Each span becomes a
  /// ph:"X" event with pid = trace_id's low bits and args carrying the
  /// ids/outcome, so Perfetto groups spans by trace.
  std::string to_chrome_json() const;

 private:
  bool enabled_ = false;
  std::size_t capacity_ = 65536;
  std::uint64_t next_id_ = 1;
  std::deque<Span> spans_;
  std::uint64_t recorded_ = 0;
};

}  // namespace phoenix::obs
