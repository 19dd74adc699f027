// Discrete-event simulation engine.
//
// The engine owns the virtual clock and the queue of scheduled callbacks.
// All Phoenix daemons are actors driven entirely by engine events: message
// deliveries, timers, and fault injections. Determinism: events run in
// (time, insertion sequence) order.
//
// Hot-path design (see DESIGN.md, "Simulation-core performance"):
//   - A hashed timing wheel holds every event due within kWheelSpan of
//     now(): one FIFO bucket per microsecond, a 64-word bitmap to find the
//     next non-empty bucket, and bucket entries kept in fixed-size chunks
//     from one free list. Events further out (timers, delayed replies)
//     wait in a binary heap of 24-byte {time, seq, id} keys and move into
//     their bucket, in heap order, when the clock comes within kWheelSpan
//     of them.
//   - Pop order is exactly (time, seq): a bucket holds one time and is
//     FIFO, and every far event for time T enters its bucket before any
//     event for T can be scheduled into that bucket directly (T joins the
//     window only when the clock advances, and migration runs right then).
//   - Callbacks live in 64-byte slots in blocks that never move, so a
//     callback runs in place: its slot is retired before it runs and goes
//     back on the LIFO free list after it returns.
//   - Cancellation is lazy via generation counters: an EventId packs
//     (slot, generation); cancel/fire bump the slot's generation, so a
//     queued ghost key is recognized and skipped when popped. No per-event
//     hash-set insert/erase.
//   - Callbacks are InplaceCallback (48-byte small-buffer), so the lambdas
//     daemons schedule (this + a few ids, or this + an Envelope) never
//     touch the heap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "sim/inplace_function.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace phoenix::sim {

/// Handle for a scheduled event; usable to cancel it before it fires.
/// Packs (slot << kGenerationBits) | generation; value 0 is never issued
/// (generations skip 0), so a default EventId is always invalid.
struct EventId {
  std::uint64_t value = 0;
  friend bool operator==(EventId, EventId) = default;
};

class Engine {
 public:
  /// 48 bytes covers the largest hot-path capture (Fabric's delivery
  /// lambda: this + Envelope). Bigger closures fall back to the heap.
  using Callback = InplaceCallback<48>;

  /// Width of the per-slot generation counter inside EventId. After
  /// 2^kGenerationBits - 1 reuses of one slot the counter wraps and an
  /// ancient stale id aliases the current occupant (classic ABA); ~1M
  /// schedule/cancel cycles on the *same slot* is far beyond any id a
  /// daemon keeps around.
  static constexpr unsigned kGenerationBits = 20;

  /// Width of the timing wheel in microseconds: one bucket per microsecond.
  /// It covers the fabric's deliveries (50 us base latency plus ~1 us per
  /// KB), so mostly timers and delayed replies go through the far heap;
  /// 4,096 buckets keep the wheel's fixed footprint near 50 KB.
  static constexpr SimTime kWheelSpan = 4096;

  /// One pending event's storage: a cache line. Slots come in blocks of
  /// kBlockSlots that never move, so a callback can run where it lies.
  static constexpr std::size_t kBlockSlots = 1024;
  struct alignas(64) Slot {
    std::uint32_t gen = 1;
    // Distinguishes an occupied slot from one parked on the free list. A
    // free slot already carries the generation its NEXT occupant will get,
    // so without this flag a stale id could alias it after a generation
    // wrap and cancel() would corrupt the free list / live count.
    bool live = false;
    Callback cb;
  };

  explicit Engine(std::uint64_t seed = 42);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  SimTime now() const noexcept { return now_; }

  /// Schedules `cb` to run at absolute time `t` (clamped to now()).
  /// Templated so the closure is constructed directly in its slot — no
  /// temporary Callback, no relocation.
  template <typename F, typename = std::enable_if_t<std::is_invocable_r_v<
                            void, std::decay_t<F>&>>>
  EventId schedule_at(SimTime t, F&& cb) {
    return schedule_impl(t, std::forward<F>(cb));
  }

  /// Schedules `cb` to run `delay` microseconds from now.
  template <typename F, typename = std::enable_if_t<std::is_invocable_r_v<
                            void, std::decay_t<F>&>>>
  EventId schedule_after(SimTime delay, F&& cb) {
    return schedule_impl(now_ + delay, std::forward<F>(cb));
  }

  /// Allocation-free raw form: `fn(ctx)` runs at `t`. Used by self-
  /// rescheduling timers (PeriodicTask) so the heartbeat storm constructs
  /// no closure per tick.
  EventId schedule_raw_at(SimTime t, void (*fn)(void*), void* ctx);
  EventId schedule_raw_after(SimTime delay, void (*fn)(void*), void* ctx);

  /// Cancels a pending event. Returns true if it had not yet fired.
  bool cancel(EventId id);

  /// Runs the single earliest event. Returns false if the queue is empty.
  bool step() { return step_limited(kNever); }

  /// Runs events until the queue is empty or `max_events` have fired.
  /// Returns the number of events executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs all events with time <= t, then advances the clock to exactly t.
  std::size_t run_until(SimTime t);

  /// Runs for `delta` of simulated time from now.
  std::size_t run_for(SimTime delta) { return run_until(now_ + delta); }

  /// Number of events still pending.
  std::size_t pending() const noexcept { return live_; }

  /// Total events executed since construction.
  std::uint64_t executed() const noexcept { return executed_; }

  Rng& rng() noexcept { return rng_; }

 private:
  static constexpr std::uint64_t kGenMask = (1u << kGenerationBits) - 1;
  static constexpr std::uint32_t kNoChunk = ~std::uint32_t{0};
  static constexpr std::uint16_t kChunkIds = 7;  // a chunk is 64 bytes

  // Far-heap key: plain-old-data, 24 bytes, cheap to sift. The callback for
  // `id` lives in slot(id >> kGenerationBits).
  struct Entry {
    SimTime time;
    std::uint64_t seq;  // tie-breaker: FIFO among same-time events
    std::uint64_t id;   // packed (slot, generation)
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };
  // A bucket's FIFO of ids runs through a chain of chunks: ids are taken
  // from chunks_[head].ids[front] and appended at chunks_[tail].ids[back].
  struct Chunk {
    std::uint64_t ids[kChunkIds];
    std::uint32_t next = kNoChunk;
  };
  struct Bucket {
    std::uint32_t head = kNoChunk;
    std::uint32_t tail = kNoChunk;
    std::uint16_t front = 0;
    std::uint16_t back = 0;
  };

  Slot& slot(std::uint64_t index) noexcept {
    return blocks_[index / kBlockSlots][index % kBlockSlots];
  }
  bool is_live(std::uint64_t id) noexcept {
    const Slot& s = slot(id >> kGenerationBits);
    return s.live && s.gen == (id & kGenMask);
  }

  std::uint64_t acquire_slot() {
    if (free_slots_.empty()) add_block();
    const std::uint64_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }

  template <typename F>
  EventId schedule_impl(SimTime t, F&& cb) {
    if (t < now_) t = now_;
    const std::uint64_t index = acquire_slot();
    Slot& s = slot(index);
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      s.cb = std::forward<F>(cb);
    } else {
      s.cb.emplace(std::forward<F>(cb));
    }
    s.live = true;
    const std::uint64_t id = (index << kGenerationBits) | s.gen;
    if (t - now_ < kWheelSpan) {
      push_back(t, id);
    } else {
      far_.push(Entry{t, next_seq_++, id});
    }
    ++live_;
    return EventId{id};
  }

  bool step_limited(SimTime limit);
  void add_block();
  void push_back(SimTime t, std::uint64_t id);
  void pop_front(std::size_t bucket);
  std::size_t next_bucket() const noexcept;
  /// Moves the far events that the window [now_, now_ + kWheelSpan) has
  /// reached into their buckets, in (time, seq) order.
  void migrate();

  /// Bumps the slot's generation (skipping 0) and marks it free; any
  /// EventId minted for the old generation is now stale. The caller puts
  /// the slot back on the free list once its callback is gone.
  static void retire(Slot& s) noexcept {
    std::uint32_t g = (s.gen + 1) & kGenMask;
    if (g == 0) g = 1;
    s.gen = g;
    s.live = false;
  }

  SimTime now_ = 0;  // also the wheel's base
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;        // scheduled, not yet fired/cancelled
  std::size_t wheel_size_ = 0;  // ids in buckets, ghosts included
  std::vector<Bucket> buckets_;  // kWheelSpan, indexed by time % kWheelSpan
  std::uint64_t occupied_[kWheelSpan / 64] = {};  // bit b: bucket b non-empty
  std::vector<Chunk> chunks_;
  std::uint32_t free_chunk_ = kNoChunk;
  std::priority_queue<Entry, std::vector<Entry>, Later> far_;
  std::vector<std::unique_ptr<Slot[]>> blocks_;
  std::vector<std::uint64_t> free_slots_;  // LIFO: reuse stays cache-hot
  Rng rng_;
};

/// A self-rescheduling periodic timer. Construction does not start it;
/// call start(). Stopping is safe from inside the tick callback. Re-arming
/// goes through the engine's raw-thunk path: a tick schedules its successor
/// without constructing or destroying any closure.
class PeriodicTask {
 public:
  using Tick = std::function<void()>;

  PeriodicTask(Engine& engine, SimTime period, Tick tick);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Arms the timer: first tick fires after `initial_delay` (default: one period).
  void start();
  void start_after(SimTime initial_delay);
  void stop();

  bool running() const noexcept { return running_; }
  SimTime period() const noexcept { return period_; }

  /// Changes the period; takes effect at the next (re)arming.
  void set_period(SimTime period) noexcept { period_ = period; }

 private:
  static void tick_thunk(void* self);
  void on_tick();
  void arm(SimTime delay);

  Engine& engine_;
  SimTime period_;
  Tick tick_;
  EventId pending_{};
  bool running_ = false;
};

}  // namespace phoenix::sim
