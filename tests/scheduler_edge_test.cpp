// Edge cases of the lazy-cancel slot/generation scheduler and its timing
// wheel, a seeded differential trace checked step by step against a plain
// binary heap, and an equivalence test replaying a 10k-event trace against
// a reference implementation of the old scheduler (eager hash-set liveness
// tracking, std::function callbacks) to prove event ordering is
// bit-identical.
#include "sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <random>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/inplace_function.h"

namespace phoenix::sim {
namespace {

// ---------------------------------------------------------------------------
// Generation-counter wrap (the ABA bound of lazy cancellation).
// ---------------------------------------------------------------------------

TEST(SchedulerEdgeTest, StaleIdAfterFireDoesNotCancelSlotReuser) {
  Engine eng;
  bool first_fired = false;
  const EventId stale = eng.schedule_at(10, [&] { first_fired = true; });
  eng.run();
  EXPECT_TRUE(first_fired);
  EXPECT_FALSE(eng.cancel(stale));  // already fired

  // The slot is reused (LIFO free list) with a bumped generation; the stale
  // id from the fired event must not cancel the new occupant.
  bool second_fired = false;
  const EventId reuse = eng.schedule_at(20, [&] { second_fired = true; });
  EXPECT_EQ(reuse.value >> Engine::kGenerationBits,
            stale.value >> Engine::kGenerationBits);  // same slot...
  EXPECT_NE(reuse.value, stale.value);                // ...new generation
  EXPECT_FALSE(eng.cancel(stale));
  eng.run();
  EXPECT_TRUE(second_fired);
}

TEST(SchedulerEdgeTest, CancelThenReuseAcrossGenerationWrap) {
  // One slot reused until its generation counter wraps: generations run
  // 1, 2, ..., 2^k-1, then back to 1 (0 is skipped — it marks invalid ids).
  // After the full cycle an ancient EventId aliases the current occupant;
  // this is the documented ABA bound of the scheme, and the engine must
  // stay consistent (no double-free of the slot, exact pending count).
  constexpr std::uint64_t kCycle = (1ull << Engine::kGenerationBits) - 1;

  Engine eng;
  const EventId ancient = eng.schedule_at(1000, [] {});
  EXPECT_TRUE(eng.cancel(ancient));

  // Burn through the remaining generations of this one slot.
  for (std::uint64_t i = 0; i < kCycle - 1; ++i) {
    const EventId id = eng.schedule_at(1000, [] {});
    ASSERT_EQ(id.value >> Engine::kGenerationBits,
              ancient.value >> Engine::kGenerationBits)
        << "free list must reuse the same slot";
    ASSERT_TRUE(eng.cancel(id));
    ASSERT_FALSE(eng.cancel(ancient)) << "stale id must stay dead pre-wrap";
  }

  // Next occupant carries the wrapped generation: the ancient id aliases it.
  const EventId reborn = eng.schedule_at(1000, [] {});
  EXPECT_EQ(reborn.value, ancient.value);
  EXPECT_EQ(eng.pending(), 1u);
  EXPECT_TRUE(eng.cancel(ancient));  // documented ABA: cancels the reuser
  EXPECT_EQ(eng.pending(), 0u);
  EXPECT_FALSE(eng.cancel(reborn));

  // The queue still holds ~2^k lazily-cancelled ghosts; they must all drain
  // without executing anything.
  EXPECT_EQ(eng.run(), 0u);
  EXPECT_EQ(eng.executed(), 0u);
}

// ---------------------------------------------------------------------------
// PeriodicTask re-entrancy.
// ---------------------------------------------------------------------------

TEST(SchedulerEdgeTest, PeriodicStopThenStartInsideOwnTick) {
  Engine eng;
  std::vector<SimTime> fires;
  PeriodicTask task(eng, 100, [&] {
    fires.push_back(eng.now());
    if (fires.size() == 2) {
      task.stop();
      task.start_after(37);  // re-phase from inside the tick
    }
  });
  task.start();
  eng.run_until(600);
  // 100, 200 (re-phased), 237, 337, 437, 537.
  EXPECT_EQ(fires, (std::vector<SimTime>{100, 200, 237, 337, 437, 537}));
  EXPECT_TRUE(task.running());
}

TEST(SchedulerEdgeTest, PeriodicStopInsideTickStaysStopped) {
  Engine eng;
  int count = 0;
  PeriodicTask task(eng, 50, [&] {
    if (++count == 3) task.stop();
  });
  task.start();
  eng.run_until(5'000);
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(task.running());
  EXPECT_EQ(eng.pending(), 0u);  // no orphaned re-arm left behind
}

TEST(SchedulerEdgeTest, PeriodicRestartInsideTickUsesFullPeriod) {
  Engine eng;
  std::vector<SimTime> fires;
  PeriodicTask task(eng, 100, [&] {
    fires.push_back(eng.now());
    if (fires.size() == 1) task.start();  // restart resets the phase
  });
  task.start();
  eng.run_until(450);
  EXPECT_EQ(fires, (std::vector<SimTime>{100, 200, 300, 400}));
}

// ---------------------------------------------------------------------------
// run_until with same-time ties.
// ---------------------------------------------------------------------------

TEST(SchedulerEdgeTest, RunUntilExecutesAllSameTimeEventsFifo) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    eng.schedule_at(500, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(eng.run_until(500), 8u);  // boundary is inclusive
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(eng.now(), 500u);
}

TEST(SchedulerEdgeTest, RunUntilIncludesSameTimeEventsScheduledMidRun) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(500, [&] {
    order.push_back(1);
    // Same-time child scheduled from inside a tied event: still <= t, must
    // run within this run_until, after already-queued ties (FIFO).
    eng.schedule_at(500, [&] { order.push_back(3); });
  });
  eng.schedule_at(500, [&] { order.push_back(2); });
  eng.schedule_at(501, [&] { order.push_back(4); });
  EXPECT_EQ(eng.run_until(500), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 500u);
  EXPECT_EQ(eng.pending(), 1u);  // the 501 event stays queued
}

TEST(SchedulerEdgeTest, RunUntilSkipsCancelledGhostsWithoutOverrunning) {
  Engine eng;
  bool far_fired = false;
  const EventId ghost = eng.schedule_at(100, [] { FAIL() << "cancelled"; });
  eng.schedule_at(5'000, [&] { far_fired = true; });
  eng.cancel(ghost);
  // A cancelled entry at t=100 sits at the head of the queue; running until
  // t=200 must not leak past it into the t=5000 event.
  EXPECT_EQ(eng.run_until(200), 0u);
  EXPECT_FALSE(far_fired);
  EXPECT_EQ(eng.now(), 200u);
  EXPECT_EQ(eng.run_until(10'000), 1u);
  EXPECT_TRUE(far_fired);
}

// ---------------------------------------------------------------------------
// Callback storage.
// ---------------------------------------------------------------------------

TEST(SchedulerEdgeTest, HotPathLambdasAreStoredInline) {
  struct FabricSized {
    void* self;
    std::uint64_t a, b, c;
    std::shared_ptr<int> p;
    void operator()() const {}
  };
  static_assert(Engine::Callback::stores_inline<FabricSized>(),
                "delivery-lambda-sized captures must not heap-allocate");
  // Oversized closures still work via the heap fallback.
  struct Huge {
    std::uint64_t blob[32];
    void operator()() const {}
  };
  static_assert(!Engine::Callback::stores_inline<Huge>());
  static_assert(sizeof(Engine::Slot) == 64,
                "a pending event's slot must fill exactly one cache line");
  Engine eng;
  Huge huge{};
  huge.blob[0] = 7;
  std::uint64_t seen = 0;
  eng.schedule_at(1, [huge, &seen] { seen = huge.blob[0]; });
  eng.run();
  EXPECT_EQ(seen, 7u);
}

TEST(SchedulerEdgeTest, MoveOnlyCapturesAreSupported) {
  Engine eng;
  auto owned = std::make_unique<int>(99);
  int seen = 0;
  eng.schedule_at(1, [owned = std::move(owned), &seen] { seen = *owned; });
  eng.run();
  EXPECT_EQ(seen, 99);
}

// ---------------------------------------------------------------------------
// Timing wheel, far heap and in-place callbacks.
// ---------------------------------------------------------------------------

TEST(SchedulerEdgeTest, SameTimeFifoAcrossFarHeapMove) {
  // Events 1 and 2 are scheduled while T lies beyond the wheel, so they
  // wait in the far heap. Events 3-5 are scheduled for T after the window
  // has reached it, straight into T's bucket. Schedule order must win.
  constexpr SimTime kT = 3 * Engine::kWheelSpan;
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(kT, [&] { order.push_back(1); });
  eng.schedule_at(kT, [&] { order.push_back(2); });
  eng.schedule_at(kT - Engine::kWheelSpan + 1, [&] {
    eng.schedule_at(kT, [&] { order.push_back(3); });
  });
  EXPECT_EQ(eng.run_until(kT - 1), 1u);
  eng.schedule_at(kT, [&] { order.push_back(4); });
  eng.schedule_after(1, [&] { order.push_back(5); });
  EXPECT_EQ(eng.run_until(kT), 5u);

  // The same when nothing nearer is queued and the clock jumps straight to
  // the far events: a same-time child still runs after both of them.
  constexpr SimTime kLater = kT + 5 * Engine::kWheelSpan;
  eng.schedule_at(kLater, [&] {
    order.push_back(6);
    eng.schedule_at(kLater, [&] { order.push_back(8); });
  });
  eng.schedule_at(kLater, [&] { order.push_back(7); });
  EXPECT_EQ(eng.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(eng.now(), kLater);

  // A step over nothing but a cancelled far event leaves the clock alone.
  eng.cancel(eng.schedule_at(kLater + 2 * Engine::kWheelSpan, [] {}));
  EXPECT_FALSE(eng.step());
  EXPECT_EQ(eng.now(), kLater);
}

TEST(SchedulerEdgeTest, CallbackRunsInPlaceWhileOpeningSlotBlocks) {
  // A callback runs inside its slot. While it runs, its own id is spent,
  // and the events it schedules take other slots, from new blocks once
  // the free list runs dry, without moving the closure that is running.
  constexpr std::size_t kChildren = 3 * Engine::kBlockSlots;
  struct State {
    Engine eng;
    EventId self;
    bool cancelled_self = true;
    std::string text_after;
    std::vector<EventId> children;
    std::size_t fired = 0;
  } st;
  auto run = [s = &st, text = std::string(24, 'p')] {
    s->cancelled_self = s->eng.cancel(s->self);
    for (std::size_t i = 0; i < kChildren; ++i) {
      s->children.push_back(s->eng.schedule_after(i % 5, [s] { ++s->fired; }));
    }
    s->text_after = text;  // the closure was neither moved nor overwritten
  };
  static_assert(Engine::Callback::stores_inline<decltype(run)>());
  st.self = st.eng.schedule_at(10, std::move(run));
  EXPECT_EQ(st.eng.run(), 1 + kChildren);
  EXPECT_FALSE(st.cancelled_self);
  EXPECT_EQ(st.text_after, std::string(24, 'p'));
  EXPECT_EQ(st.fired, kChildren);
  const std::uint64_t self_slot = st.self.value >> Engine::kGenerationBits;
  for (const EventId child : st.children) {
    ASSERT_NE(child.value >> Engine::kGenerationBits, self_slot);
  }
  EXPECT_EQ(st.eng.pending(), 0u);
}

// ---------------------------------------------------------------------------
// Differential trace against a binary heap.
// ---------------------------------------------------------------------------

// The engine's ordering contract in its plainest form: one binary heap on
// (time, seq), with liveness tracked per event label.
class ReferenceHeap {
 public:
  SimTime now() const noexcept { return now_; }
  std::size_t pending() const noexcept { return pending_; }

  void schedule_at(SimTime t, std::size_t label) {
    heap_.push(Key{std::max(t, now_), next_seq_++, label});
    if (label >= live_.size()) live_.resize(label + 1, false);
    live_[label] = true;
    ++pending_;
  }
  bool cancel(std::size_t label) {
    if (label >= live_.size() || !live_[label]) return false;
    live_[label] = false;
    --pending_;
    return true;
  }
  /// Time of the earliest live event, or kNever when none is queued.
  SimTime next_time() {
    while (!heap_.empty() && !live_[heap_.top().label]) heap_.pop();
    return heap_.empty() ? kNever : heap_.top().time;
  }
  /// Runs the earliest live event if it is due by `limit`: its label.
  std::optional<std::size_t> pop(SimTime limit) {
    if (pending_ == 0 || next_time() > limit) return std::nullopt;
    const Key k = heap_.top();
    heap_.pop();
    live_[k.label] = false;
    --pending_;
    now_ = k.time;
    return k.label;
  }
  void advance_to(SimTime t) { now_ = std::max(now_, t); }

 private:
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::size_t label;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t pending_ = 0;
  std::priority_queue<Key, std::vector<Key>, Later> heap_;
  std::vector<bool> live_;
};

// Drives the engine and the reference through one seeded trace in
// lockstep: every engine callback pops the reference and must find its own
// label there at the engine's clock, and both queues must report the same
// pending count after every operation.
class WheelDifferential {
 public:
  explicit WheelDifferential(std::uint64_t seed) : rng_(seed) {}

  void run(std::size_t top_level_ops) {
    for (std::size_t i = 0; i < top_level_ops && !diverged_; ++i) {
      switch (rng_() % 8) {
        case 0:
        case 1:
        case 2: schedule(); break;
        case 3: cancel(); break;
        case 4:
        case 5: step(); break;
        default: run_until(); break;
      }
      check_pending();
    }
    // Drain: kNever events run last, in schedule order.
    spawning_ = false;
    eng_.run();
    check_pending();
    EXPECT_EQ(eng_.pending(), 0u);
    EXPECT_FALSE(eng_.step());
  }

  bool diverged() const noexcept { return diverged_; }
  std::size_t operations() const noexcept { return ops_; }
  std::size_t fired() const noexcept { return fired_; }
  std::size_t wheel_edge_schedules() const noexcept { return edge_; }

 private:
  void diverge(const std::string& what) {
    if (!diverged_) ADD_FAILURE() << what << " at operation " << ops_;
    diverged_ = true;
  }
  void check_pending() {
    if (eng_.pending() != ref_.pending()) diverge("pending() differs");
  }

  // Delays in the trace: same time, near, exactly at the wheel's edge (the
  // wheel's base is now()), either side of it, 1 ms to ~30 s, and never.
  SimTime delay() {
    switch (rng_() % 20) {
      case 0:
      case 1:
      case 2: return 0;
      case 3:
      case 4:
      case 5:
      case 6:
      case 7: return 1 + rng_() % 200;
      case 8:
      case 9:
        ++edge_;
        return Engine::kWheelSpan - 1 + rng_() % 3;
      case 10:
      case 11:
      case 12: return 200 + rng_() % (2 * Engine::kWheelSpan);
      case 19: return kNever;
      default: return kMillisecond + rng_() % (kMillisecond << (1 + rng_() % 15));
    }
  }

  void schedule() {
    ++ops_;
    const std::size_t label = ids_.size();
    auto fire = [this, label] { on_fire(label); };
    const SimTime d = delay();
    SimTime at = kNever;
    switch (d == kNever ? 0 : rng_() % 4) {
      case 0:
        at = d == kNever ? kNever : eng_.now() + d;
        ids_.push_back(eng_.schedule_at(at, fire));
        break;
      case 1:  // in the past: clamped to now()
        at = eng_.now() - std::min(eng_.now(), d);
        ids_.push_back(eng_.schedule_at(at, fire));
        break;
      default:
        at = eng_.now() + d;
        ids_.push_back(eng_.schedule_after(d, fire));
        break;
    }
    ref_.schedule_at(at, label);
  }

  void cancel() {
    ++ops_;
    if (ids_.empty()) return;
    // Recent labels are more often still pending, near or far.
    const std::size_t n = ids_.size();
    const std::size_t label =
        rng_() % 2 ? n - 1 - rng_() % std::min<std::size_t>(n, 64) : rng_() % n;
    if (eng_.cancel(ids_[label]) != ref_.cancel(label)) diverge("cancel() differs");
  }

  void step() {
    ++ops_;
    // Keep the clock off kNever until the final drain.
    if (ref_.next_time() == kNever) return;
    const std::size_t before = fired_;
    if (!eng_.step() || fired_ != before + 1) diverge("step() ran no event");
  }

  void run_until() {
    ++ops_;
    const SimTime now = eng_.now();
    SimTime horizon = now;
    switch (rng_() % 4) {
      case 0: horizon = now + rng_() % 300; break;
      case 1: horizon = now + Engine::kWheelSpan - 1 + rng_() % 3; break;
      case 2: horizon = now + rng_() % (40 * kSecond); break;
      default: {  // just short of, or exactly at, the next event
        const SimTime next = ref_.next_time();
        if (next != kNever) horizon = std::max(now, next - rng_() % 2);
        break;
      }
    }
    const std::size_t before = fired_;
    const std::size_t ran = eng_.run_until(horizon);
    ref_.advance_to(horizon);
    if (ran != fired_ - before) diverge("run_until() count differs");
    if (eng_.now() != ref_.now()) diverge("run_until() clock differs");
    if (ref_.next_time() <= horizon) diverge("run_until() left a due event");
  }

  void on_fire(std::size_t label) {
    ++fired_;
    const std::optional<std::size_t> expected = ref_.pop(eng_.now());
    if (!expected || *expected != label || ref_.now() != eng_.now()) {
      diverge("execution order differs");
      return;
    }
    if (!spawning_) return;
    for (int kids = static_cast<int>(rng_() % 3); kids > 0; --kids) schedule();
    if (rng_() % 4 == 0) cancel();
    check_pending();
  }

  Engine eng_;
  ReferenceHeap ref_;
  std::mt19937_64 rng_;
  std::vector<EventId> ids_;  // label -> engine id
  bool spawning_ = true;
  bool diverged_ = false;
  std::size_t ops_ = 0;
  std::size_t fired_ = 0;
  std::size_t edge_ = 0;
};

TEST(SchedulerDifferentialTest, MatchesBinaryHeapStepByStep) {
  WheelDifferential trace(20061);
  trace.run(25'000);
  ASSERT_FALSE(trace.diverged());
  // The trace must be big enough to mean something (~209k operations).
  EXPECT_GT(trace.operations(), 150'000u);
  EXPECT_GT(trace.fired(), 100'000u);
  EXPECT_GT(trace.wheel_edge_schedules(), 10'000u);
}

// ---------------------------------------------------------------------------
// Equivalence with the old scheduler.
// ---------------------------------------------------------------------------

// Reference implementation: the pre-overhaul engine verbatim — a priority
// queue of (time, seq, std::function) entries with an unordered_set of live
// sequence numbers, eagerly erased on cancel/fire.
class ReferenceEngine {
 public:
  using Callback = std::function<void()>;
  struct Id {
    std::uint64_t value = 0;
  };

  SimTime now() const noexcept { return now_; }

  Id schedule_at(SimTime t, Callback cb) {
    if (t < now_) t = now_;
    const std::uint64_t seq = next_seq_++;
    queue_.push(Entry{t, seq, std::move(cb)});
    live_.insert(seq);
    return Id{seq};
  }
  Id schedule_after(SimTime delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }
  bool cancel(Id id) { return live_.erase(id.value) > 0; }

  bool step() {
    while (!queue_.empty()) {
      Entry e = std::move(const_cast<Entry&>(queue_.top()));
      queue_.pop();
      if (live_.erase(e.seq) == 0) continue;
      now_ = e.time;
      ++executed_;
      e.cb();
      return true;
    }
    return false;
  }
  std::size_t run() {
    std::size_t n = 0;
    while (step()) ++n;
    return n;
  }
  std::uint64_t executed() const noexcept { return executed_; }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::unordered_set<std::uint64_t> live_;
};

// Deterministic workload table shared by both schedulers. Every fired event
// may schedule children and cancel an earlier event, all decided by pure
// functions of the event's label so the two runs see the exact same
// decisions.
struct TraceWorkload {
  static constexpr std::size_t kRoots = 400;
  static constexpr std::size_t kMaxEvents = 10'000;

  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return x;
  }
  static SimTime root_time(std::size_t label) { return 1 + mix(label) % 977; }
  static SimTime child_delay(std::size_t label, int child) {
    return mix(label * 31 + static_cast<std::uint64_t>(child)) % 199;  // 0 = same-time tie
  }
  static int children_of(std::size_t label) {
    return static_cast<int>(mix(label ^ 0xabcdu) % 3);  // 0..2 children
  }
  static bool cancels(std::size_t label) { return mix(label ^ 0x77u) % 4 == 0; }
  static std::size_t cancel_victim(std::size_t label, std::size_t scheduled) {
    return mix(label * 7919) % scheduled;
  }
};

// Drives one scheduler through the workload, recording the label of every
// fired event in execution order.
template <typename EngineT, typename IdT>
std::vector<std::size_t> record_trace() {
  EngineT eng;
  std::vector<IdT> ids;  // label -> id
  std::vector<std::size_t> fired_order;

  std::function<void(std::size_t)> fire = [&](std::size_t label) {
    fired_order.push_back(label);
    const int kids = TraceWorkload::children_of(label);
    for (int c = 0; c < kids; ++c) {
      if (ids.size() >= TraceWorkload::kMaxEvents) break;
      const std::size_t child_label = ids.size();
      ids.push_back(eng.schedule_after(
          TraceWorkload::child_delay(label, c),
          [&fire, child_label] { fire(child_label); }));
    }
    if (TraceWorkload::cancels(label)) {
      eng.cancel(ids[TraceWorkload::cancel_victim(label, ids.size())]);
    }
  };

  for (std::size_t r = 0; r < TraceWorkload::kRoots; ++r) {
    const std::size_t label = ids.size();
    ids.push_back(eng.schedule_at(TraceWorkload::root_time(label),
                                  [&fire, label] { fire(label); }));
  }
  eng.run();
  return fired_order;
}

TEST(SchedulerEquivalenceTest, ReplaysTraceInIdenticalOrder) {
  const auto reference = record_trace<ReferenceEngine, ReferenceEngine::Id>();
  const auto actual = record_trace<Engine, EventId>();

  // The workload must be substantial enough to be meaningful: thousands of
  // events with same-time ties and cross-cancellations.
  ASSERT_GT(reference.size(), 2'000u);
  ASSERT_EQ(actual.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(actual[i], reference[i]) << "divergence at position " << i;
  }
}

TEST(SchedulerEquivalenceTest, SameSeedSameExecutionOrder) {
  // Determinism of the new scheduler itself: two identical runs.
  const auto a = record_trace<Engine, EventId>();
  const auto b = record_trace<Engine, EventId>();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace phoenix::sim
