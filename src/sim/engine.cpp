#include "sim/engine.h"

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace phoenix::sim {

std::string format_duration(SimTime t) {
  char buf[48];
  if (t < kMillisecond) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 "us", t);
  } else if (t < kSecond) {
    std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(t) / kMillisecond);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", to_seconds(t));
  }
  return buf;
}

Engine::Engine(std::uint64_t seed) : buckets_(kWheelSpan), rng_(seed) {}

EventId Engine::schedule_raw_at(SimTime t, void (*fn)(void*), void* ctx) {
  return schedule_impl(t, Callback(fn, ctx));
}

EventId Engine::schedule_raw_after(SimTime delay, void (*fn)(void*), void* ctx) {
  return schedule_impl(now_ + delay, Callback(fn, ctx));
}

bool Engine::cancel(EventId id) {
  // Lazy cancellation: the queued id stays behind and is skipped when
  // popped; only the generation bump and callback teardown happen here.
  const std::uint64_t index = id.value >> kGenerationBits;
  if (index >= blocks_.size() * kBlockSlots || !is_live(id.value)) return false;
  Slot& s = slot(index);
  s.cb.reset();  // release captures promptly
  retire(s);
  free_slots_.push_back(index);
  --live_;
  return true;
}

void Engine::add_block() {
  const std::uint64_t first = blocks_.size() * kBlockSlots;
  blocks_.push_back(std::make_unique<Slot[]>(kBlockSlots));
  // Highest index first, so the block's slots are handed out in order.
  for (std::uint64_t i = kBlockSlots; i-- > 0;) free_slots_.push_back(first + i);
}

void Engine::push_back(SimTime t, std::uint64_t id) {
  const std::size_t b = t % kWheelSpan;
  Bucket& k = buckets_[b];
  if (k.head == kNoChunk || k.back == kChunkIds) {
    std::uint32_t c = free_chunk_;
    if (c != kNoChunk) {
      free_chunk_ = chunks_[c].next;
      chunks_[c].next = kNoChunk;
    } else {
      c = static_cast<std::uint32_t>(chunks_.size());
      chunks_.emplace_back();
    }
    if (k.head == kNoChunk) {
      k.head = c;
      k.front = 0;
      occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
    } else {
      chunks_[k.tail].next = c;
    }
    k.tail = c;
    k.back = 0;
  }
  chunks_[k.tail].ids[k.back++] = id;
  ++wheel_size_;
}

void Engine::pop_front(std::size_t b) {
  Bucket& k = buckets_[b];
  --wheel_size_;
  const bool last_chunk = k.head == k.tail;
  if (++k.front < (last_chunk ? k.back : kChunkIds)) {
    // The next id in this bucket runs soon: warm its slot meanwhile.
    __builtin_prefetch(&slot(chunks_[k.head].ids[k.front] >> kGenerationBits));
    return;
  }
  const std::uint32_t spent = k.head;
  k.head = chunks_[spent].next;
  k.front = 0;
  chunks_[spent].next = free_chunk_;
  free_chunk_ = spent;
  if (last_chunk) occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
}

std::size_t Engine::next_bucket() const noexcept {
  // The wheel is not empty, so the scan ends; bits below `start` in its
  // word are the latest buckets and are reached after the wrap.
  const std::size_t start = now_ % kWheelSpan;
  std::size_t w = start / 64;
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (start % 64));
  while (bits == 0) {
    w = (w + 1) % (kWheelSpan / 64);
    bits = occupied_[w];
  }
  return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
}

void Engine::migrate() {
  while (!far_.empty() && far_.top().time - now_ < kWheelSpan) {
    // Ghosts move too: checking their slots here would miss the cache
    // once more for every far event.
    push_back(far_.top().time, far_.top().id);
    far_.pop();
  }
}

bool Engine::step_limited(SimTime limit) {
  for (;;) {
    if (wheel_size_ == 0) {
      // Nothing due within the window: the clock jumps to the earliest far
      // event, which runs next, and the window follows it.
      while (!far_.empty() && !is_live(far_.top().id)) far_.pop();
      if (far_.empty() || far_.top().time > limit) return false;
      now_ = far_.top().time;
      migrate();
    }
    const std::size_t b = next_bucket();
    const std::uint64_t id = chunks_[buckets_[b].head].ids[buckets_[b].front];
    const SimTime t = now_ + ((b - now_) % kWheelSpan);
    if (!is_live(id)) {
      pop_front(b);  // cancelled ghost
      continue;
    }
    if (t > limit) return false;
    pop_front(b);
    now_ = t;
    migrate();
    // Retire the slot but keep it off the free list while the callback
    // runs in place: the block never moves, and nothing can reuse it.
    const std::uint64_t index = id >> kGenerationBits;
    Slot& s = slot(index);
    retire(s);
    --live_;
    ++executed_;
    s.cb();
    s.cb.reset();
    free_slots_.push_back(index);
    return true;
  }
}

std::size_t Engine::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

std::size_t Engine::run_until(SimTime t) {
  std::size_t n = 0;
  while (step_limited(t)) ++n;
  if (now_ < t) {
    now_ = t;  // every queued event is later than t
    migrate();
  }
  return n;
}

PeriodicTask::PeriodicTask(Engine& engine, SimTime period, Tick tick)
    : engine_(engine), period_(period), tick_(std::move(tick)) {}

PeriodicTask::~PeriodicTask() { stop(); }

void PeriodicTask::start() { start_after(period_); }

void PeriodicTask::start_after(SimTime initial_delay) {
  stop();
  running_ = true;
  arm(initial_delay);
}

void PeriodicTask::stop() {
  if (pending_.value != 0) {
    engine_.cancel(pending_);
    pending_ = EventId{};
  }
  running_ = false;
}

void PeriodicTask::tick_thunk(void* self) {
  static_cast<PeriodicTask*>(self)->on_tick();
}

void PeriodicTask::on_tick() {
  pending_ = EventId{};
  if (!running_) return;
  tick_();
  // tick_ may have called stop() (or even start()); only re-arm if still
  // running and nothing else re-armed us.
  if (running_ && pending_.value == 0) arm(period_);
}

void PeriodicTask::arm(SimTime delay) {
  pending_ = engine_.schedule_raw_after(delay, &PeriodicTask::tick_thunk, this);
}

}  // namespace phoenix::sim
