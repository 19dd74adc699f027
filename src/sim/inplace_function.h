// Small-buffer-optimized move-only callable for the engine's hot path.
//
// std::function keeps only ~16 bytes inline (libstdc++), so the lambdas the
// Phoenix daemons actually schedule — `this` plus an Envelope, a pid, or a
// couple of ids, typically 24–48 bytes — heap-allocate on every schedule.
// With three heartbeat networks per watch daemon that is thousands of
// allocations per simulated second. InplaceCallback stores callables up to
// `Capacity` bytes inline and only falls back to the heap beyond that, and
// is move-only so it can carry move-only captures (e.g. unique_ptr).
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace phoenix::sim {

template <std::size_t Capacity>
class InplaceCallback {
 public:
  InplaceCallback() = default;
  InplaceCallback(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  /// Wraps any void() callable. Inline when it fits and is nothrow-movable;
  /// heap-backed otherwise (cold: oversized captures are rare and a bug to
  /// fix at the call site, not a crash).
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InplaceCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InplaceCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &heap_ops<Fn>;
    }
  }

  /// Raw-thunk form: a plain function pointer plus context, guaranteed
  /// allocation-free. Used by PeriodicTask so a re-arming timer constructs
  /// no closure object at all.
  InplaceCallback(void (*fn)(void*), void* ctx)
      : InplaceCallback(RawThunk{fn, ctx}) {
    static_assert(fits_inline<RawThunk>());
  }

  InplaceCallback(InplaceCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
  }

  InplaceCallback& operator=(InplaceCallback&& other) noexcept {
    if (this != &other) {
      if (ops_ != nullptr) ops_->destroy(buf_);
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.buf_, buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InplaceCallback(const InplaceCallback&) = delete;
  InplaceCallback& operator=(const InplaceCallback&) = delete;

  ~InplaceCallback() {
    if (ops_ != nullptr) ops_->destroy(buf_);
  }

  /// Destroys the current target (if any) and constructs `f` in place —
  /// one construction instead of construct-into-temporary + relocate.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InplaceCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &heap_ops<Fn>;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

  static constexpr std::size_t capacity() noexcept { return Capacity; }

  /// True when callables of type F are stored without heap allocation.
  template <typename F>
  static constexpr bool stores_inline() noexcept {
    return fits_inline<std::decay_t<F>>();
  }

 private:
  struct RawThunk {
    void (*fn)(void*);
    void* ctx;
    void operator()() const { fn(ctx); }
  };

  struct Ops {
    void (*invoke)(void* buf);
    void (*relocate)(void* from, void* to);  // move-construct + destroy source
    void (*destroy)(void* buf);
  };

  template <typename Fn>
  static constexpr bool fits_inline() noexcept {
    return sizeof(Fn) <= Capacity && alignof(Fn) <= alignof(void*) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](void* buf) { (*std::launder(reinterpret_cast<Fn*>(buf)))(); },
      [](void* from, void* to) {
        Fn* src = std::launder(reinterpret_cast<Fn*>(from));
        ::new (to) Fn(std::move(*src));
        src->~Fn();
      },
      [](void* buf) { std::launder(reinterpret_cast<Fn*>(buf))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops heap_ops = {
      [](void* buf) { (**std::launder(reinterpret_cast<Fn**>(buf)))(); },
      [](void* from, void* to) {
        // Pointer relocation is a trivial copy; no source teardown needed.
        ::new (to) Fn*(*std::launder(reinterpret_cast<Fn**>(from)));
      },
      [](void* buf) { delete *std::launder(reinterpret_cast<Fn**>(buf)); },
  };

  // Pointer alignment, not max_align_t: the engine's 64-byte slot holds a
  // 56-byte InplaceCallback<48> only if the buffer needs no 16-byte padding.
  alignas(void*) unsigned char buf_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace phoenix::sim
