// SmallFn: a move-only std::function<void()> replacement with a 64-byte
// inline buffer.
//
// Why not std::function: libstdc++'s small-object optimization only applies
// to trivially-copyable targets of <= 16 bytes, so every event callback that
// captures a shared_ptr — let alone a whole Packet — heap-allocates at
// schedule time. The event queue is on the per-packet path, so EventQueue
// stores SmallFn<64> instead: any capture up to 64 bytes (a this-pointer,
// two shared_ptrs, and a pooled box handle fit comfortably) lives inline in
// the queue entry. A larger capture, or one whose move can throw, does not
// compile: there is no heap fallback to regress to.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace asp::mem {

template <std::size_t N = 64>
class SmallFn {
 public:
  static constexpr std::size_t kInlineBytes = N;

  SmallFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, SmallFn>>>
  SmallFn(F&& f) {  // NOLINT: converting, mirrors std::function
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>, "SmallFn target must be callable as void()");
    static_assert(sizeof(Fn) <= N && alignof(Fn) <= alignof(std::max_align_t),
                  "SmallFn capture exceeds its inline buffer: capture a handle (a "
                  "net::PacketBox, a pointer) instead of the object");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "SmallFn capture must be nothrow-movable");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    ops_ = &ops<Fn>;
  }

  SmallFn(SmallFn&& o) noexcept { move_from(o); }
  SmallFn& operator=(SmallFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(this); }

 private:
  struct Ops {
    void (*invoke)(SmallFn*);
    void (*move)(SmallFn* dst, SmallFn* src) noexcept;
    void (*destroy)(SmallFn*) noexcept;
  };

  template <typename Fn>
  static const Ops ops;

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(this);
      ops_ = nullptr;
    }
  }

  void move_from(SmallFn& o) noexcept {
    ops_ = o.ops_;
    if (ops_ != nullptr) {
      ops_->move(this, &o);
      o.ops_ = nullptr;
    }
  }

  template <typename Fn>
  Fn* target() noexcept {
    return std::launder(reinterpret_cast<Fn*>(buf_));
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[N];
};

template <std::size_t N>
template <typename Fn>
const typename SmallFn<N>::Ops SmallFn<N>::ops = {
    /*invoke=*/[](SmallFn* s) { (*s->template target<Fn>())(); },
    /*move=*/
    [](SmallFn* dst, SmallFn* src) noexcept {
      ::new (static_cast<void*>(dst->buf_)) Fn(std::move(*src->template target<Fn>()));
      src->template target<Fn>()->~Fn();
    },
    /*destroy=*/[](SmallFn* s) noexcept { s->template target<Fn>()->~Fn(); },
};

}  // namespace asp::mem
