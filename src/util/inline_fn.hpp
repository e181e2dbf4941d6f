#pragma once
// InlineFn<Capacity>: a small-buffer `void()` callable for the
// simulation hot path.
//
// std::function's inline buffer (16 bytes on libstdc++) is too small for
// the kernel's event closures — a captured RmsMessage or Job pushes every
// schedule/submit/send onto the heap, and those allocations dominate the
// per-event cost of the discrete-event loop.  InlineFn stores callables
// up to Capacity bytes directly in the object (no allocation, one
// indirect call to invoke) and falls back to the heap only for oversized
// or throwing-move captures.  Copyable, like std::function, because the
// network fault layer duplicates in-flight deliveries.

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace scal::util {

template <std::size_t Capacity>
class InlineFn {
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= Capacity && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  template <typename F>
  static constexpr bool is_callable =
      std::is_invocable_r_v<void, F&> &&
      !std::is_same_v<std::remove_cvref_t<F>, InlineFn>;

 public:
  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename = std::enable_if_t<is_callable<F>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = &vtable_inline<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      vt_ = &vtable_heap<Fn>;
    }
  }

  InlineFn(InlineFn&& other) noexcept : vt_(other.vt_) {
    if (vt_ != nullptr) {
      vt_->relocate(buf_, other.buf_);
      other.vt_ = nullptr;
    }
  }

  InlineFn(const InlineFn& other) : vt_(other.vt_) {
    if (vt_ != nullptr) vt_->copy(buf_, other.buf_);
  }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      vt_ = other.vt_;
      if (vt_ != nullptr) {
        vt_->relocate(buf_, other.buf_);
        other.vt_ = nullptr;
      }
    }
    return *this;
  }

  InlineFn& operator=(const InlineFn& other) {
    if (this != &other) {
      InlineFn copy(other);
      *this = std::move(copy);
    }
    return *this;
  }

  ~InlineFn() { reset(); }

  void reset() noexcept {
    if (vt_ != nullptr) {
      vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

  /// Invoke; precondition: non-null.
  void operator()() { vt_->invoke(buf_); }

 private:
  struct VTable {
    void (*invoke)(void*);
    /// Move-construct dst from src and destroy src's payload.
    void (*relocate)(void* dst, void* src);
    void (*copy)(void* dst, const void* src);
    void (*destroy)(void*);
  };

  template <typename Fn>
  static const VTable vtable_inline;
  template <typename Fn>
  static const VTable vtable_heap;

  const VTable* vt_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[Capacity];
};

template <std::size_t Capacity>
template <typename Fn>
const typename InlineFn<Capacity>::VTable
    InlineFn<Capacity>::vtable_inline = {
        /*invoke=*/[](void* b) { (*std::launder(reinterpret_cast<Fn*>(b)))(); },
        /*relocate=*/
        [](void* dst, void* src) {
          Fn* s = std::launder(reinterpret_cast<Fn*>(src));
          ::new (dst) Fn(std::move(*s));
          s->~Fn();
        },
        /*copy=*/
        [](void* dst, const void* src) {
          ::new (dst) Fn(*std::launder(reinterpret_cast<const Fn*>(src)));
        },
        /*destroy=*/
        [](void* b) { std::launder(reinterpret_cast<Fn*>(b))->~Fn(); },
};

template <std::size_t Capacity>
template <typename Fn>
const typename InlineFn<Capacity>::VTable InlineFn<Capacity>::vtable_heap = {
    /*invoke=*/
    [](void* b) { (**std::launder(reinterpret_cast<Fn**>(b)))(); },
    /*relocate=*/
    [](void* dst, void* src) {
      ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
    },
    /*copy=*/
    [](void* dst, const void* src) {
      ::new (dst)
          Fn*(new Fn(**std::launder(reinterpret_cast<Fn* const*>(src))));
    },
    /*destroy=*/
    [](void* b) { delete *std::launder(reinterpret_cast<Fn**>(b)); },
};

}  // namespace scal::util
