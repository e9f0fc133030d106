/**
 * @file
 * Small-buffer callable storage for the event hot path.
 *
 * std::function heap-allocates any capture list bigger than two words,
 * which on the simulator's hot path means one malloc/free pair per
 * scheduled event and per queued resource grant. InlineFn<Cap> stores
 * the callable inline, always: a capture bigger than Cap bytes (or
 * over-aligned) is a compile error, so no closure can take the heap.
 *
 * Move-only, like the closures it carries (pooled pointers, span ids,
 * Rng handles). Invocation is a single indirect call through a static
 * ops table; relocation (deque/engine-slot moves) goes through the same
 * table so non-trivially-movable captures stay correct.
 */
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dri::sim {

template <std::size_t Cap>
class InlineFn
{
  public:
    InlineFn() = default;

    template <class F,
              class = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFn>>>
    InlineFn(F &&f)
    {
        emplace(std::forward<F>(f));
    }

    InlineFn(InlineFn &&o) noexcept { moveFrom(o); }

    InlineFn &
    operator=(InlineFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    InlineFn(const InlineFn &) = delete;
    InlineFn &operator=(const InlineFn &) = delete;

    ~InlineFn() { reset(); }

    /** Install a callable, destroying any current one. */
    template <class F>
    void
    emplace(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= Cap &&
                          alignof(Fn) <= alignof(std::max_align_t),
                      "InlineFn: capture exceeds the inline buffer");
        reset();
        new (buf_) Fn(std::forward<F>(f));
        ops_ = &inlineOps<Fn>();
    }

    void
    operator()()
    {
        ops_->invoke(buf_);
    }

    /**
     * Invoke, then destroy, through a single generated function — one
     * indirect call instead of two. The event dispatch loop is
     * megamorphic (a different closure type nearly every event), so each
     * indirect call here is a likely branch mispredict; fusing the pair
     * halves that cost on the hottest loop in the simulator.
     */
    void
    invokeAndReset()
    {
        const Ops *ops = ops_;
        ops_ = nullptr;
        ops->invoke_destroy(buf_);
    }

    explicit operator bool() const { return ops_ != nullptr; }

    void
    reset()
    {
        if (ops_ != nullptr) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        void (*destroy)(void *);
        void (*relocate)(void *dst, void *src);
        void (*invoke_destroy)(void *);
    };

    template <class Fn>
    static const Ops &
    inlineOps()
    {
        static const Ops ops = {
            [](void *p) { (*static_cast<Fn *>(p))(); },
            [](void *p) { static_cast<Fn *>(p)->~Fn(); },
            [](void *dst, void *src) {
                Fn *s = static_cast<Fn *>(src);
                new (dst) Fn(std::move(*s));
                s->~Fn();
            },
            [](void *p) {
                Fn *f = static_cast<Fn *>(p);
                (*f)();
                f->~Fn();
            },
        };
        return ops;
    }

    void
    moveFrom(InlineFn &o) noexcept
    {
        ops_ = o.ops_;
        if (ops_ != nullptr) {
            ops_->relocate(buf_, o.buf_);
            o.ops_ = nullptr;
        }
    }

    const Ops *ops_ = nullptr;
    alignas(std::max_align_t) unsigned char buf_[Cap];
};

} // namespace dri::sim
