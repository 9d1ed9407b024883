/**
 * @file
 * Move-only type-erased callable with small-buffer optimization.
 *
 * InlineAction is the payload of every event that does more than
 * resume a coroutine (a bare resumption rides in the event key
 * itself; see event_queue.hh). Those captures are a few pointers and
 * scalars — a handshake leg's endpoints, a trigger to fire — so the
 * callable keeps a 48-byte inline buffer and only falls back to the
 * arena for captures that are larger (or whose move constructor may
 * throw). Scheduling the common case therefore performs no heap
 * allocation.
 *
 * Relocation (the move into and out of EventQueue's slot pool; the
 * schedulers only sift 24-byte keys) is a plain memcpy of the
 * capture's bytes for trivially copyable captures — handles, raw
 * pointers, small PODs — and a type-erased move-construct + destroy
 * for everything else.
 */

#ifndef HOWSIM_SIM_ACTION_HH
#define HOWSIM_SIM_ACTION_HH

#include <coroutine>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/arena.hh"

namespace howsim::sim
{

/** Move-only void() callable; see the file comment for the layout. */
class InlineAction
{
  public:
    /** Captures up to this size (and max_align_t alignment) stay inline. */
    static constexpr std::size_t inlineSize = 48;

    InlineAction() noexcept = default;

    /** Fast path: an action that resumes @p h when invoked. */
    InlineAction(std::coroutine_handle<> h) noexcept
        : InlineAction(Resumer{h})
    {}

    template <typename F>
        requires(!std::is_same_v<std::decay_t<F>, InlineAction>
                 && std::is_invocable_r_v<void, std::decay_t<F> &>)
    InlineAction(F &&f)
    {
        using D = std::decay_t<F>;
        if constexpr (fitsInline<D>) {
            ::new (static_cast<void *>(storage)) D(std::forward<F>(f));
            ops = &inlineOpsFor<D>;
        } else {
            // Oversized captures live in the thread's arena (when
            // installed) so even the fallback stays off malloc.
            void *mem = Arena::allocateGlobal(sizeof(D));
            D *obj;
            try {
                obj = ::new (mem) D(std::forward<F>(f));
            } catch (...) {
                Arena::release(mem);
                throw;
            }
            ::new (static_cast<void *>(storage))(D *)(obj);
            ops = &heapOpsFor<D>;
        }
    }

    InlineAction(InlineAction &&other) noexcept
        : ops(std::exchange(other.ops, nullptr))
    {
        if (ops)
            relocateFrom(other);
    }

    InlineAction &
    operator=(InlineAction &&other) noexcept
    {
        if (this != &other) {
            reset();
            ops = std::exchange(other.ops, nullptr);
            if (ops)
                relocateFrom(other);
        }
        return *this;
    }

    InlineAction(const InlineAction &) = delete;
    InlineAction &operator=(const InlineAction &) = delete;

    ~InlineAction() { reset(); }

    /** True when a callable is stored. */
    explicit operator bool() const noexcept { return ops != nullptr; }

    /** Invoke the stored callable. @pre bool(*this). */
    void operator()() { ops->invoke(storage); }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /**
         * Move-construct from src into dst and destroy src; null when
         * a memcpy of the capture relocates correctly.
         */
        void (*relocate)(void *src, void *dst) noexcept;
        /** Null when the capture is trivially destructible. */
        void (*destroy)(void *) noexcept;
        /**
         * Bytes the memcpy relocation copies: the capture's size (0
         * for a stateless one), so bytes that construction never
         * wrote are never read.
         */
        std::size_t bytes;
    };

    /** The capture behind the coroutine-handle constructor. */
    struct Resumer
    {
        std::coroutine_handle<> h;
        void operator()() const { h.resume(); }
    };

    template <typename F>
    static constexpr bool fitsInline
        = sizeof(F) <= inlineSize && alignof(F) <= alignof(std::max_align_t)
          && std::is_nothrow_move_constructible_v<F>;

    template <typename F>
    static constexpr bool memcpyRelocatable
        = std::is_trivially_copyable_v<F>
          && std::is_trivially_destructible_v<F>;

    template <typename F>
    static void
    invokeInline(void *s)
    {
        (*std::launder(static_cast<F *>(s)))();
    }

    template <typename F>
    static void
    relocateInline(void *src, void *dst) noexcept
    {
        F *from = std::launder(static_cast<F *>(src));
        ::new (dst) F(std::move(*from));
        from->~F();
    }

    template <typename F>
    static void
    destroyInline(void *s) noexcept
    {
        std::launder(static_cast<F *>(s))->~F();
    }

    template <typename F>
    static void
    invokeHeap(void *s)
    {
        (**std::launder(static_cast<F **>(s)))();
    }

    template <typename F>
    static void
    destroyHeap(void *s) noexcept
    {
        F *obj = *std::launder(static_cast<F **>(s));
        obj->~F();
        Arena::release(obj);
    }

    template <typename F>
    static constexpr Ops inlineOpsFor{
        &invokeInline<F>,
        memcpyRelocatable<F> ? nullptr : &relocateInline<F>,
        std::is_trivially_destructible_v<F> ? nullptr : &destroyInline<F>,
        std::is_empty_v<F> ? 0 : sizeof(F),
    };

    // The heap representation is a single pointer: memcpy-relocatable.
    template <typename F>
    static constexpr Ops heapOpsFor{
        &invokeHeap<F>,
        nullptr,
        &destroyHeap<F>,
        sizeof(F *),
    };

    void
    relocateFrom(InlineAction &other) noexcept
    {
        if (ops->relocate)
            ops->relocate(other.storage, storage);
        else
            std::memcpy(storage, other.storage, ops->bytes);
    }

    void
    reset() noexcept
    {
        if (ops && ops->destroy)
            ops->destroy(storage);
        ops = nullptr;
    }

    alignas(std::max_align_t) unsigned char storage[inlineSize];
    const Ops *ops = nullptr;
};

} // namespace howsim::sim

#endif // HOWSIM_SIM_ACTION_HH
