/**
 * @file
 * Small-buffer-optimized callback for the event engine.
 *
 * The event queue is the hottest data structure in the simulator: every
 * memory access schedules several callbacks. `std::function` heap-
 * allocates any capture list larger than its (implementation-defined)
 * inline buffer, which puts an allocator round-trip on the critical
 * path. InlineCallback instead provides a fixed-size inline buffer and
 * *no* heap fallback at all: a callable that does not fit is a compile
 * error, so the hot path can never silently regress into malloc.
 *
 * The stored callable must also be trivially copyable and trivially
 * destructible (captures of pointers, references and plain-data
 * structs). An InlineCallback is then itself trivially copyable: the
 * event pool copies it as bytes and never runs a destructor, so firing
 * an event costs exactly one indirect call.
 */

#ifndef PSIM_SIM_CALLBACK_HH
#define PSIM_SIM_CALLBACK_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace psim
{

/**
 * A trivially copyable `void()` callable with @p Capacity bytes of
 * inline storage and no heap fallback.
 */
template <std::size_t Capacity>
class InlineCallback
{
  public:
    InlineCallback() = default;

    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<
                      std::decay_t<F>, InlineCallback>>>
    InlineCallback(F &&f) // NOLINT: implicit from any callable
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_trivially_copyable_v<Fn> &&
                              std::is_trivially_destructible_v<Fn>,
                "callback captures must be trivially copyable and "
                "trivially destructible (the pool copies them as bytes)");
        static_assert(sizeof(Fn) <= Capacity,
                "callback capture list exceeds the event queue's inline "
                "storage; shrink the capture or raise Capacity");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                "callback requires stronger alignment than the inline "
                "buffer provides");
        ::new (static_cast<void *>(_buf)) Fn(std::forward<F>(f));
        _invoke = [](void *p) { (*static_cast<Fn *>(p))(); };
    }

    void operator()() { _invoke(_buf); }

  private:
    alignas(std::max_align_t) std::byte _buf[Capacity];
    void (*_invoke)(void *) = nullptr;
};

} // namespace psim

#endif // PSIM_SIM_CALLBACK_HH
