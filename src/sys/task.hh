/**
 * @file
 * Coroutine task type for simulated threads.
 *
 * Each simulated processor runs its program as a C++20 coroutine that
 * suspends on every shared-memory access; the CPU model resumes it when
 * the architectural model has completed the access. Task supports
 * nesting: a coroutine can `co_await` another Task and the inner
 * coroutine transfers control back on completion (continuation chain),
 * so workloads can be written as ordinary structured code.
 */

#ifndef PSIM_SYS_TASK_HH
#define PSIM_SYS_TASK_HH

#include <coroutine>
#include <utility>

namespace psim
{

class Task
{
  public:
    struct promise_type;
    using Handle = std::coroutine_handle<promise_type>;

    struct FinalAwaiter
    {
        bool await_ready() const noexcept { return false; }

        std::coroutine_handle<>
        await_suspend(Handle h) noexcept
        {
            // Resume whoever awaited this task; the root task has no
            // continuation and control returns to the simulator.
            auto cont = h.promise().continuation;
            return cont ? cont : std::noop_coroutine();
        }

        void await_resume() const noexcept {}
    };

    struct promise_type
    {
        std::coroutine_handle<> continuation = nullptr;
        bool done = false;

        Task get_return_object()
        {
            return Task(Handle::from_promise(*this));
        }

        std::suspend_always initial_suspend() noexcept { return {}; }

        FinalAwaiter final_suspend() noexcept
        {
            done = true;
            return {};
        }

        void return_void() noexcept {}

        /** A Panic (sim/logging.hh) reaches the resume() that ran us. */
        void unhandled_exception() { throw; }
    };

    Task() = default;

    explicit Task(Handle h) : _h(h) {}

    Task(Task &&other) noexcept : _h(std::exchange(other._h, nullptr)) {}

    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            destroy();
            _h = std::exchange(other._h, nullptr);
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { destroy(); }

    /** Awaiting a Task runs it to completion, then resumes the caller. */
    auto
    operator co_await() &&noexcept
    {
        struct Awaiter
        {
            Handle inner;

            bool await_ready() const noexcept { return !inner; }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> caller) noexcept
            {
                inner.promise().continuation = caller;
                return inner;
            }

            void await_resume() const noexcept {}
        };
        return Awaiter{_h};
    }

    bool valid() const { return static_cast<bool>(_h); }
    bool done() const { return !_h || _h.promise().done; }

    /** Kick off (or continue) the root coroutine. */
    void
    resume()
    {
        if (_h && !_h.done())
            _h.resume();
    }

    Handle handle() const { return _h; }

  private:
    void
    destroy()
    {
        if (_h)
            _h.destroy();
        _h = nullptr;
    }

    Handle _h = nullptr;
};

} // namespace psim

#endif // PSIM_SYS_TASK_HH
