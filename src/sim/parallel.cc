#include "sim/parallel.hh"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace psim
{

unsigned
resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
runGrid(std::size_t n, unsigned jobs,
        const std::function<void(std::size_t)> &fn)
{
    if (jobs > n)
        jobs = static_cast<unsigned>(n);
    if (jobs <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::mutex mx;
    std::exception_ptr error;
    auto worker = [&] {
        for (std::size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lk(mx);
                if (!error)
                    error = std::current_exception();
            }
        }
    };
    // A jthread joins when destroyed, so the workers are joined before
    // the state they share goes away, even if starting one throws.
    std::vector<std::jthread> threads;
    threads.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t)
        threads.emplace_back(worker);
    threads.clear();
    if (error)
        std::rethrow_exception(error);
}

} // namespace psim
