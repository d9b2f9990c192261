#include "bench/common/parallel.hh"

#include <atomic>
#include <thread>

#include "common/env.hh"

namespace csd::bench
{

namespace
{

/** --jobs request; 0 = auto (hardware threads), unset = 1 via env. */
unsigned requestedJobs = 0;
bool jobsRequested = false;

unsigned
resolveJobs()
{
    unsigned jobs = jobsRequested
        ? requestedJobs
        : static_cast<unsigned>(knobNumber(Knob::BenchJobs, 1));
    if (jobs == 0) {
        jobs = std::thread::hardware_concurrency();
        if (jobs == 0)
            jobs = 1;
    }
    return jobs;
}

} // namespace

unsigned
benchJobs()
{
    return resolveJobs();
}

void
benchSetJobs(unsigned jobs)
{
    requestedJobs = jobs;
    jobsRequested = true;
}

namespace detail
{

void
runIndexed(std::size_t n, unsigned jobs,
           const std::function<void(std::size_t)> &fn)
{
    if (jobs > n)
        jobs = static_cast<unsigned>(n);

    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t) {
        pool.emplace_back([&] {
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                fn(i);
            }
        });
    }
    for (std::thread &worker : pool)
        worker.join();
}

} // namespace detail

} // namespace csd::bench
