#include "exec/pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/log.hpp"

namespace lp::exec {

namespace {

std::atomic<unsigned> g_jobsOverride{0};

/** This thread's slot in the parallelFor region running it. */
thread_local unsigned t_workerSlot = 0;

/** Parse LP_JOBS once; invalid values warn once and fall back to 1. */
unsigned
jobsFromEnv()
{
    static const unsigned cached = [] {
        const char *env = std::getenv("LP_JOBS");
        if (!env || !*env)
            return 1u;
        std::string s(env);
        if (s == "0" || s == "auto")
            return resolveJobs(0);
        char *end = nullptr;
        unsigned long v = std::strtoul(env, &end, 10);
        if (*end != '\0' || v == 0 || v > 4096) {
            obs::logMessage(obs::Level::Error,
                            "LP_JOBS value not understood: " + s +
                                " (want a worker count, 0 or 'auto' for "
                                "all hardware threads); running serial",
                            /*force=*/true);
            return 1u;
        }
        return static_cast<unsigned>(v);
    }();
    return cached;
}

} // namespace

unsigned
resolveJobs(unsigned jobs)
{
    if (jobs != 0)
        return jobs;
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

unsigned
hardwareThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    unsigned cfg = defaultJobs();
    return std::max({hw, cfg, 1u});
}

unsigned
defaultJobs()
{
    unsigned override = g_jobsOverride.load(std::memory_order_relaxed);
    if (override != 0)
        return override;
    return jobsFromEnv();
}

void
setJobsOverride(unsigned jobs)
{
    g_jobsOverride.store(jobs, std::memory_order_relaxed);
}

unsigned
workerSlot()
{
    return t_workerSlot;
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
            unsigned jobs)
{
    if (n == 0)
        return;
    unsigned workers = resolveJobs(jobs);
    if (workers > n)
        workers = static_cast<unsigned>(n);
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // The claim counter and the failure flag sit on the hottest shared
    // cache lines of a sweep; keep each on its own line so claiming an
    // index never invalidates the flag every worker polls (and neither
    // shares a line with the error state below).
    alignas(64) std::atomic<std::size_t> next{0};
    alignas(64) std::atomic<bool> failed{false};
    alignas(64) std::mutex errMu;
    std::exception_ptr firstError;
    std::size_t firstErrorIndex = 0;

    auto drain = [&](unsigned slot) {
        t_workerSlot = slot;
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n || failed.load(std::memory_order_relaxed))
                return;
            try {
                fn(i);
            } catch (...) {
                std::unique_lock<std::mutex> lock(errMu);
                if (!firstError || i < firstErrorIndex) {
                    firstError = std::current_exception();
                    firstErrorIndex = i;
                }
                failed.store(true, std::memory_order_relaxed);
            }
        }
    };

    // The caller is slot 0; it gets its own slot back afterwards, so a
    // region nested in another region's worker leaves that worker's
    // slot as it was.
    const unsigned callerSlot = t_workerSlot;
    {
        // jthreads join on every path out of this scope, a failed
        // thread start included: no task outlives the region.
        std::vector<std::jthread> threads;
        threads.reserve(workers - 1);
        for (unsigned slot = 1; slot < workers; ++slot)
            threads.emplace_back(drain, slot);
        drain(0);
    }
    t_workerSlot = callerSlot;

    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace lp::exec
