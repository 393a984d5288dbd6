#include "calibrate.hpp"

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <stdexcept>
#include <vector>

namespace perfbench {

namespace {

/** The calling thread's CPU time in nanoseconds. */
double
threadCpuNs()
{
    timespec t;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
    return static_cast<double>(t.tv_sec) * 1e9 +
           static_cast<double>(t.tv_nsec);
}

/** Pin the calling thread to @p cpu. */
void
pinTo(int cpu)
{
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
}

/** The CPUs the calling thread may run on. */
std::vector<int>
allowedCpus()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        throw std::runtime_error("sched_getaffinity failed");
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed))
            cpus.push_back(c);
    return cpus;
}

} // namespace

/**
 * The kernel: a dependent walk over a 64 KiB table with a
 * data-dependent branch, a mix of loads, integer work and branches
 * like an interpreter's.  Runs on @p cpu until stopped.
 */
void
Calibrator::run(int cpu, Lane &lane)
{
    pinTo(cpu);
    constexpr std::uint32_t kMask = (1u << 14) - 1;
    std::vector<std::uint32_t> table(kMask + 1);
    for (std::uint32_t i = 0; i <= kMask; ++i)
        table[i] = (i * 2654435761u) & kMask;
    std::uint64_t acc = 0;
    std::uint32_t p = 1;
    std::uint64_t n = 0;
    const double t0 = threadCpuNs();
    do { // at least one round, so even a very short pass gets a reading
        for (int k = 0; k < 4096; ++k) {
            p = (table[p] ^ static_cast<std::uint32_t>(acc & 0xff)) & kMask;
            acc += (p & 1) ? p * 3 : p >> 1;
        }
        n += 4096;
    } while (!stop_.load(std::memory_order_relaxed));
    lane.cpuNs = threadCpuNs() - t0;
    lane.steps = n;
    lane.sink = acc; // keeps the walk from being optimised away
}

void
pinToFirstCpus(unsigned n)
{
    const std::vector<int> cpus = allowedCpus();
    if (cpus.size() < n)
        throw std::runtime_error("fewer CPUs than workers to pin");
    cpu_set_t pinned;
    CPU_ZERO(&pinned);
    for (unsigned i = 0; i < n; ++i)
        CPU_SET(cpus[i], &pinned);
    if (sched_setaffinity(0, sizeof pinned, &pinned) != 0)
        throw std::runtime_error("sched_setaffinity failed");
}

Calibrator::Calibrator()
{
    const std::vector<int> cpus = allowedCpus();
    lanes_.resize(cpus.size());
    for (std::size_t i = 0; i < cpus.size(); ++i)
        threads_.emplace_back(
            [this, i, cpu = cpus[i]] { run(cpu, lanes_[i]); });
}

Calibrator::~Calibrator() { stop(); }

double
Calibrator::stop()
{
    stop_ = true;
    for (std::thread &t : threads_)
        if (t.joinable())
            t.join();
    double sum = 0;
    for (const Lane &l : lanes_)
        sum += l.cpuNs / static_cast<double>(l.steps);
    return lanes_.empty() ? 0 : sum / static_cast<double>(lanes_.size());
}

} // namespace perfbench
