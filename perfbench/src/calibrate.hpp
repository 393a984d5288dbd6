/**
 * @file
 * Host-speed calibration for the timed passes.
 *
 * The benchmark runs on a few virtual CPUs of a shared host, whose
 * speed drifts by up to ~1.5x from second to second and from minute to
 * minute, differently on each CPU.  A pass therefore runs pinned to a
 * fixed set of CPUs, and a Calibrator runs a fixed kernel on each of
 * them at the same time, time-shared with the pass by the scheduler.
 * Both see the same CPU at the same moments, so the kernel's CPU time
 * per step measures how fast the host ran the pass; run.py rescales
 * the pass's wall time by it to a fixed reference speed.
 *
 * The kernel is the benchmark's own code, so a change to the library
 * moves the pass and never the yardstick.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {

/**
 * Restrict the calling thread, and every thread it starts from now
 * on, to the first @p n CPUs it may run on.
 */
void pinToFirstCpus(unsigned n);

class Calibrator
{
  public:
    /** Start one kernel thread on each CPU the caller may run on. */
    Calibrator();
    ~Calibrator();

    Calibrator(const Calibrator &) = delete;
    Calibrator &operator=(const Calibrator &) = delete;

    /**
     * Stop the kernels and return their mean CPU nanoseconds per step,
     * averaged over the CPUs, since construction.
     */
    double stop();

  private:
    struct Lane
    {
        std::uint64_t steps = 0;
        double cpuNs = 0;
        std::uint64_t sink = 0;
    };

    void run(int cpu, Lane &lane);

    std::atomic<bool> stop_{false};
    std::vector<Lane> lanes_;
    std::vector<std::thread> threads_;
};

} // namespace perfbench
