/**
 * @file
 * Work-pool execution layer (`lp::exec`).
 *
 * The sweeps this framework exists for — the paper's Table II space of
 * models × predictors × thresholds over prepared programs — are
 * embarrassingly parallel: every program × configuration run is
 * independent once the module is built and analyzed.  This layer
 * provides the one piece the sweep call sites need,
 * parallelFor(n, fn[, jobs]): run fn(i) for every i in [0, n) on a
 * region of worker threads started for the call and joined before it
 * returns.  It is order-preserving by construction (callers index their
 * output by i, so a parallel sweep produces byte-identical results to a
 * serial one), with exception capture and rethrow-on-join.  Each worker
 * of a region carries a slot number (workerSlot()), which the profiler
 * uses as its worker lane.
 *
 * Worker count resolution, everywhere: an explicit `jobs` argument wins,
 * then a process-wide override (the `--jobs` flag), then the `LP_JOBS`
 * environment variable, then 1 (serial — the default behaviour is
 * exactly the historical one).  `LP_JOBS=0` or `LP_JOBS=auto` means
 * "all hardware threads".
 *
 * Thread-safety contract for tasks: a task may use the whole pipeline
 * (build modules, run Machines, update lp::obs metrics, open
 * prof::ScopedPhase timers) — those layers are safe under concurrent
 * use.  Tasks must not call Registry::resetAll, PhaseTree::reset or the
 * prof::Collector's configure/reset/finish; those quiescent-only
 * operations belong to the coordinating thread between parallel
 * regions.
 */

#pragma once

#include <cstddef>
#include <functional>

namespace lp::exec {

/**
 * Workers a parallel region uses when the caller does not say:
 * setJobsOverride() value if set, else LP_JOBS, else 1.  Always >= 1.
 */
unsigned defaultJobs();

/**
 * Process-wide override of LP_JOBS (the `--jobs N` flag); 0 restores
 * the environment-driven default.
 */
void setJobsOverride(unsigned jobs);

/** Map a jobs spec to a worker count: 0 = all hardware threads. */
unsigned resolveJobs(unsigned jobs);

/**
 * Best-effort hardware width for scaling reports.  Guards the two
 * degenerate answers std::thread::hardware_concurrency() may give — 0
 * ("unknown") and 1 (restrictive container/cgroup masks even when more
 * workers run fine): whichever of the reported width and the configured
 * worker count (defaultJobs()) is larger wins.  Always >= 1.
 */
unsigned hardwareThreads();

/**
 * The calling thread's slot in the parallelFor region running it:
 * 0..workers-1, with the calling thread itself as slot 0.  A thread
 * outside any region (the main thread, a serial region) is slot 0.
 */
unsigned workerSlot();

/**
 * Run @p fn(i) for every i in [0, @p n) on up to @p jobs workers.
 *
 * - jobs <= 1 (or n <= 1) runs inline on the calling thread, so the
 *   serial path has zero threading overhead and identical semantics to
 *   the pre-exec code.
 * - Otherwise min(jobs, n) workers claim indices from one counter: the
 *   calling thread as slot 0 and one fresh thread per further slot,
 *   all joined before parallelFor returns.
 * - Result ordering is the caller's: write results[i] inside fn and the
 *   output order is independent of scheduling.
 * - If any fn(i) throws, no further indices are issued, every started
 *   task finishes, and the exception of the *lowest* failing index is
 *   rethrown on join — deterministic error reporting regardless of
 *   which worker hit it first.
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
                 unsigned jobs = defaultJobs());

} // namespace lp::exec
