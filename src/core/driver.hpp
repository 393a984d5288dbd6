/**
 * @file
 * Top-level Loopapalooza driver: the public entry point of the library.
 *
 * Wraps the full pipeline of the paper:
 *   1. verify the module (structural + SSA);
 *   2. compile-time component: analyses + instrumentation plan;
 *   3. run-time component: record the program's event stream once and
 *      evaluate every requested configuration from it (rt/engine.hpp);
 *   4. report speedup, coverage, per-loop stats and the census.
 */

#pragma once

#include <exception>
#include <memory>
#include <mutex>
#include <string>

#include <vector>

#include "analysis/pdg.hpp"
#include "ir/module.hpp"
#include "rt/engine.hpp"
#include "rt/plan.hpp"
#include "rt/report.hpp"
#include "trace/batch.hpp"
#include "trace/format.hpp"
#include "prof/timed_mutex.hpp"

namespace lp::core {

/** Analyze once, evaluate as many configurations as desired. */
class Loopapalooza
{
  public:
    /**
     * Verifies @p mod (fatal on malformed IR) and builds the compile-time
     * plan.  The module must outlive this object and must already be
     * finalized.
     */
    explicit Loopapalooza(const ir::Module &mod);

    /**
     * Evaluate the program under every configuration of @p cfgs: the
     * one entry point of the limit study.
     *
     * The first call (across all threads) records the program's event
     * trace; every call then replays it through the lane engine, one
     * pass per 64 configurations (rt::evaluate).  When the recording
     * outgrew the trace byte budget (LP_BUDGET_TRACE_BYTES), each pass
     * interprets the program instead, feeding the engine live; the
     * reports are the same either way, and the sweep.trace_fallbacks
     * counter counts those live passes.
     *
     * @param oracle attach the static-vs-dynamic consistency oracle:
     *        every SCEV-claimed and tracked header phi is watched, the
     *        evidence is judged by lp::lint, and each report's oracle
     *        and static-verdict sections are filled in.
     *
     * Reports come back in @p cfgs order.  Thread-safe: run() only
     * reads the module, the plan and the recorded trace, and builds all
     * run state locally, so any number of lp::exec workers may call it
     * concurrently on one driver.
     */
    std::vector<rt::ProgramReport> run(const std::vector<rt::LPConfig> &cfgs,
                                       bool oracle = false) const;

    /// @name Single-purpose forms of run(); perfbench/ compiles against them
    /// @{
    rt::ProgramReport runReplay(const rt::LPConfig &cfg) const
    {
        return run({cfg}).front();
    }
    rt::ProgramReport runReplayWithOracle(const rt::LPConfig &cfg) const
    {
        return run({cfg}, /*oracle=*/true).front();
    }
    std::vector<rt::ProgramReport>
    runReplayBatched(const std::vector<rt::LPConfig> &cfgs) const
    {
        return run(cfgs);
    }
    /// @}

    /**
     * The recorded event trace, recording it on first use.  A truncated
     * recording keeps its header (events, final cost, truncated flag)
     * but drops its partial payload.  Recording failures that are
     * deterministic (trap, fuel, ...) are cached and rethrown on every
     * later call; transient ones (wall-clock deadline) are not, so a
     * guardedRun retry re-records.
     */
    const trace::Trace &trace() const;

    /** The compile-time component's output. */
    const rt::ModulePlan &plan() const { return *plan_; }

    const ir::Module &module() const { return mod_; }

    /**
     * The PDG classifier's whole-loop verdicts, computed lazily on
     * first use (config-independent, so one computation serves every
     * oracle-attached cell of a sweep).  Thread-safe.
     */
    const std::vector<analysis::LoopVerdictSummary> &staticVerdicts() const;

    /**
     * The program's per-block dispatch table (rt::buildDispatchTable):
     * every per-block/per-instruction fact the engine needs, lowered
     * into contiguous arrays indexed by the IR's dense ids (the ids the
     * trace carries).  Config-independent and built in the constructor.
     */
    const trace::BatchDispatchTable &dispatchTable() const
    {
        return dispatch_;
    }

  private:
    const ir::Module &mod_;
    std::unique_ptr<rt::ModulePlan> plan_;
    trace::BatchDispatchTable dispatch_;

    mutable prof::TimedMutex traceMu_{"core.trace_record"};
    mutable std::unique_ptr<trace::Trace> trace_;
    mutable std::exception_ptr traceError_;

    mutable prof::TimedMutex verdictMu_{"core.static_verdicts"};
    mutable std::unique_ptr<std::vector<analysis::LoopVerdictSummary>>
        verdicts_;
};

} // namespace lp::core
