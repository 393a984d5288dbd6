/**
 * @file
 * Top-level Loopapalooza driver: the public entry point of the library.
 *
 * Wraps the full pipeline of the paper:
 *   1. verify the module (structural + SSA);
 *   2. compile-time component: analyses + instrumentation plan;
 *   3. run-time component: one instrumented (interpreted) run feeds
 *      every requested configuration's lane (rt/engine.hpp);
 *   4. report speedup, coverage, per-loop stats and the census.
 */

#pragma once

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
     * Each call interprets the program once and feeds the event
     * stream live to one lane engine holding every configuration
     * (rt::evaluate), so a call costs one interpretation whatever the
     * number of configurations.  The run budgets (guard::RunBudget)
     * bound that run.
     *
     * @param oracle attach the static-vs-dynamic consistency oracle:
     *        every SCEV-claimed and tracked header phi is watched, the
     *        evidence (one capture for every lane) is judged by
     *        lp::lint per lane, and each report's oracle and
     *        static-verdict sections are filled in.
     *
     * Reports come back in @p cfgs order.  Thread-safe: run() only
     * reads the module and the plan, and builds all run state locally,
     * so any number of lp::exec workers may call it concurrently on one
     * driver.
     */
    std::vector<rt::ProgramReport> run(const std::vector<rt::LPConfig> &cfgs,
                                       bool oracle = false) const;

    /// @name Single-purpose forms of run() (live, like run() itself);
    /// perfbench/ compiles against them
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
     * The program's event trace, recorded on first use and kept for the
     * driver's lifetime.  No run() uses it: it is the second event
     * source tests replay (rt::evaluate) to check the live one, and
     * the benchmark's traced pass times.  A failed recording throws
     * and is retried by the next call.
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

    mutable prof::TimedMutex verdictMu_{"core.static_verdicts"};
    mutable std::unique_ptr<std::vector<analysis::LoopVerdictSummary>>
        verdicts_;
};

} // namespace lp::core
