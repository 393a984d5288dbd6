/**
 * @file
 * Study harness: prepares a set of benchmark programs (building each
 * module once, running the compile-time component once) and executes them
 * under arbitrary configurations, aggregating suite-level geomeans the way
 * the paper's figures do.
 */

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "exec/pool.hpp"
#include "guard/quarantine.hpp"

namespace lp::core {

/** A benchmark program as registered by a suite. */
struct BenchProgram
{
    std::string name;  ///< e.g. "181.mcf-like"
    std::string suite; ///< e.g. "cint2000"
    std::function<std::unique_ptr<ir::Module>()> build;
    /** Expected main() return value (self-check); 0 = unchecked. */
    std::uint64_t expected = 0;
    bool checkExpected = false;
    /**
     * Generator seed when the program is fuzz-generated (0 = a
     * hand-written suite program).  Threaded into checkpoint cell keys
     * and run reports so every failure names its reproducing seed.
     */
    std::uint64_t seed = 0;
};

/** One prepared (built + analyzed) program. */
class PreparedProgram
{
  public:
    explicit PreparedProgram(const BenchProgram &prog);

    const std::string &name() const { return prog_.name; }
    const std::string &suite() const { return prog_.suite; }

    /**
     * Evaluate under every configuration of @p cfgs, optionally with
     * the consistency oracle (Loopapalooza::run); reports carry this
     * program's name.
     */
    std::vector<rt::ProgramReport> run(const std::vector<rt::LPConfig> &cfgs,
                                       bool oracle = false) const;

    /// @name Single-purpose forms of run(); perfbench/ compiles against them
    /// @{
    rt::ProgramReport runReplay(const rt::LPConfig &cfg) const
    {
        return run({cfg}).front();
    }
    std::vector<rt::ProgramReport>
    runReplayBatched(const std::vector<rt::LPConfig> &cfgs) const
    {
        return run(cfgs);
    }
    /// @}

    const Loopapalooza &driver() const { return *lp_; }

  private:
    BenchProgram prog_;
    std::unique_ptr<ir::Module> mod_;
    std::unique_ptr<Loopapalooza> lp_;
};

/**
 * A set of prepared programs with suite-level aggregation.
 *
 * Preparation and suite sweeps are embarrassingly parallel (every
 * program runs in its own interp::Machine over an immutable module), so
 * both accept a worker count.  The default, exec::defaultJobs(), honors
 * --jobs / LP_JOBS and falls back to serial.  Results are ordered by
 * program index regardless of worker count; parallel and serial runs
 * produce identical reports.
 */
/** How Study prepares its programs. */
struct StudyOptions
{
    /**
     * Quarantine programs whose build/analyze/self-check fails instead
     * of aborting the whole study; failures land in prepareFailures().
     */
    bool keepGoing = false;
    unsigned jobs = exec::defaultJobs();
};

/** One program that never made it past preparation (keep-going mode). */
struct PrepareFailure
{
    std::string program;
    std::string suite;
    guard::RunVerdict verdict;
};

class Study
{
  public:
    /**
     * Prepare all of @p programs (builds and analyzes every module),
     * using up to @p jobs worker threads.  Any preparation failure
     * propagates (strict).
     */
    explicit Study(const std::vector<BenchProgram> &programs,
                   unsigned jobs = exec::defaultJobs());

    /** As above, honoring @p opts (keep-going quarantines failures). */
    Study(const std::vector<BenchProgram> &programs,
          const StudyOptions &opts);

    /** Programs quarantined during keep-going preparation. */
    const std::vector<PrepareFailure> &prepareFailures() const
    {
        return prepareFailures_;
    }

    const std::vector<std::unique_ptr<PreparedProgram>> &programs() const
    {
        return programs_;
    }

    /** Distinct suite names, in first-seen order. */
    std::vector<std::string> suites() const;

    /**
     * Run every program of @p suite under @p cfg, using up to @p jobs
     * worker threads.  Reports come back in program-registration order
     * whatever the worker count.
     */
    std::vector<rt::ProgramReport>
    runSuite(const std::string &suite, const rt::LPConfig &cfg,
             unsigned jobs = exec::defaultJobs()) const;

    /** How runSuite treats a failing cell. */
    struct SuiteRunOptions
    {
        /**
         * Record failing cells as status=failed reports (with error
         * code, message and attempt count) instead of aborting the
         * suite on the first failure.
         */
        bool keepGoing = false;
        /** Retry budget for transient failures (guardedRun). */
        int maxRetries = 2;
        /** First-retry backoff in ms; doubles per retry. */
        unsigned backoffBaseMs = 5;
        unsigned jobs = exec::defaultJobs();
        /**
         * Attach the static-vs-dynamic consistency oracle to every
         * cell; reports come back with their oracle section filled
         * (see rt::ProgramReport::oracleRan).
         */
        bool oracle = false;
    };

    /**
     * As runSuite above, honoring @p opts.  In keep-going mode every
     * cell runs to a verdict: a failed cell comes back as a
     * RunStatus::Failed report carrying the cell's identity and error,
     * and its siblings are unaffected.
     */
    std::vector<rt::ProgramReport>
    runSuite(const std::string &suite, const rt::LPConfig &cfg,
             const SuiteRunOptions &opts) const;

    /**
     * Geometric-mean speedup of a set of reports.  Only RunStatus::Ok
     * cells participate; failed/skipped cells carry no measurement.
     */
    static double geomeanSpeedup(const std::vector<rt::ProgramReport> &r);

    /** Geometric-mean coverage (in percent) of a set of reports. */
    static double geomeanCoverage(const std::vector<rt::ProgramReport> &r);

  private:
    void prepare(const std::vector<BenchProgram> &programs,
                 const StudyOptions &opts);

    std::vector<std::unique_ptr<PreparedProgram>> programs_;
    std::vector<PrepareFailure> prepareFailures_;
};

} // namespace lp::core
