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
#include "support/stats.hpp"

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

/**
 * Geometric means of one (configuration, suite) group of cells, over
 * its ok cells.  Both Study's geomeans and runSweep's table aggregate
 * through it, so the clamp lives here only: speedup is floored at 1e-6
 * and coverage (in percent) at 0.1 %, so a degenerate cell (a zero
 * speedup from an empty or filtered run) depresses the mean instead of
 * aborting the aggregation.
 */
class GroupGeomeans
{
  public:
    /** Add one ok cell: its speedup and coverage fraction (0..1). */
    void add(double speedup, double coverage);

    double speedup() const { return speedup_.value(); }
    double coveragePct() const { return coverage_.value(); }

  private:
    GeomeanAccum speedup_;
    GeomeanAccum coverage_;
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

/**
 * A set of prepared programs with suite-level aggregation.
 *
 * Preparation is embarrassingly parallel (every program is built and
 * analyzed on its own), so it accepts a worker count.  The default,
 * exec::defaultJobs(), honors --jobs / LP_JOBS and falls back to
 * serial.  Programs are ordered by registration index regardless of
 * worker count.  Programs are evaluated through runSweep (sweep.hpp)
 * or one PreparedProgram::run per program.
 */
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
