/**
 * @file
 * The benchmark's workloads and its untraced, timed pass.
 *
 *  - paper_sweep: core::runSweep(suites::allPrograms(), SweepRequest{})
 *    — the default run_study sweep, 30 programs x 14 paperConfigs() on
 *    the batched-replay path.
 *  - lint_sweep: the same call with lintMode = 1 — lint/PDG gate, then
 *    every cell on the per-cell oracle-replay path.
 *  - fuzz_grid: seeded fuzz::generateProgram programs (fixed
 *    conflict-heavy GenOptions) through core::Study and
 *    PreparedProgram::runReplayBatched over the full valid Table II
 *    grid (72 configurations, more than one 64-lane chunk).
 *
 * Every pass starts from fresh Study / Loopapalooza objects: a driver
 * caches its recorded trace, so reusing one would skip recording.
 */

#pragma once

#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/study.hpp"
#include "fuzz/generator.hpp"
#include "rt/config.hpp"

namespace perfbench {

/** Programs in one fuzz_grid program set at full size. */
inline constexpr std::size_t kFuzzPrograms = 48;

/** Programs per workload under --tiny (run.py's TINY_PROGRAMS). */
inline constexpr std::size_t kTinyPrograms = 3;

/**
 * The pinned conflict-heavy generator mix: longer trips, shared-cell
 * read-modify-writes and may-alias scatters weighted up, so squash,
 * shadow-map and predictor state stay busy in every lane.
 */
lp::fuzz::GenOptions fuzzGenOptions();

/** The full valid Table II grid: 72 configurations (DOALL dep0 only). */
std::vector<lp::rt::LPConfig> tableTwoGrid();

struct Workload
{
    std::string name;
    std::vector<lp::core::BenchProgram> programs;
    int lintMode = 0;  ///< sweep workloads: SweepRequest::lintMode
    bool grid = false; ///< fuzz_grid: Study + runReplayBatched
    std::vector<lp::rt::LPConfig> configs; ///< every program's cells
};

/**
 * Build workload @p name.  @p seed picks fuzz_grid's program set
 * (run.py maps its --seed onto the pinned sets).  @p tiny shrinks it
 * to a few programs for the self-test.  Throws std::invalid_argument
 * on an unknown name.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      bool tiny);

/** Keeps runSweep's table and lint findings off the terminal. */
class CoutSilencer
{
  public:
    CoutSilencer() : old_(std::cout.rdbuf(sink_.rdbuf())) {}
    ~CoutSilencer() { std::cout.rdbuf(old_); }

  private:
    std::ostringstream sink_;
    std::streambuf *old_;
};

/** 64-bit FNV-1a, hex-encoded (16 digits). */
std::string digest64(const std::string &bytes);

/** The reports one pass produced, reduced to what the checks need. */
struct PassOutput
{
    double wallS = 0;  ///< timed part only
    double calibNs = 0; ///< Calibrator ns per step alongside it
    int exitCode = 0;  ///< runSweep's exit code (0 for fuzz_grid)
    std::size_t notOk = 0; ///< cells whose status is not "ok"
    std::string docDigest; ///< digest64 of the whole report document
    std::vector<std::string> cellDigests; ///< digest64 per cell
};

/**
 * One timed pass at @p jobs workers, with a Calibrator running on the
 * caller's CPUs alongside it.  @p corruptCell >= 0 flips one
 * byte of that cell's report after timing (self-test of the checks).
 */
PassOutput runPass(const Workload &w, unsigned jobs, int corruptCell);

/**
 * Reference reports for a held-out fuzz_grid program set: every lane
 * run on its own through PreparedProgram::runReplay (the per-cell
 * path), digested the way runPass digests batched lanes.
 */
PassOutput referencePass(const Workload &w, unsigned jobs);

/** Fresh core::Study constructions per set-up process. */
inline constexpr unsigned kSetupReps = 10;

struct SetupOutput
{
    std::vector<double> wallS; ///< each of kSetupReps constructions
    double calibNs = 0;        ///< Calibrator ns per step alongside them
};

/** Time kSetupReps fresh core::Study constructions. */
SetupOutput setupTimes(const Workload &w);

} // namespace perfbench
