/**
 * @file
 * Shared helpers for the per-figure bench harnesses.
 *
 * Every bench binary regenerates one table or figure of the paper: it
 * runs the registered benchmark suites under the relevant configurations
 * and prints measured values next to the paper's reported values (or
 * reported ranges, where the figure only resolves to a range).
 */

#pragma once

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/configs.hpp"
#include "core/study.hpp"
#include "exec/pool.hpp"
#include "obs/json.hpp"
#include "rt/report.hpp"
#include "suites/registry.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

namespace lp::bench {

/** Banner printed by every harness. */
inline void
banner(const std::string &what, const std::string &paperRef)
{
    std::cout << "==========================================================\n"
              << "Loopapalooza reproduction — " << what << "\n"
              << "Paper: Zaidi et al., ISPASS 2021 (" << paperRef << ")\n"
              << "Costs are dynamic IR instruction counts; infinite-"
                 "resource limit study.\n"
              << "==========================================================\n";
}

/** Geomeans of one (configuration, suite) cell of a sweep grid. */
struct SweepCell
{
    double speedup = 0.0;
    double coverage = 0.0;
};

/**
 * Evaluate the full @p configs × @p suitesOrder grid of @p study.  Each
 * program of those suites is one task (parallel across programs; honors
 * --jobs / LP_JOBS via exec::defaultJobs()) and is evaluated under every
 * configuration in one engine pass (PreparedProgram::run).  Cell [c][s]
 * holds the geomeans of configs[c] over suitesOrder[s]'s ok reports, in
 * program-registration order, so tables printed from it are identical
 * whatever the worker count.
 */
inline std::vector<std::vector<SweepCell>>
sweepGrid(const core::Study &study,
          const std::vector<rt::LPConfig> &configs,
          const std::vector<std::string> &suitesOrder)
{
    std::vector<const core::PreparedProgram *> progs;
    for (const auto &p : study.programs())
        if (std::find(suitesOrder.begin(), suitesOrder.end(),
                      p->suite()) != suitesOrder.end())
            progs.push_back(p.get());
    std::vector<std::vector<rt::ProgramReport>> reports(progs.size());
    exec::parallelFor(progs.size(), [&](std::size_t i) {
        reports[i] = progs[i]->run(configs);
    });

    std::vector<std::vector<SweepCell>> grid(
        configs.size(), std::vector<SweepCell>(suitesOrder.size()));
    for (std::size_t c = 0; c < configs.size(); ++c)
        for (std::size_t s = 0; s < suitesOrder.size(); ++s) {
            core::GroupGeomeans geomeans;
            for (std::size_t i = 0; i < progs.size(); ++i)
                if (progs[i]->suite() == suitesOrder[s] &&
                    reports[i][c].ok())
                    geomeans.add(reports[i][c].speedup(),
                                 reports[i][c].coverage);
            grid[c][s] = {geomeans.speedup(), geomeans.coveragePct()};
        }
    return grid;
}

/**
 * Where a harness named @p bench writes its machine-readable results:
 * $BENCH_JSON_DIR/BENCH_<bench>.json, defaulting to the current
 * directory.  These files seed the repo's perf trajectory — one per
 * bench run, diffable across PRs.
 */
inline std::string
benchJsonPath(const std::string &bench)
{
    std::string dir = ".";
    if (const char *env = std::getenv("BENCH_JSON_DIR"))
        dir = env;
    return dir + "/BENCH_" + bench + ".json";
}

/** Pretty-print @p doc to @p path; returns false when unwritable. */
inline bool
writeJsonFile(const std::string &path, const obs::Json &doc)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << doc.dump(2) << '\n';
    return out.good();
}

} // namespace lp::bench
