/**
 * @file
 * The 14 configurations evaluated in the paper's Figures 2 and 3, in the
 * bottom-to-top order of those figures, plus the named "best" points used
 * by Figures 4 and 5.
 */

#pragma once

#include <string>
#include <vector>

#include "rt/config.hpp"

namespace lp::core {

/** One labelled figure row. */
struct NamedConfig
{
    std::string label; ///< e.g. "reduc1-dep2-fn0 PDOALL"
    rt::LPConfig config;
};

/** All 14 rows of Figures 2/3, bottom (DOALL) to top (HELIX). */
const std::vector<NamedConfig> &paperConfigs();

/**
 * Every valid Table II configuration (72): each model x reduc x dep x
 * fn, except DOALL with dep != 0.
 */
std::vector<rt::LPConfig> tableTwoConfigs();

/** Best realistic PDOALL point of Figure 4: reduc1-dep2-fn2 PDOALL. */
rt::LPConfig bestPdoall();

/** Best HELIX point of Figure 4: reduc1-dep1-fn2 HELIX. */
rt::LPConfig bestHelix();

/** The three rows of Figure 5 (coverage). */
const std::vector<NamedConfig> &coverageConfigs();

} // namespace lp::core
