/**
 * @file
 * Golden report digests: the byte-level contract of the limit study.
 *
 * tests/golden/report_digests.txt pins, for a fixed corpus, the 64-bit
 * FNV-1a digest of every report's `toJson(false).dump()` (stamped with
 * the program's generator seed, as a sweep stamps it).  The corpus:
 *
 *  - grid:   all 30 suite programs x the 72 valid Table II configs;
 *  - oracle: all 30 suite programs x the 14 paper configs with the
 *            static-vs-dynamic consistency oracle attached;
 *  - random: the fuzz generator's seeds 1, 7, 23, 51, 94 x the grid;
 *  - corpus: every tests/fuzz_corpus entry x the grid.
 *
 * The digests were captured from the per-configuration tracker that
 * predates the single lane engine (one replay per cell), so this test
 * is what keeps the engine's reports identical to the model code it
 * replaced.  Every cell is recomputed here — the grid groups from one
 * interpretation per program fanned out to two 64-lane engines, the
 * oracle group in one 14-lane engine sharing one capture, once fed
 * live and once replayed from the recorded trace; a mismatch names the
 * cell and its fresh digest.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/configs.hpp"
#include "core/driver.hpp"
#include "core/study.hpp"
#include "fuzz/differential.hpp"
#include "fuzz/generator.hpp"
#include "interp/stdlib.hpp"
#include "ir/parser.hpp"
#include "suites/registry.hpp"

namespace lp {
namespace {

namespace fs = std::filesystem;
using rt::LPConfig;

std::string
digest64(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::vector<LPConfig>
paperGrid()
{
    std::vector<LPConfig> out;
    for (const core::NamedConfig &named : core::paperConfigs())
        out.push_back(named.config);
    return out;
}

/** Cell key -> pinned digest, loaded once. */
const std::map<std::string, std::string> &
goldens()
{
    static const std::map<std::string, std::string> table = [] {
        std::map<std::string, std::string> t;
        std::ifstream in(std::string(LP_SOURCE_DIR) +
                         "/tests/golden/report_digests.txt");
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            const std::size_t sp = line.rfind(' ');
            t[line.substr(0, sp)] = line.substr(sp + 1);
        }
        return t;
    }();
    return table;
}

std::string
cellKey(const std::string &group, const std::string &program,
        const LPConfig &cfg)
{
    return group + " " + program + " " + cfg.str();
}

/**
 * Compare every report of one program against the pinned digests.
 * Returns the number of cells checked.
 */
std::size_t
checkProgram(const std::string &group, const std::string &program,
             std::uint64_t seed, const std::vector<LPConfig> &cfgs,
             std::vector<rt::ProgramReport> reps)
{
    EXPECT_EQ(reps.size(), cfgs.size()) << program;
    std::size_t checked = 0;
    for (std::size_t i = 0; i < reps.size() && i < cfgs.size(); ++i) {
        reps[i].seed = seed;
        const std::string key = cellKey(group, program, cfgs[i]);
        const std::string fresh =
            digest64(reps[i].toJson(/*withObsSnapshot=*/false).dump());
        auto it = goldens().find(key);
        if (it == goldens().end()) {
            ADD_FAILURE() << "no pinned digest for cell [" << key
                          << "] (fresh digest " << fresh << ")";
            continue;
        }
        EXPECT_EQ(it->second, fresh)
            << "report digest changed for cell [" << key
            << "]: fresh digest " << fresh;
        ++checked;
    }
    return checked;
}

std::size_t
pinnedCells(const std::string &group)
{
    std::size_t n = 0;
    for (const auto &[key, digest] : goldens())
        n += key.rfind(group + " ", 0) == 0 ? 1 : 0;
    return n;
}

TEST(Golden, DigestFileIsPresent)
{
    // 30 x 72 + 30 x 14 + 5 x 72 + corpus x 72.
    ASSERT_GE(goldens().size(), 30u * 72 + 30u * 14 + 5u * 72);
}

TEST(Golden, SuiteProgramsAcrossTheTableTwoGrid)
{
    const std::vector<LPConfig> grid = core::tableTwoConfigs();
    core::Study study(suites::allPrograms());
    ASSERT_EQ(study.programs().size(), 30u);
    std::size_t checked = 0;
    for (const auto &p : study.programs())
        checked += checkProgram("grid", p->name(), 0, grid, p->run(grid));
    EXPECT_EQ(checked, pinnedCells("grid"));
}

TEST(Golden, SuiteProgramsWithTheOracleAcrossThePaperConfigs)
{
    const std::vector<LPConfig> cfgs = paperGrid();
    core::Study study(suites::allPrograms());
    std::size_t checked = 0;
    for (const auto &p : study.programs())
        checked += checkProgram("oracle", p->name(), 0, cfgs,
                                p->run(cfgs, /*oracle=*/true));
    EXPECT_EQ(checked, pinnedCells("oracle"));
}

TEST(Golden, SuiteProgramsReplayedMatchTheSameDigests)
{
    // The second event source: each program's recorded trace, replayed
    // with the oracle attached.
    const std::vector<LPConfig> cfgs = paperGrid();
    core::Study study(suites::allPrograms());
    std::size_t checked = 0;
    for (const auto &p : study.programs()) {
        std::vector<rt::ProgramReport> reps =
            fuzz::replayReports(p->driver(), cfgs, /*oracle=*/true);
        for (rt::ProgramReport &rep : reps)
            rep.program = p->name(); // as PreparedProgram::run stamps it
        checked += checkProgram("oracle", p->name(), 0, cfgs, reps);
    }
    EXPECT_EQ(checked, pinnedCells("oracle"));
}

TEST(Golden, RandomProgramsAcrossTheTableTwoGrid)
{
    const std::vector<LPConfig> grid = core::tableTwoConfigs();
    std::size_t checked = 0;
    for (std::uint64_t seed : {1u, 7u, 23u, 51u, 94u}) {
        auto mod = fuzz::generateProgram(seed);
        core::Loopapalooza lp(*mod);
        checked +=
            checkProgram("random", mod->name(), seed, grid, lp.run(grid));
    }
    EXPECT_EQ(checked, pinnedCells("random"));
}

TEST(Golden, FuzzCorpusEntriesAcrossTheTableTwoGrid)
{
    const std::vector<LPConfig> grid = core::tableTwoConfigs();
    const fs::path corpus =
        fs::path(LP_SOURCE_DIR) / "tests" / "fuzz_corpus";
    std::vector<fs::path> entries;
    for (const auto &e : fs::directory_iterator(corpus))
        if (e.path().extension() == ".repro")
            entries.push_back(e.path());
    std::sort(entries.begin(), entries.end());
    ASSERT_FALSE(entries.empty());

    std::size_t checked = 0;
    for (const fs::path &repro : entries) {
        std::uint64_t seed = 0;
        std::ifstream side(repro);
        std::string line;
        while (std::getline(side, line))
            if (line.rfind("seed=", 0) == 0)
                seed = std::stoull(line.substr(5));
        fs::path lir = repro;
        lir.replace_extension(".lir");
        std::ifstream in(lir);
        std::stringstream text;
        text << in.rdbuf();
        auto mod = ir::parseModule(text.str(), interp::stdlibImplFor);
        core::Loopapalooza lp(*mod);
        checked += checkProgram("corpus", repro.stem().string(), seed,
                                grid, lp.run(grid));
    }
    EXPECT_EQ(checked, pinnedCells("corpus"));
}

} // namespace
} // namespace lp
