/**
 * @file
 * Tests for the lane engine's shape (src/rt/engine.* + the core front
 * ends).  tests/test_golden.cpp pins the reports themselves; this file
 * holds the properties around them: a configuration's report does not
 * depend on how many lanes share its pass or where a lane-set word
 * boundary falls, one interpretation feeds the one engine of a run, the
 * live stream reports what the recorded trace replays to, malformed
 * inputs fail with LP_IO, the dispatch table covers the module, and the
 * engine's metrics count each event once.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/configs.hpp"
#include "core/driver.hpp"
#include "core/study.hpp"
#include "core/sweep.hpp"
#include "fuzz/differential.hpp"
#include "guard/fault.hpp"
#include "helpers.hpp"
#include "interp/machine.hpp"
#include "obs/metrics.hpp"
#include "rt/engine.hpp"
#include "support/error.hpp"
#include "trace/batch.hpp"

namespace lp {
namespace {

using core::Loopapalooza;
using rt::ExecModel;
using rt::LPConfig;

/** Every fixture shape the trace tests exercise, plus the shuffled
 *  chase (unpredictable carried value — the predictor-heavy case). */
std::vector<std::pair<std::string, std::unique_ptr<ir::Module>>>
allShapes()
{
    std::vector<std::pair<std::string, std::unique_ptr<ir::Module>>> out;
    out.emplace_back("saxpy", test::buildSaxpy(64));
    out.emplace_back("sum", test::buildSumReduction(64));
    out.emplace_back("chase", test::buildPointerChase(48));
    out.emplace_back("chase-shuffled", test::buildPointerChaseShuffled(64));
    out.emplace_back("hist", test::buildHistogram(64, 8));
    out.emplace_back("calls",
                     test::buildLoopWithCalls(32,
                                              test::CalleeKind::Pure));
    out.emplace_back(
        "calls-inst",
        test::buildLoopWithCalls(32, test::CalleeKind::Instrumented));
    return out;
}

/** The 72 Table II configurations plus single-sync HELIX variants —
 *  every model, every dep/reduc/fn axis, both DOACROSS synchronization
 *  modes: 74 lanes. */
std::vector<LPConfig>
fullGrid()
{
    std::vector<LPConfig> grid = core::tableTwoConfigs();
    for (const char *flags : {"reduc0-dep1-fn2", "reduc1-dep1-fn2"}) {
        LPConfig ss = LPConfig::parse(flags, ExecModel::Helix);
        ss.singleSyncDoacross = true;
        grid.push_back(ss);
    }
    return grid;
}

std::string
dump(const rt::ProgramReport &rep)
{
    return rep.toJson(/*withObsSnapshot=*/false).dump(2);
}

std::vector<std::string>
dumps(const std::vector<rt::ProgramReport> &reps)
{
    std::vector<std::string> out;
    for (const rt::ProgramReport &rep : reps)
        out.push_back(dump(rep));
    return out;
}

// ------------------------------------------- lane-count independence

TEST(BatchTest, EveryLaneMatchesItsOwnOneLanePass)
{
    // Passes of fullGrid() lanes (by index): the grid repeated to lane
    // counts around one, two and three 64-lane words, up to twice over,
    // so every configuration runs in two different words; and 64
    // reduc1-dep0-fn0 DOALL lanes, then HELIX lanes that alone deem the
    // LCD and call loops eligible and alone track reductions (reduc0).
    // A lane set that drops, duplicates or shifts a bit across a word
    // boundary breaks a lane on one side of it, live or replayed.
    const std::vector<LPConfig> grid = fullGrid();
    auto at = [&](const char *flags, ExecModel model) {
        return static_cast<std::size_t>(
            std::find(grid.begin(), grid.end(),
                      LPConfig::parse(flags, model)) -
            grid.begin());
    };
    std::vector<std::vector<std::size_t>> passes;
    for (std::size_t n : {63u, 64u, 65u, 128u, 148u}) {
        passes.emplace_back();
        for (std::size_t i = 0; i < n; ++i)
            passes.back().push_back(i % grid.size());
    }
    passes.emplace_back(64, at("reduc1-dep0-fn0", ExecModel::DoAll));
    passes.back().push_back(at("reduc0-dep1-fn3", ExecModel::Helix));
    passes.back().push_back(at("reduc1-dep3-fn3", ExecModel::Helix));
    for (auto &[name, mod] : allShapes()) {
        Loopapalooza lp(*mod);
        for (bool oracle : {false, true}) {
            std::vector<std::string> single;
            for (const LPConfig &cfg : grid)
                single.push_back(dump(lp.run({cfg}, oracle).front()));
            for (const std::vector<std::size_t> &pass : passes) {
                std::vector<LPConfig> many;
                for (std::size_t g : pass)
                    many.push_back(grid[g]);
                const std::vector<std::string> live =
                    dumps(lp.run(many, oracle));
                const std::vector<std::string> replayed =
                    dumps(fuzz::replayReports(lp, many, oracle));
                ASSERT_EQ(live.size(), pass.size());
                ASSERT_EQ(replayed.size(), pass.size());
                for (std::size_t i = 0; i < pass.size(); ++i) {
                    EXPECT_EQ(live[i], single[pass[i]])
                        << name << " live lane " << i << " of "
                        << pass.size() << (oracle ? " with the oracle" : "");
                    EXPECT_EQ(replayed[i], single[pass[i]])
                        << name << " replayed lane " << i << " of "
                        << pass.size() << (oracle ? " with the oracle" : "");
                }
            }
        }
    }
}

TEST(BatchTest, EmptyConfigListYieldsNoReports)
{
    auto mod = test::buildSaxpy(16);
    Loopapalooza lp(*mod);
    EXPECT_TRUE(lp.run({}).empty());
}

// ----------------------------------------------------- live event feed

TEST(BatchTest, OneInterpretationFeedsTheEngineOfARun)
{
    auto mod = test::buildHistogram(64, 8);
    const std::vector<LPConfig> grid = core::tableTwoConfigs();
    ASSERT_EQ(grid.size(), 72u); // two lane-set words

    const bool saved = obs::metricsOn();
    obs::setMetricsEnabled(true);
    obs::Registry &reg = obs::Registry::instance();
    // {interp.runs, engine.mem_events} of one run() over @p cfgs.
    auto counts = [&](const std::vector<LPConfig> &cfgs, bool oracle) {
        Loopapalooza lp(*mod);
        reg.resetAll();
        std::vector<std::string> reps = dumps(lp.run(cfgs, oracle));
        EXPECT_EQ(reps.size(), cfgs.size());
        return std::make_pair(reg.counter("interp.runs").value(),
                              reg.counter("engine.mem_events").value());
    };
    const auto all = counts(grid, false);
    const auto allOracle = counts(grid, true);
    const auto one = counts({grid.front()}, false);
    obs::setMetricsEnabled(saved);
    reg.resetAll();

    EXPECT_EQ(all.first, 1u);
    EXPECT_EQ(allOracle.first, 1u);
    // The stream's events are counted once.
    EXPECT_GT(one.second, 0u);
    EXPECT_EQ(all.second, one.second);
    EXPECT_EQ(allOracle.second, one.second);

    // One engine evaluates all 72 lanes: the engine site (passed once
    // per engine) is hit once.
    Loopapalooza lp(*mod);
    guard::setFault("engine", 1000000);
    (void)lp.run(grid);
    EXPECT_EQ(guard::faultSiteHits("engine"), 1u);
    guard::setFault("", 0);
}

// ------------------------------------------------------ error taxonomy

TEST(BatchTest, EvaluateRejectsAForeignTrace)
{
    auto saxpy = test::buildSaxpy(32);
    auto sum = test::buildSumReduction(32);
    Loopapalooza lpa(*saxpy);
    Loopapalooza lpb(*sum);
    EXPECT_THROW(rt::evaluate(lpb.plan(), lpb.dispatchTable(),
                              &lpa.trace(), fullGrid(), "mismatch"),
                 IoError);
}

// -------------------------------------------------- dispatch table shape

TEST(BatchTest, DispatchTableCoversTheWholeModule)
{
    auto mod = test::buildHistogram(64, 8);
    Loopapalooza lp(*mod);
    const trace::BatchDispatchTable &table = lp.dispatchTable();
    ASSERT_EQ(table.functions.size(), mod->functions().size());
    for (std::size_t f = 0; f < table.functions.size(); ++f)
        EXPECT_EQ(table.functions[f]->index(), f);
    std::size_t instrs = 0, headers = 0, watches = 0;
    for (std::size_t b = 0; b < table.blocks.size(); ++b) {
        const trace::BatchDispatchTable::BlockInfo &bi = table.blocks[b];
        ASSERT_NE(bi.bb, nullptr);
        // Indexed by the IR's own ids.
        EXPECT_EQ(bi.bb->globalIndex(), b);
        EXPECT_EQ(bi.fnId, bi.bb->parent()->index());
        EXPECT_EQ(bi.size, bi.bb->instructions().size());
        EXPECT_EQ(bi.headerOrdinal, lp.plan().headerOrdinal(bi.bb));
        EXPECT_EQ(bi.firstWatch, watches);
        instrs += bi.size;
        headers += bi.headerOrdinal >= 0 ? 1 : 0;
        watches += bi.numWatches;
    }
    EXPECT_EQ(table.instrs.size(), instrs);
    EXPECT_EQ(table.callCost.size(), instrs);
    EXPECT_EQ(headers, lp.plan().numLoops());
    EXPECT_EQ(table.defWatches.size(), watches);
}

// ------------------------------------------------------ engine metrics

/** Counts the loads and stores a plain interpreter run performs. */
class MemEventCounter : public interp::ExecListener
{
  public:
    void onLoad(const ir::Instruction *, std::uint64_t) override { ++n; }
    void onStore(const ir::Instruction *, std::uint64_t) override { ++n; }
    std::uint64_t n = 0;
};

TEST(BatchTest, EngineCountsEachEventOnceWhateverTheLaneCount)
{
    auto mod = test::buildHistogram(64, 8);
    MemEventCounter plain;
    interp::Machine machine(*mod, &plain);
    machine.run();
    ASSERT_GT(plain.n, 0u);

    std::vector<LPConfig> paper;
    for (const core::NamedConfig &named : core::paperConfigs())
        paper.push_back(named.config);
    ASSERT_EQ(paper.size(), 14u);

    const bool saved = obs::metricsOn();
    obs::setMetricsEnabled(true);
    obs::Registry &reg = obs::Registry::instance();
    // {engine.mem_events, engine.loop_instances} after one pass.
    auto counts = [&](const std::vector<LPConfig> &cfgs) {
        Loopapalooza lp(*mod);
        reg.resetAll();
        (void)lp.run(cfgs);
        return std::make_pair(reg.counter("engine.mem_events").value(),
                              reg.counter("engine.loop_instances").value());
    };
    const auto one = counts({paper.front()});
    const auto all = counts(paper);
    obs::setMetricsEnabled(saved);
    reg.resetAll();

    EXPECT_EQ(one.first, plain.n);
    EXPECT_EQ(all.first, plain.n);
    EXPECT_GT(one.second, 0u);
    EXPECT_EQ(all.second, one.second);
}

// ------------------------------------------- sweep-level event sources

TEST(BatchTest, SweepCellsMatchTheReplayedTraceByteForByte)
{
    std::vector<core::BenchProgram> progs;
    progs.push_back({"saxpy", "unit", [] { return test::buildSaxpy(32); }});
    progs.push_back(
        {"hist", "unit", [] { return test::buildHistogram(48, 8); }});
    progs.push_back(
        {"chase", "unit", [] { return test::buildPointerChase(32); }});
    core::SweepRequest req;
    req.suite = "unit";
    req.wantJson = true;
    for (int lintMode : {0, 1}) {
        req.lintMode = lintMode;
        core::SweepResult res = core::runSweep(progs, req);
        ASSERT_EQ(res.exitCode, 0);
        ASSERT_TRUE(res.hasDocument);
        const obs::Json &cells = res.document.at("reports");

        // Sweep cells are configuration-major over the programs.
        const std::vector<core::NamedConfig> &paper = core::paperConfigs();
        std::vector<LPConfig> cfgs;
        for (const core::NamedConfig &named : paper)
            cfgs.push_back(named.config);
        ASSERT_EQ(cells.size(), paper.size() * progs.size());
        for (std::size_t p = 0; p < progs.size(); ++p) {
            auto mod = progs[p].build();
            Loopapalooza lp(*mod);
            std::vector<rt::ProgramReport> want =
                fuzz::replayReports(lp, cfgs, lintMode != 0);
            for (std::size_t c = 0; c < cfgs.size(); ++c) {
                want[c].program = progs[p].name; // as the sweep stamps it
                EXPECT_EQ(cells.at(c * progs.size() + p).dump(),
                          want[c].toJson(/*withObsSnapshot=*/false).dump())
                    << progs[p].name << " under " << paper[c].label
                    << " lint " << lintMode;
            }
        }
    }
}

} // namespace
} // namespace lp
