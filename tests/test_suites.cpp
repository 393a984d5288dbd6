/**
 * @file
 * Tests over the bundled benchmark suites: every kernel builds a valid
 * module, runs deterministically, and exhibits the dependence profile its
 * documentation claims (parameterized across all 30 kernels).
 */

#include <gtest/gtest.h>

#include <set>

#include "analysis/ssa_verify.hpp"
#include "core/driver.hpp"
#include "interp/machine.hpp"
#include "ir/verifier.hpp"
#include "core/configs.hpp"
#include "suites/registry.hpp"

namespace lp {
namespace {

using rt::ExecModel;
using rt::LPConfig;

class SuiteKernel : public ::testing::TestWithParam<core::BenchProgram>
{
};

TEST_P(SuiteKernel, ModuleVerifies)
{
    auto mod = GetParam().build();
    ir::VerifyResult r = ir::verifyModule(*mod);
    EXPECT_TRUE(r.ok()) << r.message();
    ir::VerifyResult ssa = analysis::verifySSA(*mod);
    EXPECT_TRUE(ssa.ok()) << ssa.message();
}

TEST_P(SuiteKernel, RunsDeterministically)
{
    auto m1 = GetParam().build();
    auto m2 = GetParam().build();
    interp::Machine a(*m1), b(*m2);
    EXPECT_EQ(a.run(), b.run());
    EXPECT_EQ(a.cost(), b.cost());
    // Kernels are sized for quick runs: between 50k and 10M instructions.
    EXPECT_GE(a.cost(), 50'000u);
    EXPECT_LE(a.cost(), 10'000'000u);
}

TEST_P(SuiteKernel, AllLoopsAreCanonical)
{
    auto mod = GetParam().build();
    core::Loopapalooza lp(*mod);
    for (const auto &fp : lp.plan().functionPlans()) {
        for (const auto &lplan : fp->loopPlans) {
            ASSERT_NE(lplan.loop, nullptr);
            EXPECT_TRUE(lplan.loop->isCanonical())
                << lplan.loop->label();
        }
    }
}

TEST_P(SuiteKernel, SpeedupInvariantsHoldAcrossConfigs)
{
    auto mod = GetParam().build();
    core::Loopapalooza lp(*mod);
    double prevSerial = 0.0;
    for (const auto &named : core::paperConfigs()) {
        rt::ProgramReport rep = lp.run({named.config}).front();
        EXPECT_LE(rep.parallelCost, rep.serialCost) << named.label;
        EXPECT_GE(rep.coverage, 0.0);
        EXPECT_LE(rep.coverage, 1.0);
        // Serial cost is a property of the program, not the config.
        if (prevSerial != 0.0) {
            EXPECT_EQ(static_cast<double>(rep.serialCost), prevSerial);
        }
        prevSerial = static_cast<double>(rep.serialCost);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, SuiteKernel,
    ::testing::ValuesIn(suites::allPrograms()),
    [](const ::testing::TestParamInfo<core::BenchProgram> &info) {
        std::string name = info.param.name;
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST(SuiteRegistry, AllSuitesPresent)
{
    const auto &all = suites::allPrograms();
    EXPECT_GE(all.size(), 30u);
    EXPECT_EQ(suites::programsInSuite("eembc").size(), 6u);
    EXPECT_EQ(suites::programsInSuite("cfp2000").size(), 5u);
    EXPECT_EQ(suites::programsInSuite("cfp2006").size(), 5u);
    EXPECT_EQ(suites::programsInSuite("cint2000").size(), 7u);
    EXPECT_EQ(suites::programsInSuite("cint2006").size(), 7u);
    EXPECT_EQ(suites::nonNumericPrograms().size(), 14u);
    EXPECT_EQ(suites::numericPrograms().size(), 16u);
    // Names unique.
    std::set<std::string> names;
    for (const auto &p : all)
        EXPECT_TRUE(names.insert(p.name).second) << p.name;
}

TEST(SuiteProfiles, VprIsSerialUntilFn3)
{
    for (const auto &prog : suites::programsInSuite("cint2000")) {
        if (prog.name != "175.vpr-like")
            continue;
        core::PreparedProgram pp(prog);
        const auto reps = pp.run(
            {LPConfig::parse("reduc1-dep2-fn2", ExecModel::PartialDoAll),
             LPConfig::parse("reduc1-dep2-fn3", ExecModel::PartialDoAll)});
        double fn2 = reps[0].speedup();
        double fn3 = reps[1].speedup();
        EXPECT_LT(fn2, 1.2); // rand() keeps it serial
        EXPECT_GE(fn3, fn2);
    }
}

TEST(SuiteProfiles, LibquantumExplodesAtFn2)
{
    for (const auto &prog : suites::programsInSuite("cint2006")) {
        if (prog.name != "462.libquantum-like")
            continue;
        core::PreparedProgram pp(prog);
        const auto reps = pp.run(
            {LPConfig::parse("reduc0-dep0-fn0", ExecModel::PartialDoAll),
             LPConfig::parse("reduc0-dep0-fn2", ExecModel::PartialDoAll)});
        double fn0 = reps[0].speedup();
        double fn2 = reps[1].speedup();
        // The famous outlier: the amplitude loop needs only fn2.
        EXPECT_LT(fn0, 1.5);
        EXPECT_GT(fn2, 4.0);
    }
}

TEST(SuiteProfiles, GzipNeedsHelixDep1)
{
    for (const auto &prog : suites::programsInSuite("cint2000")) {
        if (prog.name != "164.gzip-like")
            continue;
        core::PreparedProgram pp(prog);
        const auto reps = pp.run(
            {core::bestPdoall(),
             LPConfig::parse("reduc1-dep0-fn2", ExecModel::Helix),
             core::bestHelix()});
        double pdoall = reps[0].speedup();
        double helixDep0 = reps[1].speedup();
        double helixDep1 = reps[2].speedup();
        // Speculation fails (hash table conflicts every position), and
        // HELIX only helps once dep1 forwards the cursor.
        EXPECT_LT(pdoall, 1.5);
        EXPECT_GT(helixDep1, 2.0 * helixDep0);
        EXPECT_GT(helixDep1, 2.5);
    }
}

TEST(SuiteProfiles, PdoallPrefersArtSoplexSphinxMcf06)
{
    const char *names[] = {"179.art-like", "450.soplex-like",
                           "482.sphinx3-like", "429.mcf-like"};
    for (const auto &prog : suites::allPrograms()) {
        for (const char *n : names) {
            if (prog.name != n)
                continue;
            core::PreparedProgram pp(prog);
            double pdoall = pp.run({core::bestPdoall()}).front().speedup();
            double helix = pp.run({core::bestHelix()}).front().speedup();
            EXPECT_GT(pdoall, helix) << prog.name;
        }
    }
}

} // namespace
} // namespace lp
