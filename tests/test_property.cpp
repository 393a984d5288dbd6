/**
 * @file
 * Property-based tests: 32 randomly generated programs are pushed through
 * the entire pipeline, checking the invariants the limit study's algebra
 * must satisfy on EVERY program, not just the curated kernels:
 *
 *  - structural and SSA validity of generated IR;
 *  - deterministic execution and deterministic reports;
 *  - parallel cost never exceeds serial cost (speedup >= 1);
 *  - coverage stays within [0, 1];
 *  - relaxing a constraint never hurts: DOALL <= PDOALL, dep0 <= dep2 <=
 *    dep3, reduc0 <= reduc1, fn0 <= fn1 <= fn2 <= fn3 (under PDOALL);
 *  - single-sync DOACROSS never beats multi-sync HELIX.
 */

#include <gtest/gtest.h>

#include "analysis/ssa_verify.hpp"
#include "core/driver.hpp"
#include "core/configs.hpp"
#include "generator.hpp"
#include "interp/machine.hpp"
#include "ir/verifier.hpp"

namespace lp {
namespace {

using rt::ExecModel;
using rt::LPConfig;

constexpr double kTol = 1e-9;

class RandomProgram : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomProgram, VerifiesStructurallyAndSsa)
{
    auto mod = test::generateRandomProgram(GetParam());
    ir::VerifyResult r = ir::verifyModule(*mod);
    ASSERT_TRUE(r.ok()) << r.message();
    ir::VerifyResult ssa = analysis::verifySSA(*mod);
    ASSERT_TRUE(ssa.ok()) << ssa.message();
}

TEST_P(RandomProgram, DeterministicExecution)
{
    auto m1 = test::generateRandomProgram(GetParam());
    auto m2 = test::generateRandomProgram(GetParam());
    interp::Machine a(*m1), b(*m2);
    EXPECT_EQ(a.run(), b.run());
    EXPECT_EQ(a.cost(), b.cost());
}

TEST_P(RandomProgram, CostAndCoverageInvariants)
{
    auto mod = test::generateRandomProgram(GetParam());
    core::Loopapalooza lp(*mod);
    for (const auto &named : core::paperConfigs()) {
        rt::ProgramReport rep = lp.run({named.config}).front();
        EXPECT_LE(rep.parallelCost, rep.serialCost) << named.label;
        EXPECT_GE(rep.speedup(), 1.0 - kTol) << named.label;
        EXPECT_GE(rep.coverage, 0.0) << named.label;
        EXPECT_LE(rep.coverage, 1.0 + kTol) << named.label;
        for (const auto &lr : rep.loops) {
            EXPECT_LE(lr.parallelCost, lr.adjustedCost)
                << named.label << " " << lr.label;
            EXPECT_LE(lr.adjustedCost, lr.serialCost)
                << named.label << " " << lr.label;
        }
    }
}

TEST_P(RandomProgram, RelaxationMonotonicity)
{
    auto mod = test::generateRandomProgram(GetParam());
    core::Loopapalooza lp(*mod);

    auto speedup = [&](const char *flags, ExecModel model) {
        return lp.run({LPConfig::parse(flags, model)}).front().speedup();
    };

    // DOALL <= PDOALL at identical flags.
    EXPECT_LE(speedup("reduc0-dep0-fn0", ExecModel::DoAll),
              speedup("reduc0-dep0-fn0", ExecModel::PartialDoAll) + kTol);
    EXPECT_LE(speedup("reduc1-dep0-fn2", ExecModel::DoAll),
              speedup("reduc1-dep0-fn2", ExecModel::PartialDoAll) + kTol);

    // dep ladder under PDOALL.
    double d0 = speedup("reduc0-dep0-fn2", ExecModel::PartialDoAll);
    double d2 = speedup("reduc0-dep2-fn2", ExecModel::PartialDoAll);
    double d3 = speedup("reduc0-dep3-fn2", ExecModel::PartialDoAll);
    EXPECT_LE(d0, d2 + kTol);
    EXPECT_LE(d2, d3 + kTol);

    // reduc ladder.
    EXPECT_LE(speedup("reduc0-dep2-fn2", ExecModel::PartialDoAll),
              speedup("reduc1-dep2-fn2", ExecModel::PartialDoAll) + kTol);

    // fn ladder.
    double f0 = speedup("reduc1-dep2-fn0", ExecModel::PartialDoAll);
    double f1 = speedup("reduc1-dep2-fn1", ExecModel::PartialDoAll);
    double f2 = speedup("reduc1-dep2-fn2", ExecModel::PartialDoAll);
    double f3 = speedup("reduc1-dep2-fn3", ExecModel::PartialDoAll);
    EXPECT_LE(f0, f1 + kTol);
    EXPECT_LE(f1, f2 + kTol);
    EXPECT_LE(f2, f3 + kTol);
}

TEST_P(RandomProgram, DoacrossNeverBeatsHelix)
{
    auto mod = test::generateRandomProgram(GetParam());
    core::Loopapalooza lp(*mod);
    LPConfig helix = LPConfig::parse("reduc1-dep1-fn2", ExecModel::Helix);
    LPConfig doacross = helix;
    doacross.singleSyncDoacross = true;
    EXPECT_LE(lp.run({doacross}).front().speedup(),
              lp.run({helix}).front().speedup() + kTol);
}

TEST_P(RandomProgram, ReportsAreReproducible)
{
    auto mod = test::generateRandomProgram(GetParam());
    core::Loopapalooza lp(*mod);
    LPConfig cfg = core::bestHelix();
    rt::ProgramReport a = lp.run({cfg}).front();
    rt::ProgramReport b = lp.run({cfg}).front();
    EXPECT_EQ(a.serialCost, b.serialCost);
    EXPECT_EQ(a.parallelCost, b.parallelCost);
    EXPECT_EQ(a.coverage, b.coverage);
    ASSERT_EQ(a.loops.size(), b.loops.size());
    for (std::size_t i = 0; i < a.loops.size(); ++i) {
        EXPECT_EQ(a.loops[i].parallelCost, b.loops[i].parallelCost);
        EXPECT_EQ(a.loops[i].memConflicts, b.loops[i].memConflicts);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgram,
                         ::testing::Range<std::uint64_t>(0, 32));

} // namespace
} // namespace lp
