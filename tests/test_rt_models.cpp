/**
 * @file
 * Unit tests for the execution-model cost algebra (paper Section III-B):
 * DOALL, Partial-DOALL phases + 80% rule, the HELIX closed form, the
 * single-sync DOACROSS ablation model, nested savings propagation, and
 * coverage accounting.  Programs are crafted so the expected costs can be
 * reasoned about by hand.
 */

#include <gtest/gtest.h>

#include "core/driver.hpp"
#include "ir/builder.hpp"

namespace lp {
namespace {

using namespace ir;
using core::Loopapalooza;
using rt::ExecModel;
using rt::LPConfig;
using rt::LoopReport;
using rt::ProgramReport;

LPConfig
cfg(const char *flags, ExecModel model)
{
    return LPConfig::parse(flags, model);
}

const LoopReport &
loop(const ProgramReport &rep, const std::string &substr)
{
    for (const auto &lr : rep.loops)
        if (lr.label.find(substr) != std::string::npos)
            return lr;
    throw std::runtime_error("loop not found: " + substr);
}

/** N iterations of fixed work, no dependencies at all. */
std::unique_ptr<Module>
buildIndependent(std::int64_t n, int work)
{
    auto mod = std::make_unique<Module>("independent");
    IRBuilder b(*mod);
    Global *out = mod->addGlobal("out", n * 8);
    b.createFunction("main", Type::I64);
    CountedLoop l(b, b.i64(0), b.i64(n), b.i64(1), "i");
    Value *v = l.iv();
    for (int r = 0; r < work; ++r)
        v = b.add(b.mul(v, b.i64(3)), b.i64(r));
    b.store(v, b.elem(out, l.iv()));
    l.finish();
    b.ret(b.i64(0));
    mod->finalize();
    return mod;
}

/**
 * N iterations; every iteration loads then stores one shared cell, with
 * @p pre instructions before the load and @p mid instructions between
 * load and store.  Every iteration conflicts with its predecessor at
 * distance 1; the HELIX delta is the store-to-load window (~mid + 1).
 */
std::unique_ptr<Module>
buildSharedCell(std::int64_t n, int pre, int mid, int post)
{
    auto mod = std::make_unique<Module>("shared-cell");
    IRBuilder b(*mod);
    Global *cell = mod->addGlobal("cell", 8);
    Global *out = mod->addGlobal("out", n * 8);
    b.createFunction("main", Type::I64);
    CountedLoop l(b, b.i64(0), b.i64(n), b.i64(1), "i");
    Value *v = l.iv();
    for (int r = 0; r < pre; ++r)
        v = b.add(v, b.i64(1));
    Value *c = b.load(Type::I64, b.elem(cell, b.i64(0)));
    Value *w = b.add(c, v);
    for (int r = 0; r < mid; ++r)
        w = b.add(w, b.i64(1));
    b.store(w, b.elem(cell, b.i64(0)));
    Value *x = w;
    for (int r = 0; r < post; ++r)
        x = b.add(x, b.i64(1));
    b.store(x, b.elem(out, l.iv()));
    l.finish();
    b.ret(b.i64(0));
    mod->finalize();
    return mod;
}

/** One conflicting iteration pair (iter `at` reads what `at-1` wrote). */
std::unique_ptr<Module>
buildOneConflict(std::int64_t n, std::int64_t at, int work)
{
    auto mod = std::make_unique<Module>("one-conflict");
    IRBuilder b(*mod);
    Global *cell = mod->addGlobal("cell", 8);
    Global *out = mod->addGlobal("out", n * 8);
    b.createFunction("main", Type::I64);
    CountedLoop l(b, b.i64(0), b.i64(n), b.i64(1), "i");
    Value *v = l.iv();
    for (int r = 0; r < work; ++r)
        v = b.add(b.mul(v, b.i64(3)), b.i64(1));
    Value *isW = b.icmpEq(l.iv(), b.i64(at - 1));
    BasicBlock *wr = b.newBlock("wr");
    BasicBlock *mid = b.newBlock("mid");
    b.br(isW, wr, mid);
    b.setInsertPoint(wr);
    b.store(v, b.elem(cell, b.i64(0)));
    b.jmp(mid);
    b.setInsertPoint(mid);
    Value *isR = b.icmpEq(l.iv(), b.i64(at));
    BasicBlock *rd = b.newBlock("rd");
    BasicBlock *cont = b.newBlock("cont");
    b.br(isR, rd, cont);
    b.setInsertPoint(rd);
    Value *got = b.load(Type::I64, b.elem(cell, b.i64(0)));
    b.store(got, b.elem(out, b.i64(0)));
    b.jmp(cont);
    b.setInsertPoint(cont);
    b.store(v, b.elem(out, l.iv()));
    l.finish();
    b.ret(b.i64(0));
    mod->finalize();
    return mod;
}

TEST(Models, DoallIndependentLoopCostsOneIteration)
{
    auto mod = buildIndependent(500, 10);
    Loopapalooza lp(*mod);
    ProgramReport rep =
        lp.run({cfg("reduc0-dep0-fn0", ExecModel::DoAll)}).front();
    const LoopReport &lr = loop(rep, "i.hdr");
    // Parallel cost must be on the order of one iteration.
    EXPECT_LE(lr.parallelCost, 3 * lr.serialCost / 500);
    EXPECT_EQ(lr.memConflicts, 0u);
    EXPECT_EQ(lr.serializedInstances, 0u);
}

TEST(Models, DoallSerializesOnSingleConflict)
{
    auto mod = buildOneConflict(200, 100, 8);
    Loopapalooza lp(*mod);
    ProgramReport rep =
        lp.run({cfg("reduc0-dep0-fn0", ExecModel::DoAll)}).front();
    const LoopReport &lr = loop(rep, "i.hdr");
    EXPECT_GE(lr.memConflicts, 1u);
    EXPECT_EQ(lr.parallelCost, lr.adjustedCost); // no gain at all
    EXPECT_EQ(lr.serializedInstances, 1u);
}

TEST(Models, PdoallPaysOnePhasePerConflict)
{
    auto mod = buildOneConflict(200, 100, 8);
    Loopapalooza lp(*mod);
    ProgramReport rep =
        lp.run({cfg("reduc0-dep0-fn0", ExecModel::PartialDoAll)}).front();
    const LoopReport &lr = loop(rep, "i.hdr");
    std::uint64_t perIter = lr.serialCost / 200;
    // Two phases: roughly two iteration costs (plus the tail).
    EXPECT_GE(lr.parallelCost, perIter);
    EXPECT_LE(lr.parallelCost, 4 * perIter);
    EXPECT_EQ(lr.conflictIterations, 1u);
    EXPECT_EQ(lr.serializedInstances, 0u);
}

TEST(Models, PdoallEightyPercentRule)
{
    // Every iteration conflicts: fraction 1.0 > 0.8 -> serial.
    auto mod = buildSharedCell(300, 2, 2, 2);
    Loopapalooza lp(*mod);
    ProgramReport rep =
        lp.run({cfg("reduc0-dep0-fn0", ExecModel::PartialDoAll)}).front();
    const LoopReport &lr = loop(rep, "i.hdr");
    EXPECT_EQ(lr.serializedInstances, 1u);
    EXPECT_EQ(lr.parallelCost, lr.adjustedCost);

    // Raising the threshold to 1.0 forces the phase algebra through;
    // every iteration is its own phase, so there is still no speedup —
    // but the loop is no longer *marked* sequential.
    LPConfig permissive = cfg("reduc0-dep0-fn0", ExecModel::PartialDoAll);
    permissive.pdoallSerialThreshold = 1.0;
    ProgramReport rep2 = lp.run({permissive}).front();
    const LoopReport &lr2 = loop(rep2, "i.hdr");
    EXPECT_EQ(lr2.serializedInstances, 0u);
    EXPECT_GE(lr2.conflictIterations, 298u);
}

TEST(Models, HelixClosedFormMatchesHandComputation)
{
    // Shared cell with mid=20 work units inside the load->store window.
    constexpr std::int64_t kN = 400;
    auto mod = buildSharedCell(kN, 4, 20, 30);
    Loopapalooza lp(*mod);
    ProgramReport rep =
        lp.run({cfg("reduc0-dep0-fn2", ExecModel::Helix)}).front();
    const LoopReport &lr = loop(rep, "i.hdr");
    ASSERT_EQ(lr.serializedInstances, 0u);

    std::uint64_t iterCost = lr.serialCost / kN;
    // delta is the store-to-load window: mid + the adds around it,
    // i.e. strictly less than the iteration but more than `mid`.
    // parallel = iterSlowest + delta*N + tail.
    std::uint64_t deltaApprox = (lr.parallelCost - iterCost) / kN;
    EXPECT_GE(deltaApprox, 20u);
    EXPECT_LE(deltaApprox, 26u);
}

TEST(Models, HelixNearSerialWhenWindowSpansIteration)
{
    // Nearly all the iteration sits inside the dependency window
    // (mid >> pre+post): synchronization buys almost nothing, though the
    // formula still beats serial by the sliver outside the window.
    auto mod = buildSharedCell(300, 1, 60, 1);
    Loopapalooza lp(*mod);
    ProgramReport rep =
        lp.run({cfg("reduc0-dep0-fn2", ExecModel::Helix)}).front();
    const LoopReport &lr = loop(rep, "i.hdr");
    EXPECT_LT(lr.speedup(), 1.3);
    EXPECT_GE(lr.speedup(), 1.0);
}

TEST(Models, HelixFallsBackToSerialWhenSyncTooExpensive)
{
    // The shared-cell window spans serial work that an inner DOALL loop
    // removes from the ADJUSTED iteration cost: delta (measured on the
    // serial clock) then exceeds the adjusted iteration, the closed form
    // is worse than serial, and the loop must fall back.
    constexpr std::int64_t kN = 100;
    auto mod = std::make_unique<Module>("fallback");
    IRBuilder b(*mod);
    Global *cell = mod->addGlobal("cell", 8);
    Global *out = mod->addGlobal("out", 64 * 8);
    b.createFunction("main", Type::I64);
    CountedLoop o(b, b.i64(0), b.i64(kN), b.i64(1), "o");
    Value *c = b.load(Type::I64, b.elem(cell, b.i64(0)));
    {
        // Inner independent loop INSIDE the dependency window.
        CountedLoop in(b, b.i64(0), b.i64(64), b.i64(1), "in");
        b.store(b.add(in.iv(), c), b.elem(out, in.iv()));
        in.finish();
    }
    b.store(b.add(c, b.i64(1)), b.elem(cell, b.i64(0)));
    o.finish();
    b.ret(b.i64(0));
    mod->finalize();

    Loopapalooza lp(*mod);
    ProgramReport rep =
        lp.run({cfg("reduc0-dep0-fn2", ExecModel::Helix)}).front();
    const LoopReport &outer = loop(rep, "o.hdr");
    EXPECT_EQ(outer.serializedInstances, 1u);
    EXPECT_EQ(outer.parallelCost, outer.adjustedCost);
    // The inner loop still contributes its own savings.
    EXPECT_GT(rep.speedup(), 3.0);
}

TEST(Models, DoacrossNeverBeatsHelix)
{
    for (int mid : {2, 10, 30}) {
        auto mod = buildSharedCell(300, 5, mid, 20);
        Loopapalooza lp(*mod);
        LPConfig helix = cfg("reduc0-dep0-fn2", ExecModel::Helix);
        LPConfig doacross = helix;
        doacross.singleSyncDoacross = true;
        double sHelix = lp.run({helix}).front().speedup();
        double sDoacross = lp.run({doacross}).front().speedup();
        EXPECT_LE(sDoacross, sHelix * 1.0001) << "mid=" << mid;
    }
}

TEST(Models, DoacrossSingleWindowSpansAllLcds)
{
    // Two shared cells: one updated early, one late.  HELIX syncs each
    // separately (delta = the larger single window); DOACROSS must cover
    // from the FIRST consumer to the LAST producer, which is strictly
    // worse here.
    constexpr std::int64_t kN = 300;
    auto mod = std::make_unique<Module>("two-cells");
    IRBuilder b(*mod);
    Global *cellA = mod->addGlobal("cellA", 8);
    Global *cellB = mod->addGlobal("cellB", 8);
    b.createFunction("main", Type::I64);
    CountedLoop l(b, b.i64(0), b.i64(kN), b.i64(1), "i");
    // Early pair: load A, +1, store A.
    Value *a = b.load(Type::I64, b.elem(cellA, b.i64(0)));
    b.store(b.add(a, b.i64(1)), b.elem(cellA, b.i64(0)));
    // 40 units of independent work.
    Value *v = l.iv();
    for (int r = 0; r < 40; ++r)
        v = b.add(v, b.i64(1));
    // Late pair: load B, combine, store B.
    Value *bb = b.load(Type::I64, b.elem(cellB, b.i64(0)));
    b.store(b.add(bb, v), b.elem(cellB, b.i64(0)));
    l.finish();
    b.ret(b.i64(0));
    mod->finalize();

    Loopapalooza lp(*mod);
    LPConfig helix = cfg("reduc0-dep0-fn2", ExecModel::Helix);
    LPConfig doacross = helix;
    doacross.singleSyncDoacross = true;
    ProgramReport repH = lp.run({helix}).front();
    ProgramReport repD = lp.run({doacross}).front();
    const LoopReport &lh = loop(repH, "i.hdr");
    const LoopReport &ld = loop(repD, "i.hdr");
    // HELIX: two small windows -> big win.  DOACROSS: one window from
    // the A-load (top) to the B-store (bottom) -> essentially serial.
    EXPECT_GT(lh.speedup(), 5.0);
    EXPECT_LT(ld.speedup(), 1.5);
}

TEST(Models, NestedSavingsPropagateThroughSerialOuter)
{
    // Outer loop carries an LCG (serial under dep0); inner loop is
    // independent.  The program must still speed up via the inner loop.
    constexpr std::int64_t kOuter = 20, kInner = 200;
    auto mod = std::make_unique<Module>("nested");
    IRBuilder b(*mod);
    Global *out = mod->addGlobal("out", kInner * 8);
    b.createFunction("main", Type::I64);
    CountedLoop o(b, b.i64(0), b.i64(kOuter), b.i64(1), "o");
    Instruction *lcg = o.addRecurrence(Type::I64, b.i64(7), "lcg");
    Value *lcgNext = b.add(b.mul(lcg, b.i64(6364136223846793005LL)),
                           b.i64(1442695040888963407LL), "lcg.next");
    o.setNext(lcg, lcgNext);
    CountedLoop in(b, b.i64(0), b.i64(kInner), b.i64(1), "in");
    Value *v = b.add(b.mul(in.iv(), b.i64(5)), lcg);
    b.store(v, b.elem(out, in.iv()));
    in.finish();
    o.finish();
    b.ret(b.i64(0));
    mod->finalize();

    Loopapalooza lp(*mod);
    ProgramReport rep =
        lp.run({cfg("reduc0-dep0-fn0", ExecModel::PartialDoAll)}).front();
    const LoopReport &outer = loop(rep, "o.hdr");
    const LoopReport &inner = loop(rep, "in.hdr");
    EXPECT_EQ(outer.staticReason, rt::SerialReason::RegisterLcd);
    EXPECT_EQ(inner.staticReason, rt::SerialReason::None);
    EXPECT_EQ(inner.instances, static_cast<std::uint64_t>(kOuter));
    // The outer loop's ADJUSTED cost subtracts the inner savings, and
    // the program speedup reflects them even though the outer is serial.
    EXPECT_LT(outer.adjustedCost, outer.serialCost / 5);
    EXPECT_GT(rep.speedup(), 5.0);
    // Coverage counts the inner instances (most of the program).
    EXPECT_GT(rep.coverage, 0.7);
}

TEST(Models, CoverageNeverExceedsOne)
{
    auto mod = buildIndependent(300, 6);
    Loopapalooza lp(*mod);
    for (ExecModel m : {ExecModel::DoAll, ExecModel::PartialDoAll,
                        ExecModel::Helix}) {
        ProgramReport rep = lp.run({cfg("reduc0-dep0-fn2", m)}).front();
        EXPECT_GE(rep.coverage, 0.0);
        EXPECT_LE(rep.coverage, 1.0);
    }
}

TEST(Models, SerializedLoopGetsZeroCoverage)
{
    auto mod = buildSharedCell(300, 2, 2, 2); // 100% conflicting
    Loopapalooza lp(*mod);
    ProgramReport rep =
        lp.run({cfg("reduc0-dep0-fn0", ExecModel::PartialDoAll)}).front();
    EXPECT_LT(rep.coverage, 0.05);
}

TEST(Models, ReportPrintIsWellFormed)
{
    auto mod = buildIndependent(50, 4);
    Loopapalooza lp(*mod);
    ProgramReport rep =
        lp.run({cfg("reduc0-dep0-fn0", ExecModel::DoAll)}).front();
    std::ostringstream os;
    rep.print(os, true);
    std::string s = os.str();
    EXPECT_NE(s.find("speedup"), std::string::npos);
    EXPECT_NE(s.find("i.hdr"), std::string::npos);
    EXPECT_NE(s.find("DOALL"), std::string::npos);
}

} // namespace
} // namespace lp
