/**
 * @file
 * Figure 1: the three parallel execution models, demonstrated on one
 * crafted loop so the cost algebra is visible.
 *
 * The program runs a 6-iteration loop where iteration 3 reads a value
 * iteration 2 wrote (one cross-iteration RAW).  The harness prints the
 * serial cost, then the DOALL / Partial-DOALL / HELIX costs, matching
 * the timelines of paper Figure 1: DOALL abandons the loop, PDOALL pays
 * one phase restart, HELIX pays delta per iteration.
 */

#include "common.hpp"

#include "core/driver.hpp"
#include "ir/builder.hpp"

namespace {

using namespace lp;
using namespace lp::ir;

std::unique_ptr<Module>
buildDemoLoop()
{
    auto mod = std::make_unique<Module>("fig1-demo");
    IRBuilder b(*mod);
    Global *a = mod->addGlobal("a", 64 * 8);
    Global *shared = mod->addGlobal("shared", 8);

    b.createFunction("main", Type::I64);
    CountedLoop l(b, b.i64(0), b.i64(6), b.i64(1), "i");
    // Fixed per-iteration work.
    Value *v = l.iv();
    for (int r = 0; r < 8; ++r)
        v = b.add(b.mul(v, b.i64(3)), b.i64(r));
    b.store(v, b.elem(a, l.iv()));
    // Iteration 2 writes the shared cell; iteration 3 reads it.
    Value *isW = b.icmpEq(l.iv(), b.i64(2));
    BasicBlock *wr = b.newBlock("i.wr");
    BasicBlock *mid = b.newBlock("i.mid");
    b.br(isW, wr, mid);
    b.setInsertPoint(wr);
    b.store(v, b.elem(shared, b.i64(0)));
    b.jmp(mid);
    b.setInsertPoint(mid);
    Value *isR = b.icmpEq(l.iv(), b.i64(3));
    BasicBlock *rd = b.newBlock("i.rd");
    BasicBlock *cont = b.newBlock("i.cont");
    b.br(isR, rd, cont);
    b.setInsertPoint(rd);
    Value *sv = b.load(Type::I64, b.elem(shared, b.i64(0)));
    b.store(sv, b.elem(a, b.i64(63)));
    b.jmp(cont);
    b.setInsertPoint(cont);
    l.finish();
    b.ret(b.load(Type::I64, b.elem(a, b.i64(63))));
    mod->finalize();
    return mod;
}

} // namespace

int
main()
{
    bench::banner("Figure 1: execution-model timelines on one loop",
                  "Fig. 1, Section II-C");

    auto mod = buildDemoLoop();
    core::Loopapalooza lp(*mod);

    TextTable t({"model", "loop serial cost", "loop parallel cost",
                 "loop speedup", "behaviour"});
    struct Row
    {
        rt::ExecModel model;
        const char *note;
    };
    const Row rows[] = {
        {rt::ExecModel::DoAll,
         "conflict detected -> whole loop marked sequential"},
        {rt::ExecModel::PartialDoAll,
         "one conflicting iteration -> one extra parallel phase"},
        {rt::ExecModel::Helix,
         "iter_slowest + delta_largest * num_iter"},
    };
    for (const Row &row : rows) {
        rt::LPConfig cfg =
            rt::LPConfig::parse("reduc0-dep0-fn0", row.model);
        rt::ProgramReport rep = lp.run({cfg}).front();
        const rt::LoopReport &lr = rep.loops.at(0);
        t.addRow({rt::execModelName(row.model),
                  std::to_string(lr.adjustedCost),
                  std::to_string(lr.parallelCost),
                  TextTable::num(lr.speedup()) + "x", row.note});
    }
    t.print(std::cout);
    return 0;
}
