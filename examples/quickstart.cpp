/**
 * @file
 * Quickstart: build a small program in Loopapalooza IR, run the limit
 * study under all three execution models, and read the report.
 *
 * The program is a 1024-element histogram — a loop with *infrequent*
 * dynamic memory conflicts, which is exactly where the three models
 * diverge: DOALL gives up on the first conflict, Partial-DOALL restarts
 * a parallel phase per conflicting iteration, and HELIX synchronizes.
 */

#include <iostream>

#include "core/driver.hpp"
#include "ir/builder.hpp"

using namespace lp;
using namespace lp::ir;

namespace {

std::unique_ptr<Module>
buildHistogram()
{
    auto mod = std::make_unique<Module>("quickstart-histogram");
    IRBuilder b(*mod);
    Global *hist = mod->addGlobal("hist", 512 * 8);

    b.createFunction("main", Type::I64);
    CountedLoop loop(b, b.i64(0), b.i64(1024), b.i64(1), "i");
    {
        // slot = scramble(i) % 512; hist[slot]++.
        Value *key = b.ashr(b.mul(loop.iv(), b.i64(2654435761LL)),
                            b.i64(8));
        Value *slot = b.srem(key, b.i64(512));
        Value *addr = b.elem(hist, slot);
        b.store(b.add(b.load(Type::I64, addr), b.i64(1)), addr);
    }
    loop.finish();
    b.ret(b.load(Type::I64, b.elem(hist, b.i64(0))));
    mod->finalize();
    return mod;
}

} // namespace

int
main()
{
    // 1. Build (or load) a program.
    auto mod = buildHistogram();
    std::cout << "=== the program ===\n";
    mod->print(std::cout);

    // 2. Run the compile-time component once (verification + analyses).
    core::Loopapalooza lp(*mod);

    // 3. Execute under any number of configurations.
    std::cout << "\n=== the limit study ===\n";
    for (rt::ExecModel model : {rt::ExecModel::DoAll,
                                rt::ExecModel::PartialDoAll,
                                rt::ExecModel::Helix}) {
        rt::LPConfig cfg = rt::LPConfig::parse("reduc0-dep0-fn0", model);
        rt::ProgramReport rep = lp.run({cfg}).front();
        rep.print(std::cout, /*perLoop=*/true);
        std::cout << "\n";
    }

    std::cout << "Things to notice: the loop conflicts in a minority of\n"
                 "iterations, so DOALL serializes it, Partial-DOALL keeps\n"
                 "most of the parallelism, and HELIX pays one small delta\n"
                 "per iteration.\n";
    return 0;
}
