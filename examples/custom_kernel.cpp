/**
 * @file
 * Authoring a custom benchmark kernel and sweeping the paper's full
 * configuration space over it.
 *
 * The kernel is a small "transaction log" processor with one of each
 * dependence class from paper Table I:
 *   - a computable IV (the loop counter),
 *   - a reduction (total of processed amounts)            -> reduc flag
 *   - a stride-predictable carried sequence number        -> dep2
 *   - an account table with occasional repeated accounts  -> memory LCDs
 *   - a pure validation helper called per record          -> fn flags
 *
 * Watching which flag unlocks which part of the speedup is the fastest
 * way to build intuition for the framework.
 */

#include <iostream>

#include "core/configs.hpp"
#include "core/driver.hpp"
#include "ir/builder.hpp"
#include "support/table.hpp"

using namespace lp;
using namespace lp::ir;

namespace {

std::unique_ptr<Module>
buildLedger()
{
    constexpr std::int64_t kRecords = 4000, kAccounts = 1024;
    auto mod = std::make_unique<Module>("ledger");
    IRBuilder b(*mod);
    Global *amounts = mod->addGlobal("amounts", kRecords * 8);
    Global *balance = mod->addGlobal("balance", kAccounts * 8);

    // Pure validator: range-checks an amount.
    Function *validate =
        b.createFunction("validate", Type::I64, {{Type::I64, "x"}});
    {
        Value *x = validate->args()[0].get();
        Value *clamped = b.select(b.icmpGt(x, b.i64(1000)), b.i64(1000),
                                  x);
        b.ret(b.select(b.icmpLt(clamped, b.i64(-1000)), b.i64(-1000),
                       clamped));
    }

    b.createFunction("main", Type::I64);
    {
        // Parallel input generation.
        CountedLoop init(b, b.i64(0), b.i64(kRecords), b.i64(1), "init");
        Value *v = b.srem(b.mul(init.iv(), b.i64(40503)), b.i64(1777));
        b.store(v, b.elem(amounts, init.iv()));
        init.finish();
    }

    CountedLoop rec(b, b.i64(0), b.i64(kRecords), b.i64(1), "rec");
    // Reduction: the grand total.
    Instruction *total = rec.addRecurrence(Type::I64, b.i64(0), "total");
    // Predictable register LCD: sequence numbers ascend by 3.
    Instruction *seq = rec.addRecurrence(Type::I64, b.i64(100), "seq");
    {
        Value *amount = b.load(Type::I64, b.elem(amounts, rec.iv()));
        Value *ok = b.call(validate, {amount});
        // Account id repeats occasionally -> infrequent memory LCDs.
        Value *account = b.srem(b.mul(rec.iv(), b.i64(2654435761LL)),
                                b.i64(1024));
        Value *slot = b.elem(balance, account);
        b.store(b.add(b.load(Type::I64, slot), ok), slot);

        Value *totalNext = b.add(total, ok, "total.next");
        rec.setNext(total, totalNext);
        // The step depends on the data (so SCEV cannot compute the
        // sequence number), but in practice it is always 3 — a textbook
        // stride-predictable LCD for the dep2 predictor.
        Value *step = b.select(b.icmpGt(ok, b.i64(100000)), b.i64(5),
                               b.i64(3));
        Value *seqNext = b.add(seq, step, "seq.next");
        rec.setNext(seq, seqNext);
        // seq is consumed by the record tag (so it is a real LCD).
        b.store(b.xor_(ok, seq), b.elem(amounts, rec.iv()));
    }
    rec.finish();
    b.ret(total);
    mod->finalize();
    return mod;
}

} // namespace

int
main()
{
    auto mod = buildLedger();
    core::Loopapalooza lp(*mod);

    TextTable t({"configuration", "speedup", "coverage"});
    for (const core::NamedConfig &named : core::paperConfigs()) {
        rt::ProgramReport rep = lp.run({named.config}).front();
        t.addRow({named.label,
                  TextTable::num(rep.speedup()) + "x",
                  TextTable::num(rep.coverage * 100, 1) + "%"});
    }
    t.print(std::cout);

    std::cout <<
        "\nReading guide: the fn0 rows stay serial (validate() call);\n"
        "fn1+ admits the pure call; the record loop still needs reduc1\n"
        "(total) and dep2 (seq); the occasional balance collisions are\n"
        "why DOALL never parallelizes it while PDOALL and HELIX do.\n";
    return 0;
}
