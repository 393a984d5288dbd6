/**
 * @file
 * Value-prediction explorer: watch the dep2 machinery at work.
 *
 * Builds three loops whose carried values have very different
 * predictability — a constant-stride cursor, a two-phase stride, and an
 * LCG — runs each value stream through every predictor component, and
 * prints per-predictor accuracy alongside the limit-study consequence
 * (the loop's speedup under reduc0-dep2-fn0 PDOALL).
 */

#include <iostream>

#include "core/driver.hpp"
#include "interp/machine.hpp"
#include "ir/builder.hpp"
#include "predict/predictor.hpp"
#include "support/table.hpp"

using namespace lp;
using namespace lp::ir;

namespace {

/** One loop: cursor' = cursor + step(kind); work; out[i] = f(cursor). */
std::unique_ptr<Module>
buildCarriedLoop(int kind)
{
    constexpr std::int64_t kN = 3000;
    auto mod = std::make_unique<Module>("carried-" + std::to_string(kind));
    IRBuilder b(*mod);
    Global *out = mod->addGlobal("out", kN * 8);
    Global *knob = mod->addGlobal("knob", 8); // never written: read-only

    b.createFunction("main", Type::I64);
    CountedLoop l(b, b.i64(0), b.i64(kN), b.i64(1), "i");
    Instruction *cur = l.addRecurrence(Type::I64, b.i64(7), "cur");
    Value *next = nullptr;
    switch (kind) {
      case 0: {
        // Constant stride, but data-gated so SCEV cannot see it.
        Value *gate = b.load(Type::I64, b.elem(knob, b.i64(0)));
        Value *step =
            b.select(b.icmpGt(gate, b.i64(1 << 30)), b.i64(9), b.i64(5));
        next = b.add(cur, step, "cur.next");
        break;
      }
      case 1: {
        // Two alternating strides: 2-delta territory.
        Value *odd = b.and_(l.iv(), b.i64(1));
        Value *step = b.select(b.icmpEq(odd, b.i64(0)), b.i64(3),
                               b.i64(11));
        next = b.add(cur, step, "cur.next");
        break;
      }
      default:
        // LCG: unpredictable by construction.
        next = b.add(b.mul(cur, b.i64(6364136223846793005LL)),
                     b.i64(1442695040888963407LL), "cur.next");
        break;
    }
    l.setNext(cur, next);
    // Body work + store keyed by the carried value.
    Value *w = cur;
    for (int r = 0; r < 6; ++r)
        w = b.add(b.mul(w, b.i64(3)), b.i64(r));
    b.store(w, b.elem(out, l.iv()));
    l.finish();
    b.ret(b.load(Type::I64, b.elem(out, b.i64(0))));
    mod->finalize();
    return mod;
}

/** Capture the carried phi's value stream. */
class PhiTap : public interp::ExecListener
{
  public:
    std::vector<std::uint64_t> values;

    void
    onPhiResolved(const ir::Instruction *phi, std::uint64_t bits) override
    {
        if (phi->name() == "cur")
            values.push_back(bits);
    }
};

} // namespace

int
main()
{
    const char *kindName[] = {"constant stride (data-gated)",
                              "alternating stride", "LCG (random)"};

    TextTable t({"carried value", "last-value", "stride", "2-delta",
                 "fcm", "hybrid", "loop speedup @dep2"});

    for (int kind = 0; kind < 3; ++kind) {
        auto mod = buildCarriedLoop(kind);

        // Collect the stream.
        PhiTap tap;
        {
            interp::Machine m(*mod, &tap);
            m.run();
        }

        // Replay it through the predictors.
        predict::HybridPredictor hybrid;
        std::uint64_t total = 0, anyHits = 0;
        std::array<std::uint64_t, 4> hits{};
        for (std::uint64_t v : tap.values) {
            auto out = hybrid.predictAndTrain(v);
            ++total;
            anyHits += out.anyCorrect;
            for (unsigned c = 0; c < 4; ++c)
                hits[c] += out.componentCorrect[c];
        }
        auto pct = [&](std::uint64_t h) {
            return TextTable::num(100.0 * static_cast<double>(h) /
                                      static_cast<double>(total),
                                  1) + "%";
        };

        // And show the limit-study consequence.
        core::Loopapalooza lp(*mod);
        rt::ProgramReport rep = lp.run({rt::LPConfig::parse(
            "reduc0-dep2-fn0", rt::ExecModel::PartialDoAll)}).front();
        double loopSpeedup = 1.0;
        for (const auto &lr : rep.loops)
            if (lr.label.find("i.hdr") != std::string::npos)
                loopSpeedup = lr.speedup();

        t.addRow({kindName[kind], pct(hits[0]), pct(hits[1]),
                  pct(hits[2]), pct(hits[3]), pct(anyHits),
                  TextTable::num(loopSpeedup) + "x"});
    }
    t.print(std::cout);

    std::cout << "\nThe dep2 flag turns prediction accuracy directly into\n"
                 "parallelism: a correctly predicted carried value is not\n"
                 "a dependency that iteration (paper Section II-A).\n";
    return 0;
}
