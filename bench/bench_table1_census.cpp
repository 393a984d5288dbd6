/**
 * @file
 * Table I: the measured dependency census.
 *
 * The paper's Table I is a taxonomy; this harness instantiates it with
 * counts measured over our suites: how many loop-carried dependencies of
 * each category actually occur, per suite.  Register LCD predictability
 * is measured with the dep2 hybrid predictor (a phi with >= 90% hit rate
 * counts as "infrequent/predictable", mirroring Section II-A).
 */

#include "common.hpp"

int
main()
{
    using namespace lp;
    bench::banner("Table I: measured dependency census", "Table I");

    core::Study study(suites::allPrograms());
    // A configuration that tracks everything: PDOALL reduc0-dep2-fn3
    // (reduc0 keeps reductions visible as LCDs; dep2 runs the
    // predictors; fn3 leaves no loop statically serialized by calls).
    rt::LPConfig cfg = rt::LPConfig::parse("reduc0-dep2-fn3",
                                           rt::ExecModel::PartialDoAll);

    TextTable t({"suite", "loops", "canonical", "IV/MIV (computable)",
                 "reductions", "predictable reg LCDs",
                 "unpredictable reg LCDs", "freq-mem-LCD loops",
                 "infreq-mem-LCD loops", "loops w/ calls"});

    // Each program is one task: one engine pass under the census
    // configuration.
    const auto &progs = study.programs();
    std::vector<rt::ProgramReport> reports(progs.size());
    exec::parallelFor(progs.size(), [&](std::size_t i) {
        reports[i] = progs[i]->run({cfg}).front();
    });

    for (const char *suite :
         {"eembc", "cfp2000", "cfp2006", "cint2000", "cint2006"}) {
        rt::Census total;
        for (std::size_t i = 0; i < progs.size(); ++i) {
            if (progs[i]->suite() != suite)
                continue;
            const rt::Census &c = reports[i].census;
            total.staticLoops += c.staticLoops;
            total.canonicalLoops += c.canonicalLoops;
            total.computableIvs += c.computableIvs;
            total.reductions += c.reductions;
            total.predictableRegLcds += c.predictableRegLcds;
            total.unpredictableRegLcds += c.unpredictableRegLcds;
            total.frequentMemLcdLoops += c.frequentMemLcdLoops;
            total.infrequentMemLcdLoops += c.infrequentMemLcdLoops;
            total.loopsWithCalls += c.loopsWithCalls;
        }
        t.addRow({suite, std::to_string(total.staticLoops),
                  std::to_string(total.canonicalLoops),
                  std::to_string(total.computableIvs),
                  std::to_string(total.reductions),
                  std::to_string(total.predictableRegLcds),
                  std::to_string(total.unpredictableRegLcds),
                  std::to_string(total.frequentMemLcdLoops),
                  std::to_string(total.infrequentMemLcdLoops),
                  std::to_string(total.loopsWithCalls)});
    }
    t.print(std::cout);

    std::cout <<
        "\nPaper Table I shape: numeric suites dominated by computable\n"
        "IVs/MIVs and reductions with infrequent memory LCDs; the\n"
        "non-numeric suites add frequent memory LCDs, unpredictable\n"
        "register LCDs and call-carrying (structural-hazard) loops.\n";
    return 0;
}
