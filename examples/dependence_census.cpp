/**
 * @file
 * Per-loop dependence explorer for the bundled benchmark suites.
 *
 * Usage:
 *   dependence_census                 # list all registered benchmarks
 *   dependence_census 164.gzip-like   # full per-loop dependence report
 *
 * For the chosen benchmark this prints, per static loop, the compile-time
 * classification (computable IVs, reductions, tracked register LCDs,
 * statically filtered accesses, call sites) and the measured dynamic
 * behaviour (iterations, conflicts, prediction accuracy) under a
 * maximally-observant configuration.
 */

#include <iostream>

#include "core/driver.hpp"
#include "core/study.hpp"
#include "suites/registry.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

using namespace lp;

namespace {

int
listBenchmarks()
{
    std::cout << "registered benchmarks:\n";
    for (const auto &prog : suites::allPrograms())
        std::cout << "  " << prog.suite << "  " << prog.name << "\n";
    std::cout << "\nrun `dependence_census <name>` for a per-loop report\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return listBenchmarks();
    const std::string wanted = argv[1];

    const core::BenchProgram *found = nullptr;
    for (const auto &prog : suites::allPrograms())
        if (prog.name == wanted)
            found = &prog;
    if (!found) {
        std::cerr << "unknown benchmark: " << wanted << "\n";
        listBenchmarks();
        return 1;
    }

    auto mod = found->build();
    core::Loopapalooza lp(*mod);

    // Static, compile-time view.
    std::cout << "=== compile-time classification: " << wanted << " ===\n";
    TextTable staticTable({"loop", "depth", "canonical", "IV/MIV",
                           "reductions", "tracked reg LCDs",
                           "filtered accesses", "call sites"});
    for (const auto &fp : lp.plan().functionPlans()) {
        for (const rt::LoopPlan &lplan : fp->loopPlans) {
            if (!lplan.loop)
                continue;
            staticTable.addRow(
                {lplan.loop->label(),
                 std::to_string(lplan.loop->depth()),
                 lplan.loop->isCanonical() ? "yes" : "NO",
                 std::to_string(lplan.computablePhis.size()),
                 std::to_string(lplan.reductions.size()),
                 std::to_string(lplan.nonComputable.size()),
                 std::to_string(lplan.untrackedMem.size()),
                 std::to_string(lplan.callSites.size())});
        }
    }
    staticTable.print(std::cout);

    // Dynamic view under the most observant configuration.
    rt::LPConfig cfg = rt::LPConfig::parse("reduc0-dep2-fn3",
                                           rt::ExecModel::PartialDoAll);
    rt::ProgramReport rep = lp.run({cfg}).front();
    std::cout << "\n=== dynamic behaviour [" << cfg.str() << "] ===\n";
    rep.print(std::cout, /*perLoop=*/true);

    std::cout << strf(
        "\ncensus: %llu predictable vs %llu unpredictable register LCDs, "
        "%llu frequent vs %llu infrequent memory-LCD loops\n",
        static_cast<unsigned long long>(rep.census.predictableRegLcds),
        static_cast<unsigned long long>(rep.census.unpredictableRegLcds),
        static_cast<unsigned long long>(rep.census.frequentMemLcdLoops),
        static_cast<unsigned long long>(rep.census.infrequentMemLcdLoops));
    return 0;
}
