/**
 * @file
 * Figure 4: per-benchmark speedups for every SPEC program under the best
 * realistic PDOALL configuration (reduc1-dep2-fn2) and the best HELIX
 * configuration (reduc1-dep1-fn2).
 *
 * The paper's key qualitative findings reproduced here:
 *  - HELIX wins broadly across the non-numeric programs;
 *  - a handful of speculation-friendly programs prefer PDOALL
 *    (179.art, 429.mcf, 450.soplex, 482.sphinx in the paper);
 *  - 462.libquantum is the extreme outlier.
 */

#include "common.hpp"

#include <set>

int
main()
{
    using namespace lp;
    bench::banner("Figure 4: per-benchmark best PDOALL vs best HELIX",
                  "Fig. 4, Section IV");

    // All SPEC suites (Figure 4 excludes EEMBC).
    std::vector<core::BenchProgram> progs;
    for (const auto &p : suites::allPrograms())
        if (p.suite != "eembc")
            progs.push_back(p);
    core::Study study(progs);

    const rt::LPConfig pdoall = core::bestPdoall();
    const rt::LPConfig helix = core::bestHelix();

    // Programs the paper singles out as PDOALL-preferring.
    const std::set<std::string> paperPdoallWins = {
        "179.art-like", "429.mcf-like", "450.soplex-like",
        "482.sphinx3-like"};

    // Both configurations of a benchmark come from one engine pass;
    // each program is one task.
    const std::size_t n = study.programs().size();
    std::vector<double> spAll(n), shAll(n);
    exec::parallelFor(n, [&](std::size_t i) {
        const auto reps = study.programs()[i]->run({pdoall, helix});
        spAll[i] = reps[0].speedup();
        shAll[i] = reps[1].speedup();
    });

    TextTable t({"benchmark", "suite", "PDOALL best", "HELIX best",
                 "winner", "paper winner"});
    int agree = 0, total = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const auto &prog = study.programs()[i];
        double sp = spAll[i];
        double sh = shAll[i];
        bool pdoallWins = sp > sh;
        bool paperSaysPdoall = paperPdoallWins.count(prog->name()) > 0;
        ++total;
        if (pdoallWins == paperSaysPdoall)
            ++agree;
        t.addRow({prog->name(), prog->suite(),
                  TextTable::num(sp) + "x", TextTable::num(sh) + "x",
                  pdoallWins ? "PDOALL" : "HELIX",
                  paperSaysPdoall ? "PDOALL" : "HELIX"});
    }
    t.print(std::cout);
    std::cout << "\nwinner agreement with the paper: " << agree << "/"
              << total << " benchmarks\n";
    return 0;
}
