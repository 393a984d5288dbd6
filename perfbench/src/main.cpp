/**
 * @file
 * perfbench: the benchmark's measuring program.  run.py starts one
 * process per measurement, so every pass starts cold and its peak RSS
 * is its own:
 *
 *   perfbench pass      --workload W [--seed N] --jobs J --out F
 *   perfbench setup     --workload W [--seed N] --out F
 *   perfbench traced    --workload W [--seed N] [--chrome T] --out F
 *   perfbench fallbacks --workload W --jobs J --out F
 *   perfbench reference --workload fuzz_grid --seed N --jobs J --out F
 *   perfbench env       --out F
 *
 * pass runs on the first J CPUs it may use, setup and traced on the
 * first one, each with a Calibrator alongside (calibrate.hpp).
 *
 * Common flags: --tiny (a few programs, for the self-test) and
 * --corrupt-cell K (pass only: damage cell K's report after timing, so
 * the self-test can see the correctness check trip).  Each mode writes
 * one JSON object to F; anything runSweep prints is discarded.
 */

#include <sched.h>

#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "calibrate.hpp"
#include "obs/json.hpp"
#include "support/error.hpp"
#include "traced.hpp"
#include "workloads.hpp"

using namespace lp;

namespace {

obs::Json
passJson(const perfbench::PassOutput &p)
{
    obs::Json out = obs::Json::object();
    out.set("wall_s", p.wallS);
    out.set("calib_ns", p.calibNs);
    out.set("exit_code", p.exitCode);
    out.set("not_ok", p.notOk);
    out.set("doc_digest", p.docDigest);
    obs::Json cells = obs::Json::array();
    for (const std::string &d : p.cellDigests)
        cells.push(d);
    out.set("cell_digests", std::move(cells));
    return out;
}

obs::Json
envJson()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    const int nproc = sched_getaffinity(0, sizeof set, &set) == 0
                          ? CPU_COUNT(&set)
                          : 0;
    obs::Json out = obs::Json::object();
    out.set("nproc", nproc);
    out.set("hardware_concurrency", std::thread::hardware_concurrency());
    out.set("build_type", PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
    out.set("ndebug", true);
#else
    out.set("ndebug", false);
#endif
    out.set("compiler", PERFBENCH_CXX_VERSION);
    return out;
}

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench pass|setup|traced|fallbacks|"
                 "reference|env --workload W [--seed N] [--jobs J] "
                 "[--tiny] [--corrupt-cell K] [--chrome T] "
                 "--out F\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage("missing mode");
    const std::string mode = argv[1];
    std::map<std::string, std::string> opt;
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--tiny") {
            opt[a] = "1";
        } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
            opt[a] = argv[++i];
        } else {
            return usage("bad argument '" + a + "'");
        }
    }
    auto num = [&](const std::string &k, unsigned long long dflt) {
        auto it = opt.find(k);
        return it == opt.end() ? dflt : std::stoull(it->second);
    };
    if (!opt.count("--out"))
        return usage("missing --out");

    try {
        obs::Json out;
        if (mode == "env") {
            out = envJson();
        } else {
            if (!opt.count("--workload"))
                return usage("missing --workload");
            const perfbench::Workload w = perfbench::makeWorkload(
                opt["--workload"], num("--seed", 0),
                opt.count("--tiny") != 0);
            const unsigned jobs = static_cast<unsigned>(num("--jobs", 1));
            // Timed modes run on a fixed set of CPUs (calibrate.hpp).
            if (mode == "pass")
                perfbench::pinToFirstCpus(jobs);
            else if (mode == "setup" || mode == "traced")
                perfbench::pinToFirstCpus(1);
            if (mode == "pass") {
                out = passJson(perfbench::runPass(
                    w, jobs,
                    static_cast<int>(num("--corrupt-cell", ~0ull))));
            } else if (mode == "reference") {
                out = passJson(perfbench::referencePass(w, jobs));
            } else if (mode == "setup") {
                const perfbench::SetupOutput set = perfbench::setupTimes(w);
                out = obs::Json::object();
                obs::Json walls = obs::Json::array();
                for (double s : set.wallS)
                    walls.push(s);
                out.set("wall_s", std::move(walls));
                out.set("calib_ns", set.calibNs);
            } else if (mode == "traced") {
                out = perfbench::tracedPass(w, opt["--chrome"]);
            } else if (mode == "fallbacks") {
                out = perfbench::sweepFallbacks(w, jobs);
            } else {
                return usage("unknown mode '" + mode + "'");
            }
        }
        std::ofstream f(opt["--out"], std::ios::trunc);
        f << out.dump() << '\n';
        if (!f)
            throw IoError("cannot write " + opt["--out"]);
    }
    catch (const std::exception &e) {
        std::cerr << "perfbench " << mode << ": " << e.what() << "\n";
        return 1;
    }
    return 0;
}
