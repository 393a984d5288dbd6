#include "workloads.hpp"

#include <chrono>
#include <optional>
#include <stdexcept>

#include "calibrate.hpp"
#include "core/configs.hpp"
#include "core/sweep.hpp"
#include "exec/pool.hpp"
#include "suites/registry.hpp"
#include "support/error.hpp"

namespace perfbench {

using namespace lp;

namespace {

double
since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** splitmix64: decorrelates the program seeds drawn from one seed. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

void
corrupt(std::string &json)
{
    // Flip a digit of the serial cost: still valid JSON, wrong report.
    const std::size_t at = json.find("\"serial_cost\":");
    json[at == std::string::npos ? 0 : at + 14] ^= 1;
}

} // namespace

fuzz::GenOptions
fuzzGenOptions()
{
    fuzz::GenOptions g;
    g.opWeights = {2, 2, 1, 1, 1, 4, 3};
    g.minArrays = g.maxArrays = 3;
    g.minPhases = g.maxPhases = 3;
    g.minOps = 6;
    g.maxOps = 8;
    g.minTrip = 56;
    g.maxTrip = 72;
    g.maxDepth = 2;
    g.nestProb = 1.0;
    return g;
}

std::vector<rt::LPConfig>
tableTwoGrid()
{
    std::vector<rt::LPConfig> grid;
    for (rt::ExecModel m : {rt::ExecModel::DoAll,
                            rt::ExecModel::PartialDoAll,
                            rt::ExecModel::Helix})
        for (int reduc = 0; reduc <= 1; ++reduc)
            for (int dep = 0; dep <= 3; ++dep)
                for (int fn = 0; fn <= 3; ++fn) {
                    if (m == rt::ExecModel::DoAll && dep != 0)
                        continue; // ruled out by the paper
                    rt::LPConfig c;
                    c.model = m;
                    c.reduc = reduc;
                    c.dep = dep;
                    c.fn = fn;
                    grid.push_back(c);
                }
    return grid;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed, bool tiny)
{
    Workload w;
    w.name = name;
    if (name == "paper_sweep" || name == "lint_sweep") {
        // The suites are fixed inputs: the seed selects nothing here.
        w.programs = suites::allPrograms();
        if (tiny)
            w.programs.resize(kTinyPrograms);
        w.lintMode = name == "lint_sweep" ? 1 : 0;
        for (const core::NamedConfig &named : core::paperConfigs())
            w.configs.push_back(named.config); // what runSweep runs
        return w;
    }
    if (name == "fuzz_grid") {
        const fuzz::GenOptions gen = fuzzGenOptions();
        const std::size_t n = tiny ? kTinyPrograms : kFuzzPrograms;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t s = mix(seed * 1000003ull + i);
            core::BenchProgram p;
            p.name = fuzz::programName(s);
            p.suite = "fuzz";
            p.seed = s;
            p.build = [s, gen] { return fuzz::generateProgram(s, gen); };
            w.programs.push_back(std::move(p));
        }
        w.grid = true;
        w.configs = tableTwoGrid();
        return w;
    }
    throw std::invalid_argument("unknown workload '" + name +
                "' (want paper_sweep, lint_sweep or fuzz_grid)");
}

std::string
digest64(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

namespace {

/** A fuzz_grid lane's report, stamped with its seed as runSweep does. */
std::string
laneJson(rt::ProgramReport rep, std::uint64_t seed)
{
    rep.seed = seed;
    return rep.toJson(/*withObsSnapshot=*/false).dump();
}

/**
 * Digest each cell's report into @p out (damaging @p corruptCell
 * first) and return the reports joined one per line.
 */
std::string
digestCells(std::vector<std::string> &cells, int corruptCell,
            PassOutput &out)
{
    if (corruptCell >= 0 && corruptCell < static_cast<int>(cells.size()))
        corrupt(cells[corruptCell]);
    std::string doc;
    for (const std::string &c : cells) {
        out.cellDigests.push_back(digest64(c));
        doc += c;
        doc += '\n';
    }
    return doc;
}

PassOutput
sweepPass(const Workload &w, unsigned jobs, int corruptCell)
{
    core::SweepRequest req;
    req.lintMode = w.lintMode;
    req.wantJson = true;
    exec::setJobsOverride(jobs);

    PassOutput out;
    core::SweepResult res;
    {
        CoutSilencer quiet;
        Calibrator calib;
        const auto t0 = std::chrono::steady_clock::now();
        res = core::runSweep(w.programs, req);
        out.wallS = since(t0);
        out.calibNs = calib.stop();
    }
    out.exitCode = res.exitCode;

    const obs::Json &reports = res.document.at("reports");
    std::vector<std::string> cells;
    for (std::size_t i = 0; i < reports.size(); ++i) {
        if (reports.at(i).at("status").asString() != "ok")
            ++out.notOk;
        cells.push_back(reports.at(i).dump());
    }
    digestCells(cells, corruptCell, out);
    // The whole document as run_study --json writes it, so a pinned
    // digest can be checked against that file by hand.
    std::string doc = res.document.dump(2) + "\n";
    if (corruptCell >= 0)
        corrupt(doc);
    out.docDigest = digest64(doc);
    return out;
}

/**
 * fuzz_grid: a fresh Study, then every program's lanes — one batched
 * replay (the timed path) or, for the reference, one runReplay per
 * configuration (the per-cell path).
 */
PassOutput
gridPass(const Workload &w, unsigned jobs, int corruptCell, bool perCell)
{
    PassOutput out;
    const std::size_t n = w.programs.size();
    std::vector<std::vector<std::string>> lanes(n);
    std::vector<std::size_t> notOk(n, 0);
    {
        std::optional<Calibrator> calib; // the reference is not timed
        if (!perCell)
            calib.emplace();
        const auto t0 = std::chrono::steady_clock::now();
        core::Study study(w.programs, jobs);
        exec::parallelFor(
            n,
            [&](std::size_t i) {
                const core::PreparedProgram &p = *study.programs()[i];
                std::vector<rt::ProgramReport> reps;
                if (perCell) {
                    for (const rt::LPConfig &cfg : w.configs)
                        reps.push_back(p.runReplay(cfg));
                } else {
                    reps = p.runReplayBatched(w.configs);
                }
                for (const rt::ProgramReport &rep : reps) {
                    notOk[i] += rep.ok() ? 0 : 1;
                    lanes[i].push_back(laneJson(rep, w.programs[i].seed));
                }
            },
            jobs);
        out.wallS = since(t0);
        if (calib)
            out.calibNs = calib->stop();
    }
    std::vector<std::string> cells;
    for (std::size_t i = 0; i < n; ++i) {
        out.notOk += notOk[i];
        for (std::string &c : lanes[i])
            cells.push_back(std::move(c));
    }
    out.docDigest = digest64(digestCells(cells, corruptCell, out));
    return out;
}

} // namespace

PassOutput
runPass(const Workload &w, unsigned jobs, int corruptCell)
{
    return w.grid ? gridPass(w, jobs, corruptCell, /*perCell=*/false)
                  : sweepPass(w, jobs, corruptCell);
}

PassOutput
referencePass(const Workload &w, unsigned jobs)
{
    return gridPass(w, jobs, -1, /*perCell=*/true);
}

SetupOutput
setupTimes(const Workload &w)
{
    SetupOutput out;
    Calibrator calib;
    for (unsigned r = 0; r < kSetupReps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        core::Study study(w.programs, 1u);
        out.wallS.push_back(since(t0));
    }
    out.calibNs = calib.stop();
    return out;
}

} // namespace perfbench
