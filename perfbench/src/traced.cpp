#include "traced.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "calibrate.hpp"
#include "core/driver.hpp"
#include "core/sweep.hpp"
#include "exec/pool.hpp"
#include "interp/machine.hpp"
#include "lint/engine.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"
#include "support/error.hpp"
#include "trace/batch.hpp"

namespace perfbench {

using namespace lp;
using Span = SpanRecorder::Span;

namespace {

/** replayDispatch sink that only counts: times the decoder alone. */
struct CountingSink
{
    std::uint64_t events = 0;

    void onFuncEnter(const ir::Function *) { ++events; }
    void onFuncExit(std::uint64_t) { ++events; }
    void
    onBlockEnter(std::uint64_t, const trace::BatchDispatchTable::BlockInfo &,
                 std::uint64_t, std::uint64_t, std::uint64_t)
    {
        ++events;
    }
    void onPhi(const ir::Instruction *, std::uint64_t) { ++events; }
    void onLoad(const ir::Instruction *, std::uint64_t, std::uint64_t)
    {
        ++events;
    }
    void onStore(const ir::Instruction *, std::uint64_t, std::uint64_t)
    {
        ++events;
    }
};

/** One program of the re-enactment, built and prepared by hand. */
struct Program
{
    const core::BenchProgram *src = nullptr;
    std::unique_ptr<ir::Module> mod;
    std::unique_ptr<core::Loopapalooza> lp;
    bool lintGated = false;
    std::size_t batchDecodes = 0; ///< decodes its batched replay made
    std::vector<obs::Json> cells; ///< by configuration index
};

} // namespace

obs::Json
tracedPass(const Workload &w, const std::string &chromePath)
{
    const std::vector<rt::LPConfig> &cfgs = w.configs;
    const std::size_t lanes = cfgs.size();
    std::vector<Program> progs(w.programs.size());
    for (std::size_t i = 0; i < progs.size(); ++i) {
        progs[i].src = &w.programs[i];
        progs[i].cells.resize(lanes);
    }
    std::size_t fallbacks = 0;

    SpanRecorder rec;
    Calibrator calib; // alongside the pass and its probes
    // Stamp a report the way runSweep does and turn it into JSON.
    auto report = [&](Program &p, std::size_t c, rt::ProgramReport rep) {
        Span s(rec, "rt.report_json", p.src->name);
        rep.program = p.src->name;
        rep.seed = p.src->seed;
        p.cells[c] = rep.toJson(/*withObsSnapshot=*/false);
    };

    int passIdx;
    {
        Span pass(rec, "pass", w.name);
        passIdx = pass.index();

        // core::Study: build and prepare every program.
        for (Program &p : progs) {
            {
                Span s(rec, "suites.build", p.src->name);
                p.mod = p.src->build();
            }
            Span s(rec, "core.prepare", p.src->name);
            p.lp = std::make_unique<core::Loopapalooza>(*p.mod);
        }

        // The --lint gate: every module linted once before any cell.
        if (w.lintMode != 0) {
            for (Program &p : progs) {
                Span s(rec, "lint.module", p.src->name);
                p.lintGated =
                    lint::lintModule(*p.mod, lint::LintOptions{}).hasErrors();
            }
        }

        // runSweep's warm-up: record every program's trace once.
        for (Program &p : progs) {
            Span s(rec, "trace.record", p.src->name);
            p.lp->trace();
        }

        for (Program &p : progs) {
            if (p.lintGated)
                continue; // its cells never run; they fail the check
            if (w.lintMode == 0) {
                std::vector<rt::ProgramReport> reps;
                try {
                    Span s(rec, "rt.batch", p.src->name);
                    reps = p.lp->runReplayBatched(cfgs);
                    p.batchDecodes = (lanes + 63) / 64;
                }
                catch (const Error &) {
                    // runSweep's policy: demote the batch to per-cell
                    // replay, lane by lane.
                    ++fallbacks;
                    for (const rt::LPConfig &cfg : cfgs) {
                        Span s(rec, "rt.cell_replay", p.src->name);
                        reps.push_back(p.lp->runReplay(cfg));
                    }
                }
                for (std::size_t c = 0; c < lanes; ++c)
                    report(p, c, std::move(reps[c]));
            } else {
                {
                    Span s(rec, "analysis.pdg", p.src->name);
                    p.lp->staticVerdicts();
                }
                for (std::size_t c = 0; c < lanes; ++c) {
                    rt::ProgramReport rep;
                    {
                        Span s(rec, "rt.cell_replay", p.src->name);
                        rep = p.lp->runReplayWithOracle(cfgs[c]);
                    }
                    report(p, c, std::move(rep));
                }
            }
        }
    }

    // Probes, outside the pass: bare interpretation (the part of
    // recording that is not the recorder) and a decode-only replay.
    std::uint64_t interpInstr = 0, events = 0, payloadBytes = 0;
    double decodeS = 0;
    std::size_t decodes = 0;
    std::uint64_t eventLanes = 0;
    for (Program &p : progs) {
        {
            Span s(rec, "interp.run", p.src->name);
            interp::Machine m(*p.mod);
            m.run();
            interpInstr += m.cost();
        }
        const trace::Trace &t = p.lp->trace();
        CountingSink sink;
        {
            Span s(rec, "trace.decode", p.src->name);
            trace::replayDispatch(p.lp->dispatchTable(), t, sink);
        }
        const int last = static_cast<int>(rec.records().size()) - 1;
        decodeS += rec.seconds(last) * static_cast<double>(p.batchDecodes);
        decodes += p.batchDecodes;
        events += t.events;
        payloadBytes += t.payload.size();
        if (p.batchDecodes != 0)
            eventLanes += t.events * lanes;
    }

    // Cells in the order the pass's own document lists them.
    std::vector<const obs::Json *> order;
    if (w.grid) {
        for (const Program &p : progs)
            for (const obs::Json &c : p.cells)
                order.push_back(&c);
    } else {
        std::vector<std::string> suiteOrder;
        for (const Program &p : progs)
            if (std::find(suiteOrder.begin(), suiteOrder.end(),
                          p.src->suite) == suiteOrder.end())
                suiteOrder.push_back(p.src->suite);
        for (std::size_t c = 0; c < lanes; ++c)
            for (const std::string &suite : suiteOrder)
                for (const Program &p : progs)
                    if (p.src->suite == suite)
                        order.push_back(&p.cells[c]);
    }
    obs::Json digests = obs::Json::array();
    std::uint64_t modelled = 0;
    std::size_t notOk = 0;
    for (const obs::Json *c : order) {
        if (c->isNull()) {
            digests.push("missing");
            ++notOk;
            continue;
        }
        digests.push(digest64(c->dump()));
        if (c->at("status").asString() != "ok")
            ++notOk;
        else
            modelled += c->at("serial_cost").asU64();
    }

    const double calibNs = calib.stop();
    const double batchS = rec.selfTotal("rt.batch");
    const double laneApplyS = batchS - decodeS;
    const double interpS = rec.selfTotal("interp.run");
    const double traced = rec.seconds(passIdx);

    obs::Json out = obs::Json::object();
    out.set("calib_ns", calibNs);
    out.set("traced_wall_s", traced);
    out.set("layer_self_s", traced - rec.selfSeconds(passIdx));
    out.set("suites.build_s", rec.selfTotal("suites.build"));
    out.set("core.prepare_s", rec.selfTotal("core.prepare"));
    out.set("lint.module_s", rec.selfTotal("lint.module"));
    out.set("analysis.pdg_s", rec.selfTotal("analysis.pdg"));
    out.set("trace.record_s", rec.selfTotal("trace.record"));
    out.set("rt.batch_s", batchS);
    out.set("rt.batch_max_program_s", rec.maxSeconds("rt.batch"));
    out.set("rt.cell_replay_s", rec.selfTotal("rt.cell_replay"));
    out.set("rt.report_json_s", rec.selfTotal("rt.report_json"));
    out.set("interp.run_s", interpS);
    out.set("interp.instructions", interpInstr);
    out.set("trace.decode_s", decodeS);
    out.set("trace.decodes", decodes);
    out.set("rt.lane_apply_s", laneApplyS);
    out.set("rt.event_lanes", eventLanes);
    out.set("trace.events", events);
    out.set("trace.bytes", payloadBytes);
    out.set("cells", order.size());
    out.set("programs", progs.size());
    out.set("lanes_per_program", lanes);
    out.set("instr_modelled", modelled);
    out.set("not_ok", notOk);
    out.set("fallbacks", fallbacks);
    out.set("cell_digests", std::move(digests));

    if (!chromePath.empty()) {
        std::ofstream f(chromePath, std::ios::trunc);
        if (!f)
            throw IoError("cannot write " + chromePath);
        f << rec.chromeTrace().dump() << '\n';
    }
    return out;
}

obs::Json
sweepFallbacks(const Workload &w, unsigned jobs)
{
    if (w.grid)
        throw std::invalid_argument(
            "fuzz_grid makes no runSweep; its traced pass counts fallbacks");
    core::SweepRequest req;
    req.lintMode = w.lintMode;
    exec::setJobsOverride(jobs);
    obs::Registry &reg = obs::Registry::instance();
    obs::setMetricsEnabled(true);
    reg.resetAll();
    {
        CoutSilencer quiet;
        core::runSweep(w.programs, req);
    }
    obs::setMetricsEnabled(false);
    obs::Json out = obs::Json::object();
    out.set("fallbacks", reg.counter("sweep.trace_fallbacks").value() +
                             reg.counter("sweep.batch_fallbacks").value());
    return out;
}

} // namespace perfbench
