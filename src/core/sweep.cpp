#include "core/sweep.hpp"

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>

#include "core/configs.hpp"
#include "exec/pool.hpp"
#include "guard/checkpoint.hpp"
#include "guard/quarantine.hpp"
#include "lint/engine.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "prof/collector.hpp"
#include "prof/phase.hpp"
#include "support/error.hpp"
#include "support/table.hpp"
#include "support/text.hpp"

namespace lp::core {

namespace {

/**
 * Status and consistency-check totals over some sweep cells, read back
 * from the cell JSON — so fresh, checkpoint-resumed and shard-merged
 * cells count alike.
 */
struct Tally
{
    std::size_t ok = 0, failed = 0, skipped = 0;
    std::size_t oracleCells = 0;
    std::uint64_t phisChecked = 0, mismatches = 0;
    std::size_t verdictCells = 0;
    std::uint64_t verdictsChecked = 0, contradictions = 0;

    /** Count @p cell; returns its status. */
    const std::string &add(const obs::Json &cell)
    {
        const std::string &status = cell.at("status").asString();
        (status == "ok" ? ok : status == "failed" ? failed : skipped) += 1;
        if (cell.contains("oracle")) {
            const obs::Json &o = cell.at("oracle");
            phisChecked += o.at("phis_checked").asU64();
            mismatches += o.at("mismatches").asU64();
            ++oracleCells;
        }
        if (cell.contains("static_verdict")) {
            const obs::Json &sv = cell.at("static_verdict");
            verdictsChecked += sv.at("loops").size();
            contradictions += sv.at("contradictions").asU64();
            ++verdictCells;
        }
        return status;
    }

    /** A static-vs-dynamic inconsistency is a defect in the framework's
     *  classifier, not in the benchmark: it fails the sweep. */
    int exitCode() const
    {
        return mismatches != 0 || contradictions != 0 ? 1 : 0;
    }
};

} // namespace

std::string
shardCheckpointPath(const std::string &base, unsigned index,
                    unsigned count)
{
    return base + ".shard" + std::to_string(index) + "of" +
           std::to_string(count);
}

SweepResult
runSweep(const std::vector<BenchProgram> &programs, const SweepRequest &req)
{
    const bool sharded = req.shardIndex != 0;
    if (sharded || req.merge) {
        // Shard ownership is positional (cell index mod shard count),
        // so every validation failure here is a config error, not a
        // recoverable condition.
        if (req.checkpointPath.empty())
            fatal("--shards requires --checkpoint PATH (the shard "
                  "checkpoints are the merge protocol)");
        if (req.shardCount == 0)
            fatal("--shards needs a shard count");
        if (sharded && req.merge)
            fatal("--shards I/N runs one shard; --merge takes the plain "
                  "count (--shards N --merge)");
        if (sharded && req.shardIndex > req.shardCount)
            fatal("shard index " + std::to_string(req.shardIndex) +
                  " out of range (have " +
                  std::to_string(req.shardCount) + " shard(s))");
        if (sharded && req.wantJson)
            fatal("a shard run produces no report (merge the shards "
                  "with --merge --json)");
    }

    SweepResult result;

    std::vector<BenchProgram> progs;
    for (const auto &p : programs)
        if (req.suite.empty() || p.suite == req.suite)
            progs.push_back(p);
    if (progs.empty()) {
        std::cerr << "no benchmarks match suite '" << req.suite << "'\n";
        result.exitCode = 1;
        return result;
    }

    StudyOptions studyOpts;
    studyOpts.keepGoing = req.keepGoing;
    Study study(progs, studyOpts);

    std::map<std::string, const PreparedProgram *> preparedByName;
    for (const auto &p : study.programs())
        preparedByName[p->name()] = p.get();
    std::map<std::string, const PrepareFailure *> prepFailByName;
    for (const auto &f : study.prepareFailures())
        prepFailByName[f.program] = &f;

    // Pre-sweep lint gate (--lint / LP_LINT): every prepared module is
    // linted once, before any cell runs.  A module with error-level
    // findings never executes — strict mode aborts the sweep, keep-going
    // quarantines all its cells as status=skipped / LP_LINT.
    std::map<std::string, std::string> lintFailByName;
    if (req.lintMode != 0) {
        prof::ScopedPhase phase("lint");
        for (const auto &p : study.programs()) {
            lint::LintResult res = lint::lintAndPrint(
                p->driver().module(), req.lintMode == 2);
            if (!res.hasErrors())
                continue;
            std::string first;
            for (const lint::Diagnostic &d : res.diags)
                if (d.severity == lint::Severity::Error) {
                    first = d.str();
                    break;
                }
            std::string msg =
                "lint: " +
                std::to_string(res.countAtLeast(lint::Severity::Error)) +
                " error-level finding(s); first: " + first;
            if (!req.keepGoing) {
                ErrorContext ctx;
                ctx.program = p->name();
                ctx.suite = p->suite();
                throw LintError(msg, ctx);
            }
            lintFailByName[p->name()] = msg;
        }
    }

    // Suite order from the registration list, not study.suites(): a
    // suite whose every program failed to prepare must still show up
    // (as skipped cells), not silently vanish.
    std::vector<std::string> suiteOrder;
    for (const auto &p : progs)
        if (std::find(suiteOrder.begin(), suiteOrder.end(), p.suite) ==
            suiteOrder.end())
            suiteOrder.push_back(p.suite);

    std::unique_ptr<guard::Checkpoint> ckpt;
    if (sharded) {
        // Each shard appends to its own checkpoint file, so concurrent
        // shard processes never contend on (or tear) a shared file.
        ckpt = std::make_unique<guard::Checkpoint>(
            shardCheckpointPath(req.checkpointPath, req.shardIndex,
                                req.shardCount),
            req.resume);
    } else if (req.merge) {
        // The merge is itself a resumable sweep: its own checkpoint
        // (".merge") carries any cells the merge ran on a previous
        // attempt, and absorbing the shard files loads everything the
        // shards completed.  Whatever remains — the in-flight cells of
        // a crashed shard, a shard that never ran — is executed below
        // like any other un-checkpointed cell.
        ckpt = std::make_unique<guard::Checkpoint>(
            req.checkpointPath + ".merge", /*resume=*/true);
        std::size_t absorbed = 0;
        for (unsigned i = 1; i <= req.shardCount; ++i)
            absorbed += ckpt->absorb(shardCheckpointPath(
                req.checkpointPath, i, req.shardCount));
        LP_LOG_INFO("merge: absorbed %zu cell(s) from %u shard "
                    "checkpoint(s)",
                    absorbed, req.shardCount);
    } else if (!req.checkpointPath.empty()) {
        ckpt = std::make_unique<guard::Checkpoint>(req.checkpointPath,
                                                   req.resume);
    }
    if (ckpt && ckpt->loadedCells() != 0)
        LP_LOG_INFO("resuming: %zu cell(s) loaded from %s",
                    ckpt->loadedCells(), ckpt->path().c_str());

    // The sweep is a flat list of (configuration, suite, program)
    // cells — the unit of parallelism, of quarantine, of checkpointing
    // and of sharding.  Results are stored by cell index, so the table
    // and the JSON document come out identical whatever the worker
    // count, and identical between a resumed and an uninterrupted run
    // (resumed cells reuse their stored JSON verbatim).  Sharding
    // leans on the same flatness: the list order is deterministic, so
    // "cell index mod shard count" partitions it without coordination.
    struct Cell
    {
        const NamedConfig *config;
        std::string suite;
        std::string program;
        std::uint64_t seed; ///< generator seed (0 = hand-written)
        const PreparedProgram *prepared; ///< null = prepare failed
        obs::Json json;
    };
    std::vector<Cell> cells;
    for (const NamedConfig &named : paperConfigs())
        for (const std::string &suite : suiteOrder)
            for (const auto &p : progs) {
                if (p.suite != suite)
                    continue;
                auto it = preparedByName.find(p.name);
                cells.push_back(
                    {&named, suite, p.name, p.seed,
                     it == preparedByName.end() ? nullptr : it->second,
                     obs::Json()});
            }

    // Shard-summary counters (harmless in unsharded runs).
    std::size_t nResumed = 0;

    auto cellKeyOf = [&](const Cell &cell) {
        return guard::Checkpoint::cellKey(cell.config->label, cell.suite,
                                          cell.program, cell.seed);
    };
    auto errorReport = [&](const Cell &cell, rt::RunStatus status,
                            std::string code, std::string message,
                            unsigned attempts) {
        rt::ProgramReport rep;
        rep.program = cell.program;
        rep.seed = cell.seed;
        rep.config = cell.config->config;
        rep.status = status;
        rep.errorCode = std::move(code);
        rep.errorMessage = std::move(message);
        rep.attempts = attempts;
        return rep.toJson(/*withObsSnapshot=*/false);
    };

    /**
     * Settle a cell that needs no engine pass: a prepare-failed or
     * lint-gated program's cell (synthesized fresh every run, never
     * checkpointed — still deterministic, as the verdicts are) or a
     * cell the checkpoint already holds (reused verbatim).  Returns its
     * profile status, or null for a cell that must run.
     */
    auto settle = [&](Cell &cell) -> const char * {
        if (!cell.prepared) {
            const PrepareFailure *pf = prepFailByName[cell.program];
            cell.json = errorReport(
                cell, rt::RunStatus::Skipped, pf->verdict.codeName(),
                "prepare failed: " + pf->verdict.message,
                static_cast<unsigned>(pf->verdict.attempts));
            return "skipped";
        }
        auto lintFail = lintFailByName.find(cell.program);
        if (lintFail != lintFailByName.end()) {
            cell.json = errorReport(cell, rt::RunStatus::Skipped,
                                     errorCodeName(ErrorCode::Lint),
                                     lintFail->second, 0);
            return "skipped";
        }
        if (ckpt) {
            if (const obs::Json *stored = ckpt->find(cellKeyOf(cell))) {
                cell.json = *stored;
                ++nResumed;
                return "resumed";
            }
        }
        return nullptr;
    };

    // This process owns every cell (unsharded) or the cells whose flat
    // index is congruent to shardIndex-1 mod shardCount — a
    // deterministic, coordination-free partition that also round-robins
    // each configuration's cheap and expensive programs across shards.
    std::vector<std::size_t> owned;
    for (std::size_t i = 0; i < cells.size(); ++i)
        if (!sharded || i % req.shardCount == req.shardIndex - 1)
            owned.push_back(i);

    /** Some of one program's cells, evaluated in one engine pass. */
    struct LaneTask
    {
        const PreparedProgram *prog;
        std::vector<std::size_t> idxs; ///< cell indices (lanes)
    };

    /**
     * Run one lane task as one guarded unit: the engine pass, the
     * lanes' reports and their checkpoint lines.  A transient failure
     * retries the whole unit; a final failure gives every lane the
     * same Failed report (never checkpointed: a deterministic failure
     * reproduces on resume, and a flaky one deserves the fresh
     * attempt).  The task is the profiled unit of work: its lanes'
     * cell records share its wall time.
     */
    auto runTask = [&](const LaneTask &task) {
        std::vector<rt::LPConfig> cfgs;
        prof::TaskScope taskProf;
        for (std::size_t i : task.idxs) {
            const Cell &cell = cells[i];
            cfgs.push_back(cell.config->config);
            taskProf.addCell(cell.program, cell.suite, cell.config->label);
        }
        auto work = [&] {
            // Under --lint the consistency oracle rides along on every
            // lane (the report gains its "oracle" section; reports of
            // lint-free runs are unchanged, keeping checkpoint resume
            // byte-identical).
            std::vector<rt::ProgramReport> reps =
                task.prog->run(cfgs, req.lintMode != 0);
            for (std::size_t l = 0; l < task.idxs.size(); ++l) {
                Cell &cell = cells[task.idxs[l]];
                reps[l].seed = cell.seed;
                taskProf.setInstructions(l, reps[l].serialCost);
                cell.json = reps[l].toJson(/*withObsSnapshot=*/false);
            }
            if (ckpt)
                for (std::size_t i : task.idxs)
                    ckpt->record(cellKeyOf(cells[i]), cells[i].json);
        };
        const Cell &lead = cells[task.idxs.front()];
        if (!req.keepGoing) {
            try {
                taskProf.setAttempts(1);
                work();
                taskProf.setStatus("ok");
            }
            catch (Error &e) {
                e.noteCell(lead.program, lead.suite, lead.config->label);
                throw;
            }
            return;
        }
        guard::RunVerdict v = guard::guardedRun(
            lead.program + " [" + std::to_string(task.idxs.size()) +
                " configuration(s) " + lead.suite + "]",
            work);
        taskProf.setAttempts(static_cast<unsigned>(v.attempts));
        if (v.ok) {
            taskProf.setStatus("ok");
            return;
        }
        for (std::size_t i : task.idxs)
            cells[i].json = errorReport(
                cells[i], rt::RunStatus::Failed, v.codeName(), v.message,
                static_cast<unsigned>(v.attempts));
    };

    // Dispatch the owned cells, inside the profiled region.  Cells that
    // need no engine pass are settled first.  Every other cell is one
    // lane of an engine pass over its program's live event stream:
    // each program's runnable cells become lane tasks, each costing one
    // interpretation of the program, dispatched widest first (LPT
    // order by lane count).  lp::exec workers claim tasks dynamically.
    auto dispatchCells = [&] {
        std::map<const PreparedProgram *, std::vector<std::size_t>> byProg;
        for (std::size_t i : owned) {
            Cell &cell = cells[i];
            if (const char *status = settle(cell)) {
                prof::TaskScope cellProf(cell.program, cell.suite,
                                         cell.config->label);
                cellProf.setStatus(status);
            } else {
                byProg[cell.prepared].push_back(i);
            }
        }

        // One task per program and 64-lane pass.  Tasks are not split
        // to cover idle workers: a split costs one more interpretation,
        // which measured slower than the lanes it spreads out.
        std::vector<LaneTask> tasks;
        for (auto &[prog, idxs] : byProg)
            for (std::size_t lo = 0; lo < idxs.size(); lo += rt::kMaxLanes)
                tasks.push_back(
                    {prog,
                     {idxs.begin() + static_cast<std::ptrdiff_t>(lo),
                      idxs.begin() + static_cast<std::ptrdiff_t>(std::min(
                                         lo + rt::kMaxLanes, idxs.size()))}});
        std::stable_sort(tasks.begin(), tasks.end(),
                         [](const LaneTask &a, const LaneTask &b) {
                             return a.idxs.size() > b.idxs.size();
                         });
        exec::parallelFor(tasks.size(),
                          [&](std::size_t k) { runTask(tasks[k]); });
    };

    if (sharded) {
        prof::Collector::instance().beginRegion();
        dispatchCells();
        prof::Collector::instance().endRegion();

        // No table, no aggregation: a shard sees only its slice, so any
        // per-(config, suite) geomean it printed would be wrong.  The
        // merge step owns reporting.
        Tally shard;
        for (std::size_t i : owned)
            shard.add(cells[i].json);
        std::cout << "shard " << req.shardIndex << "/" << req.shardCount
                  << ": " << owned.size() << " of " << cells.size()
                  << " cell(s) — " << shard.ok << " ok, " << shard.failed
                  << " failed, " << shard.skipped << " skipped, "
                  << nResumed << " resumed\n"
                  << "checkpoint: " << ckpt->path() << "\n";
        if (shard.mismatches != 0)
            std::cout << "oracle: " << shard.mismatches
                      << " mismatch(es) in this shard\n";
        if (shard.contradictions != 0)
            std::cout << "static verdicts: " << shard.contradictions
                      << " contradiction(s) in this shard\n";
        result.exitCode = shard.exitCode();
        return result;
    }

    // The profiled region is the cell dispatch: queue-wait and worker
    // utilization are measured against it.
    prof::Collector::instance().beginRegion();
    dispatchCells();
    prof::Collector::instance().endRegion();

    obs::Json suitesJson = obs::Json::array();
    obs::Json reportsJson = obs::Json::array();
    TextTable t({"configuration", "suite", "geomean speedup",
                 "geomean coverage", "ok", "failed", "skipped"});
    std::vector<const Cell *> unhealthy;
    Tally total;

    // Aggregate per (configuration, suite) group.  Everything — status,
    // geomean inputs — is read back from the cell JSON, so fresh,
    // checkpoint-resumed and shard-merged cells flow through the
    // identical computation; that shared path is what makes a merged
    // report byte-identical to an unsharded run's.
    std::size_t at = 0;
    for (const NamedConfig &named : paperConfigs()) {
        for (const std::string &suite : suiteOrder) {
            GroupGeomeans geomeans;
            Tally group;
            for (; at < cells.size() && cells[at].config == &named &&
                   cells[at].suite == suite;
                 ++at) {
                const Cell &cell = cells[at];
                total.add(cell.json);
                if (group.add(cell.json) == "ok")
                    geomeans.add(cell.json.at("speedup").asDouble(),
                                 cell.json.at("coverage").asDouble());
                else
                    unhealthy.push_back(&cell);
                if (req.wantJson)
                    reportsJson.push(cell.json);
            }
            const double speedup = geomeans.speedup();
            const double coverage = geomeans.coveragePct();
            t.addRow({named.label, suite, TextTable::num(speedup) + "x",
                      TextTable::num(coverage, 1) + "%",
                      std::to_string(group.ok),
                      std::to_string(group.failed),
                      std::to_string(group.skipped)});
            if (req.wantJson) {
                obs::Json row = obs::Json::object();
                row.set("config", named.label);
                row.set("suite", suite);
                row.set("geomean_speedup", speedup);
                row.set("geomean_coverage_pct", coverage);
                row.set("ok", group.ok);
                row.set("failed", group.failed);
                row.set("skipped", group.skipped);
                suitesJson.push(std::move(row));
            }
        }
    }
    t.print(std::cout);

    if (total.oracleCells != 0)
        std::cout << "oracle: " << total.phisChecked
                  << " phi(s) checked across " << total.oracleCells
                  << " cell(s), " << total.mismatches << " mismatch(es)\n";
    if (total.verdictCells != 0)
        std::cout << "static verdicts: " << total.verdictsChecked
                  << " loop verdict(s) checked across "
                  << total.verdictCells << " cell(s), "
                  << total.contradictions << " contradiction(s)\n";

    if (!unhealthy.empty()) {
        std::cout << unhealthy.size() << " cell(s) did not complete:\n";
        for (const Cell *cell : unhealthy)
            std::cout << "  " << cell->json.at("status").asString()
                      << "  " << cell->program << " ["
                      << cell->config->label << " " << cell->suite
                      << "]  " << cell->json.at("error_code").asString()
                      << "\n";
    }

    if (req.wantJson) {
        obs::Json doc = obs::Json::object();
        doc.set("suites", std::move(suitesJson));
        doc.set("reports", std::move(reportsJson));
        // Metrics and phase timings hold wall-clock values, which would
        // break the resume guarantee (a resumed run's report must be
        // byte-identical to an uninterrupted one); they join the sweep
        // document only when metrics are explicitly on.
        if (obs::metricsOn()) {
            doc.set("metrics", obs::Registry::instance().toJson());
            doc.set("phases", prof::PhaseTree::instance().toJson());
        }
        result.hasDocument = true;
        result.document = std::move(doc);
    }
    result.exitCode = total.exitCode();
    return result;
}

} // namespace lp::core
