#include "core/study.hpp"

#include <algorithm>

#include "exec/pool.hpp"
#include "interp/machine.hpp"
#include "obs/log.hpp"
#include "prof/phase.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace lp::core {

PreparedProgram::PreparedProgram(const BenchProgram &prog) : prog_(prog)
{
    prof::ScopedPhase phase("prepare");
    LP_LOG_DEBUG("preparing program %s (%s)", prog_.name.c_str(),
                 prog_.suite.c_str());
    {
        prof::ScopedPhase buildPhase("build");
        mod_ = prog_.build();
    }
    fatalIf(!mod_, "program " + prog_.name + " built no module");
    lp_ = std::make_unique<Loopapalooza>(*mod_);

    if (prog_.checkExpected) {
        // Self-check: a plain, uninstrumented run must produce the value
        // the kernel author recorded.  Guards against kernels silently
        // computing garbage (e.g. dead loops an optimizer would remove).
        prof::ScopedPhase checkPhase("self-check");
        interp::Machine machine(*mod_);
        std::uint64_t got = machine.run();
        fatalIf(got != prog_.expected,
                strf("program %s self-check failed: got %llu, want %llu",
                     prog_.name.c_str(),
                     static_cast<unsigned long long>(got),
                     static_cast<unsigned long long>(prog_.expected)));
    }
}

std::vector<rt::ProgramReport>
PreparedProgram::run(const std::vector<rt::LPConfig> &cfgs, bool oracle) const
{
    std::vector<rt::ProgramReport> reps = lp_->run(cfgs, oracle);
    for (rt::ProgramReport &rep : reps)
        rep.program = prog_.name;
    return reps;
}

Study::Study(const std::vector<BenchProgram> &programs, unsigned jobs)
{
    StudyOptions opts;
    opts.jobs = jobs;
    prepare(programs, opts);
}

Study::Study(const std::vector<BenchProgram> &programs,
             const StudyOptions &opts)
{
    prepare(programs, opts);
}

void
Study::prepare(const std::vector<BenchProgram> &programs,
               const StudyOptions &opts)
{
    programs_.resize(programs.size());
    if (!opts.keepGoing) {
        exec::parallelFor(
            programs.size(),
            [&](std::size_t i) {
                programs_[i] =
                    std::make_unique<PreparedProgram>(programs[i]);
            },
            opts.jobs);
    } else {
        // Slot i is written only by the worker that claimed index i, so
        // the verdict vector needs no lock; the pool joins inside
        // parallelFor before we read it.
        std::vector<guard::RunVerdict> verdicts(programs.size());
        exec::parallelFor(
            programs.size(),
            [&](std::size_t i) {
                verdicts[i] = guard::guardedRun(
                    programs[i].name + " [prepare]",
                    [&] {
                        programs_[i] = std::make_unique<PreparedProgram>(
                            programs[i]);
                    });
            },
            opts.jobs);
        for (std::size_t i = 0; i < programs.size(); ++i) {
            if (verdicts[i].ok)
                continue;
            prepareFailures_.push_back(
                {programs[i].name, programs[i].suite, verdicts[i]});
        }
        std::erase_if(programs_,
                      [](const std::unique_ptr<PreparedProgram> &p) {
                          return !p;
                      });
    }
    LP_LOG_INFO("study prepared: %zu programs, %zu suites, %zu "
                "quarantined",
                programs_.size(), suites().size(),
                prepareFailures_.size());
}

std::vector<std::string>
Study::suites() const
{
    std::vector<std::string> out;
    for (const auto &p : programs_) {
        if (std::find(out.begin(), out.end(), p->suite()) == out.end())
            out.push_back(p->suite());
    }
    return out;
}

void
GroupGeomeans::add(double speedup, double coverage)
{
    speedup_.add(std::max(speedup, 1e-6));
    coverage_.add(std::max(coverage * 100.0, 0.1));
}

double
Study::geomeanSpeedup(const std::vector<rt::ProgramReport> &reports)
{
    GroupGeomeans acc;
    for (const auto &r : reports)
        if (r.ok())
            acc.add(r.speedup(), r.coverage);
    return acc.speedup();
}

double
Study::geomeanCoverage(const std::vector<rt::ProgramReport> &reports)
{
    GroupGeomeans acc;
    for (const auto &r : reports)
        if (r.ok())
            acc.add(r.speedup(), r.coverage);
    return acc.coveragePct();
}

} // namespace lp::core
