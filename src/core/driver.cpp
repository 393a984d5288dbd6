#include "core/driver.hpp"

#include <algorithm>
#include <optional>

#include "analysis/ssa_verify.hpp"
#include "guard/budget.hpp"
#include "ir/verifier.hpp"
#include "lint/oracle.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "prof/phase.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace lp::core {

Loopapalooza::Loopapalooza(const ir::Module &mod) : mod_(mod)
{
    {
        prof::ScopedPhase phase("verify");
        ir::verifyModuleOrDie(mod);
        ir::VerifyResult ssa = analysis::verifySSA(mod);
        if (!ssa.ok())
            throw VerifyError("SSA verification failed:\n" +
                              ssa.message());
    }
    {
        prof::ScopedPhase phase("analyze");
        plan_ = std::make_unique<rt::ModulePlan>(mod);
        dispatch_ = rt::buildDispatchTable(*plan_);
    }

    std::size_t loops = 0;
    for (const auto &fp : plan_->functionPlans())
        loops += fp->loopPlans.size();
    if (obs::metricsOn())
        obs::Registry::instance()
            .counter("plan.loops_analyzed")
            .add(loops);
    LP_LOG_INFO("analyzed module %s: %zu functions, %zu static loops",
                mod.name().c_str(), plan_->functionPlans().size(), loops);
}

std::vector<rt::ProgramReport>
Loopapalooza::run(const std::vector<rt::LPConfig> &cfgs, bool oracle) const
{
    const trace::Trace &t = trace();
    const bool live = t.truncated;
    if (live)
        LP_LOG_WARN("trace of %s outgrew the trace byte budget; "
                    "evaluating %zu configuration(s) from a live run",
                    mod_.name().c_str(), cfgs.size());
    LP_LOG_DEBUG("evaluating %s under %zu configuration(s)%s",
                 mod_.name().c_str(), cfgs.size(),
                 oracle ? " (oracle attached)" : "");

    std::vector<rt::ProgramReport> reports;
    reports.reserve(cfgs.size());
    for (std::size_t lo = 0; lo < cfgs.size(); lo += rt::kMaxLanes) {
        const std::vector<rt::LPConfig> pass(
            cfgs.begin() + static_cast<std::ptrdiff_t>(lo),
            cfgs.begin() + static_cast<std::ptrdiff_t>(std::min(
                               lo + rt::kMaxLanes, cfgs.size())));
        // One capture per pass: its watches and evidence depend only on
        // the event stream, so every lane is judged from the same one.
        std::optional<rt::OracleCapture> cap;
        if (oracle)
            cap.emplace();
        if (live && obs::metricsOn())
            obs::Registry::instance()
                .counter("sweep.trace_fallbacks")
                .add(1);
        std::vector<rt::ProgramReport> reps =
            rt::evaluate(*plan_, dispatch_, live ? nullptr : &t, pass,
                         mod_.name(), cap ? &*cap : nullptr);
        for (rt::ProgramReport &rep : reps) {
            if (cap) {
                lint::applyOracle(*cap, rep);
                lint::applyVerdictOracle(staticVerdicts(), rep);
            }
            reports.push_back(std::move(rep));
        }
    }
    return reports;
}

const std::vector<analysis::LoopVerdictSummary> &
Loopapalooza::staticVerdicts() const
{
    std::lock_guard<prof::TimedMutex> lock(verdictMu_);
    if (!verdicts_)
        verdicts_ =
            std::make_unique<std::vector<analysis::LoopVerdictSummary>>(
                analysis::classifyModuleVerdicts(mod_));
    return *verdicts_;
}

const trace::Trace &
Loopapalooza::trace() const
{
    std::lock_guard<prof::TimedMutex> lock(traceMu_);
    if (trace_)
        return *trace_;
    if (traceError_)
        std::rethrow_exception(traceError_);
    try {
        trace_ = std::make_unique<trace::Trace>(rt::recordTrace(
            mod_, dispatch_, guard::defaultBudget()));
    }
    catch (const Error &e) {
        // A deterministic failure (trap, fuel, truncation, ...) would
        // recur on every re-record, so cache it: later cells of this
        // program fail fast with the same error.  Transient failures
        // (wall-clock deadline on a loaded machine) stay uncached so a
        // guardedRun retry records afresh.
        if (!e.transient())
            traceError_ = std::current_exception();
        throw;
    }
    catch (...) {
        traceError_ = std::current_exception();
        throw;
    }
    if (trace_->truncated) {
        // The partial payload can never be replayed; keep the header.
        trace_->payload.clear();
        trace_->payload.shrink_to_fit();
    }
    LP_LOG_INFO("recorded %s: %llu events, %zu payload bytes, final "
                "cost %llu",
                mod_.name().c_str(),
                static_cast<unsigned long long>(trace_->events),
                trace_->payload.size(),
                static_cast<unsigned long long>(trace_->finalCost));
    return *trace_;
}

} // namespace lp::core
