#include "core/driver.hpp"

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
    LP_LOG_DEBUG("evaluating %s under %zu configuration(s)%s",
                 mod_.name().c_str(), cfgs.size(),
                 oracle ? " (oracle attached)" : "");
    rt::OracleCapture cap;
    std::vector<rt::ProgramReport> reports =
        rt::evaluate(*plan_, dispatch_, nullptr, cfgs, mod_.name(),
                     oracle ? &cap : nullptr);
    if (!oracle)
        return reports;
    const auto &verdicts = staticVerdicts();
    for (rt::ProgramReport &rep : reports) {
        lint::applyOracle(cap, rep);
        lint::applyVerdictOracle(verdicts, rep);
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
    trace_ = std::make_unique<trace::Trace>(
        rt::recordTrace(mod_, dispatch_, guard::defaultBudget()));
    LP_LOG_INFO("recorded %s: %llu events, %zu payload bytes, final "
                "cost %llu",
                mod_.name().c_str(),
                static_cast<unsigned long long>(trace_->events),
                trace_->payload.size(),
                static_cast<unsigned long long>(trace_->finalCost));
    return *trace_;
}

} // namespace lp::core
