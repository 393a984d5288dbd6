#include "lint/engine.hpp"

#include <iostream>

#include "lint/lcd_classify.hpp"
#include "obs/metrics.hpp"

namespace lp::lint {

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Note: return "note";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "note";
}

std::string
Location::str() const
{
    std::string out;
    if (!function.empty())
        out += "@" + function;
    if (!block.empty())
        out += (out.empty() ? "" : ":") + block;
    if (!instr.empty())
        out += (out.empty() ? "%" : ":%") + instr;
    if (line != 0) {
        out += " (line " + std::to_string(line);
        if (column != 0)
            out += ", col " + std::to_string(column);
        out += ")";
    }
    return out;
}

std::string
Diagnostic::str() const
{
    std::string out = severityName(severity);
    out += " ";
    out += rule;
    std::string where = loc.str();
    if (!where.empty())
        out += " " + where;
    out += ": " + message;
    return out;
}

Location
locate(const ir::Instruction *instr)
{
    Location loc;
    if (instr == nullptr)
        return loc;
    if (const ir::BasicBlock *bb = instr->parent()) {
        loc.block = bb->name();
        if (bb->parent() != nullptr)
            loc.function = bb->parent()->name();
    }
    loc.instr = instr->name();
    ir::SrcLoc src = instr->srcLoc();
    loc.line = src.line;
    loc.column = src.column;
    return loc;
}

const std::vector<std::unique_ptr<analysis::LoopPdg>> &
FunctionAnalyses::pdgs() const
{
    if (!pdgsBuilt_) {
        for (const auto &loop : li.loops())
            pdgs_.push_back(std::make_unique<analysis::LoopPdg>(
                loop.get(), mod, li, uses, se, purity));
        pdgsBuilt_ = true;
    }
    return pdgs_;
}

Engine::Engine() : rules_(standardRules()) {}

void
Engine::addRule(std::unique_ptr<Rule> rule)
{
    rules_.push_back(std::move(rule));
}

LintResult
Engine::run(const ir::Module &mod, const LintOptions &opts) const
{
    LintResult res;
    res.module = mod.name();
    res.artifact = mod.name();

    auto disabled = [&](const char *id) {
        for (const std::string &d : opts.disabledRules)
            if (d == id)
                return true;
        return false;
    };

    for (const auto &fn : mod.functions()) {
        if (fn->entry() == nullptr)
            continue;
        FunctionAnalyses fa(mod, *fn);
        for (const auto &rule : rules_) {
            if (disabled(rule->id()))
                continue;
            rule->run(fa, res.diags);
        }
    }

    if (opts.warningsAsErrors)
        for (Diagnostic &d : res.diags)
            if (d.severity == Severity::Warning)
                d.severity = Severity::Error;

    if (opts.classify)
        res.deps = classifyModule(mod);

    return res;
}

LintResult
lintModule(const ir::Module &mod, const LintOptions &opts)
{
    static const Engine engine;
    return engine.run(mod, opts);
}

LintResult
lintAndPrint(const ir::Module &mod, bool warningsAsErrors)
{
    LintOptions lo;
    lo.warningsAsErrors = warningsAsErrors;
    LintResult res = lintModule(mod, lo);
    if (obs::metricsOn()) {
        obs::Registry::instance().counter("lint.modules_linted").add(1);
        obs::Registry::instance()
            .counter("lint.findings")
            .add(res.diags.size());
    }
    for (const Diagnostic &d : res.diags)
        std::cout << "lint: " << d.str() << "\n";
    return res;
}

} // namespace lp::lint
