#include "support/error.hpp"

#include <cstdlib>

#include "obs/log.hpp"

namespace lp {

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Parse: return "LP_PARSE";
      case ErrorCode::Verify: return "LP_VERIFY";
      case ErrorCode::Fuel: return "LP_FUEL";
      case ErrorCode::Deadline: return "LP_DEADLINE";
      case ErrorCode::Heap: return "LP_HEAP";
      case ErrorCode::Stack: return "LP_STACK";
      case ErrorCode::Trap: return "LP_TRAP";
      case ErrorCode::Io: return "LP_IO";
      case ErrorCode::Internal: return "LP_INTERNAL";
      case ErrorCode::Lint: return "LP_LINT";
    }
    return "LP_INTERNAL";
}

bool
errorIsTransient(ErrorCode code)
{
    return code == ErrorCode::Io || code == ErrorCode::Deadline;
}

std::string
ErrorContext::str() const
{
    std::string out;
    auto add = [&](const char *name, const std::string &v) {
        if (v.empty())
            return;
        out += out.empty() ? " (" : ", ";
        out += name;
        out += '=';
        out += v;
    };
    add("program", program);
    add("suite", suite);
    add("config", config);
    add("function", function.empty() ? function : "@" + function);
    add("loop", loop);
    if (line != 0)
        add("line", std::to_string(line));
    if (column != 0)
        add("col", std::to_string(column));
    if (!out.empty())
        out += ')';
    return out;
}

Error::Error(ErrorCode code, std::string msg, ErrorContext ctx)
    // The base message matters for code that slices to FatalError when
    // copying; what() itself always returns the rendered full_ text.
    : FatalError(std::string("[") + errorCodeName(code) + "] " + msg),
      code_(code), msg_(std::move(msg)), ctx_(std::move(ctx))
{
    render();
}

void
Error::render()
{
    full_ = std::string("[") + errorCodeName(code_) + "] " + msg_ +
            ctx_.str();
}

void
Error::noteCell(const std::string &program, const std::string &suite,
                const std::string &config)
{
    if (ctx_.program.empty())
        ctx_.program = program;
    if (ctx_.suite.empty())
        ctx_.suite = suite;
    if (ctx_.config.empty())
        ctx_.config = config;
    render();
}

ParseError::ParseError(std::string msg, unsigned line, unsigned column)
    : Error(ErrorCode::Parse, std::move(msg),
            [&] {
                ErrorContext c;
                c.line = line;
                c.column = column;
                return c;
            }())
{
}

VerifyError::VerifyError(std::string msg, ErrorContext ctx)
    : Error(ErrorCode::Verify, std::move(msg), std::move(ctx))
{
}

ResourceExhausted::ResourceExhausted(ErrorCode which, std::string msg,
                                     ErrorContext ctx)
    : Error(which, std::move(msg), std::move(ctx))
{
    panicIf(which != ErrorCode::Fuel && which != ErrorCode::Deadline &&
                which != ErrorCode::Heap && which != ErrorCode::Stack,
            "ResourceExhausted wants a resource code");
}

InterpreterTrap::InterpreterTrap(std::string msg, ErrorContext ctx)
    : Error(ErrorCode::Trap, std::move(msg), std::move(ctx))
{
}

LintError::LintError(std::string msg, ErrorContext ctx)
    : Error(ErrorCode::Lint, std::move(msg), std::move(ctx))
{
}

IoError::IoError(std::string msg) : Error(ErrorCode::Io, std::move(msg)) {}

InternalError::InternalError(std::string msg)
    : Error(ErrorCode::Internal, std::move(msg))
{
}

void
panic(const std::string &msg)
{
    // Route through the obs logger (the single diagnostics path); force
    // bypasses LP_LOG=off — a panic must never be silent.
    obs::logMessage(obs::Level::Error, "panic: " + msg, /*force=*/true);
    std::abort();
}

void
fatal(const std::string &msg)
{
    // User-level errors are recoverable (callers catch FatalError), so
    // they log only when error-level logging is enabled.
    obs::logMessage(obs::Level::Error, "fatal: " + msg);
    throw FatalError(msg);
}

} // namespace lp
