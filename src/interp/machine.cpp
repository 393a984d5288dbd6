#include "interp/machine.hpp"

#include <bit>
#include <cassert>
#include <cmath>

#include "guard/fault.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/text.hpp"
#include "trace/recorder.hpp"

namespace lp::interp {

using ir::Instruction;
using ir::Opcode;
using ir::Value;
using ir::ValueKind;

namespace {

double
asF64(std::uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

std::uint64_t
asBits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

std::int64_t
asI64(std::uint64_t bits)
{
    return static_cast<std::int64_t>(bits);
}

/**
 * Instructions between wall-clock deadline polls.  A clock read every
 * ~262k instructions is a few hundred reads per simulated second —
 * invisible next to the interpreter loop — while bounding deadline
 * overshoot to a few milliseconds.
 */
constexpr std::uint64_t kDeadlineStride = 1ULL << 18;

ErrorContext
fnContext(const ir::Function *fn)
{
    ErrorContext ctx;
    ctx.function = fn->name();
    return ctx;
}

/**
 * Instrumentation sinks for the templated interpreter loop.  Each event
 * is a direct call the compiler can inline (and, for NullSink, erase),
 * so instrumentation costs nothing unless a sink actually consumes it.
 */
struct NullSink
{
    void functionEnter(const ir::Function *) {}
    void functionExit(const ir::Function *) {}
    void blockEnter(const ir::BasicBlock *) {}
    void phiResolved(const Instruction *, std::uint64_t) {}
    void load(const Instruction *, std::uint64_t) {}
    void store(const Instruction *, std::uint64_t) {}
    void callSite(const Instruction *) {}
};

/** Classic virtual-dispatch path for external ExecListener observers. */
struct ListenerSink
{
    ExecListener *l;

    void functionEnter(const ir::Function *fn) { l->onFunctionEnter(fn); }
    void functionExit(const ir::Function *fn) { l->onFunctionExit(fn); }
    void blockEnter(const ir::BasicBlock *bb) { l->onBlockEnter(bb); }
    void phiResolved(const Instruction *phi, std::uint64_t bits)
    {
        l->onPhiResolved(phi, bits);
    }
    void load(const Instruction *i, std::uint64_t a) { l->onLoad(i, a); }
    void store(const Instruction *i, std::uint64_t a) { l->onStore(i, a); }
    void callSite(const Instruction *i) { l->onCallSite(i); }
};

/**
 * Trace-recording path: forwards each event to the Recorder together
 * with the machine state it encodes (stack pointer, position in the
 * block), all as direct calls.
 */
struct RecorderSink
{
    trace::Recorder *r;
    const Machine *m;

    void functionEnter(const ir::Function *fn) { r->functionEnter(fn); }
    void functionExit(const ir::Function *) { r->functionExit(); }
    void blockEnter(const ir::BasicBlock *bb)
    {
        r->blockEnter(bb, m->stackPointer());
    }
    void phiResolved(const Instruction *, std::uint64_t bits)
    {
        r->phiResolved(bits);
    }
    void load(const Instruction *, std::uint64_t a)
    {
        r->load(m->ipInBlock(), a);
    }
    void store(const Instruction *, std::uint64_t a)
    {
        r->store(m->ipInBlock(), a);
    }
    void callSite(const Instruction *i) { r->callSite(i, m->ipInBlock()); }
};

} // namespace

Machine::Machine(const ir::Module &mod, ExecListener *listener)
    : mod_(mod), listener_(listener)
{
    for (const auto &fn : mod.functions())
        fatalIf(!fn->finalized(),
                "module not finalized before interpretation");
    // Copy the external impls so stateful ones (rand's LCG) restart per
    // run and never share mutable state across concurrent Machines.
    extImpls_.reserve(mod.externals().size());
    for (const auto &ext : mod.externals())
        extImpls_.push_back(ext->impl());
    setBudget(guard::defaultBudget());
}

void
Machine::setBudget(const guard::RunBudget &b)
{
    costLimit_ = b.maxInstructions == 0 ? UINT64_MAX : b.maxInstructions;
    wallLimitMs_ = b.maxWallMs;
    mem_.setHeapLimit(b.maxHeapBytes);
}

void
Machine::throwFuelExhausted(const ir::Function *fn) const
{
    throw ResourceExhausted(
        ErrorCode::Fuel,
        strf("dynamic instruction limit exceeded in @%s: %llu "
             "instructions > budget %llu",
             fn->name().c_str(), static_cast<unsigned long long>(cost_),
             static_cast<unsigned long long>(costLimit_)),
        fnContext(fn));
}

void
Machine::pollBudgets(const ir::Function *fn)
{
    nextPollCost_ = cost_ + kDeadlineStride;
    if (std::chrono::steady_clock::now() <= deadline_)
        return;
    throw ResourceExhausted(
        ErrorCode::Deadline,
        strf("wall-clock budget of %llu ms exceeded in @%s after %llu "
             "instructions",
             static_cast<unsigned long long>(wallLimitMs_),
             fn->name().c_str(), static_cast<unsigned long long>(cost_)),
        fnContext(fn));
}

std::uint64_t
Machine::run()
{
    fatalIf(ran_, "Machine::run may only be called once");
    ran_ = true;
    guard::faultPoint("interp");
    if (wallLimitMs_ != 0) {
        deadline_ = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(wallLimitMs_);
        nextPollCost_ = 0; // first block reaches the cold poll
    }

    for (const auto &g : mod_.globals()) {
        [[maybe_unused]] std::uint64_t addr =
            mem_.allocGlobal(g->sizeBytes());
        assert(addr == Memory::kGlobalBase + g->offsetBytes() &&
               "module global layout disagrees with Memory::allocGlobal");
    }

    const ir::Function *main = mod_.mainFunction();
    fatalIf(!main, "module has no main()");
    fatalIf(!main->args().empty(), "main() must take no arguments");
    std::uint64_t result = execFunction(main, {});

    if (obs::metricsOn()) {
        obs::Registry &reg = obs::Registry::instance();
        reg.counter("interp.instructions").add(cost_);
        reg.counter("interp.runs").add(1);
    }
    return result;
}

std::uint64_t
Machine::evalValue(const Value *v,
                   const std::vector<std::uint64_t> &regs) const
{
    switch (v->kind()) {
      case ValueKind::ConstInt:
        return static_cast<std::uint64_t>(
            static_cast<const ir::ConstInt *>(v)->value());
      case ValueKind::ConstFloat:
        return asBits(static_cast<const ir::ConstFloat *>(v)->value());
      case ValueKind::Global:
        return Memory::kGlobalBase +
               static_cast<const ir::Global *>(v)->offsetBytes();
      case ValueKind::Argument:
      case ValueKind::Instruction:
        return regs[v->localId()];
    }
    panic("unreachable value kind");
}

std::uint64_t
Machine::execFunction(const ir::Function *fn,
                      const std::vector<std::uint64_t> &args)
{
    if (recorder_)
        return execFunctionT(fn, args, RecorderSink{recorder_, this});
    if (listener_)
        return execFunctionT(fn, args, ListenerSink{listener_});
    return execFunctionT(fn, args, NullSink{});
}

template <typename Sink>
std::uint64_t
Machine::execFunctionT(const ir::Function *fn,
                       const std::vector<std::uint64_t> &args, Sink sink)
{
    fatalIf(args.size() != fn->args().size(),
            "argument count mismatch calling @" + fn->name());
    if (++callDepth_ > 10'000)
        throw ResourceExhausted(ErrorCode::Stack,
                                "simulated call stack overflow calling @" +
                                    fn->name(),
                                fnContext(fn));

    const std::uint64_t savedSp = sp_;
    const std::uint64_t savedBlockSize = curBlockSize_;
    const std::uint64_t savedIp = ipInBlock_;
    sink.functionEnter(fn);

    if (regScratch_.size() < callDepth_)
        regScratch_.emplace_back();
    std::vector<std::uint64_t> &regs = regScratch_[callDepth_ - 1];
    regs.assign(fn->numLocals(), 0);
    for (std::size_t i = 0; i < args.size(); ++i)
        regs[fn->args()[i]->localId()] = args[i];

    const ir::BasicBlock *bb = fn->entry();
    const ir::BasicBlock *prev = nullptr;
    std::uint64_t result = 0;

    for (;;) {
        cost_ += bb->instructions().size();
        curBlockSize_ = bb->instructions().size();
        ipInBlock_ = 0;
        if (cost_ > costLimit_) [[unlikely]]
            throwFuelExhausted(fn);
        if (cost_ >= nextPollCost_) [[unlikely]]
            pollBudgets(fn);
        sink.blockEnter(bb);

        // Phis resolve in parallel against the incoming edge.
        std::size_t ip = 0;
        const auto &instrs = bb->instructions();
        if (!instrs.empty() && instrs[0]->isPhi()) {
            phiScratch_.clear();
            for (; ip < instrs.size() && instrs[ip]->isPhi(); ++ip) {
                const Instruction *phi = instrs[ip].get();
                panicIf(!prev, "phi in entry block of @" + fn->name());
                phiScratch_.emplace_back(
                    phi, evalValue(phi->incomingFor(prev), regs));
            }
            for (const auto &[phi, bits] : phiScratch_) {
                regs[phi->localId()] = bits;
                sink.phiResolved(phi, bits);
            }
        }

        const ir::BasicBlock *next = nullptr;
        for (; ip < instrs.size(); ++ip) {
            const Instruction &instr = *instrs[ip];
            ipInBlock_ = ip;
            switch (instr.opcode()) {
              case Opcode::Br: {
                std::uint64_t c = evalValue(instr.operand(0), regs);
                next = instr.blocks()[c ? 0 : 1];
                break;
              }
              case Opcode::Jmp:
                next = instr.blocks()[0];
                break;
              case Opcode::Ret:
                if (instr.numOperands() == 1)
                    result = evalValue(instr.operand(0), regs);
                sink.functionExit(fn);
                sp_ = savedSp;
                curBlockSize_ = savedBlockSize;
                ipInBlock_ = savedIp;
                --callDepth_;
                return result;
              default:
                regs[instr.localId()] =
                    execInstructionT(instr, regs, sink);
                break;
            }
        }
        panicIf(!next, "block fell through without terminator");
        prev = bb;
        bb = next;
    }
}

template <typename Sink>
std::uint64_t
Machine::execInstructionT(const Instruction &instr,
                          std::vector<std::uint64_t> &regs, Sink sink)
{
    auto op = [&](unsigned i) { return evalValue(instr.operand(i), regs); };
    auto iop = [&](unsigned i) { return asI64(op(i)); };
    auto fop = [&](unsigned i) { return asF64(op(i)); };

    switch (instr.opcode()) {
      case Opcode::Add: return op(0) + op(1);
      case Opcode::Sub: return op(0) - op(1);
      case Opcode::Mul: return op(0) * op(1);
      case Opcode::SDiv: {
        std::int64_t d = iop(1);
        if (d == 0)
            throw InterpreterTrap("division by zero");
        return static_cast<std::uint64_t>(iop(0) / d);
      }
      case Opcode::SRem: {
        std::int64_t d = iop(1);
        if (d == 0)
            throw InterpreterTrap("remainder by zero");
        return static_cast<std::uint64_t>(iop(0) % d);
      }
      case Opcode::And: return op(0) & op(1);
      case Opcode::Or: return op(0) | op(1);
      case Opcode::Xor: return op(0) ^ op(1);
      case Opcode::Shl: return op(0) << (op(1) & 63);
      case Opcode::AShr:
        return static_cast<std::uint64_t>(iop(0) >> (op(1) & 63));

      case Opcode::FAdd: return asBits(fop(0) + fop(1));
      case Opcode::FSub: return asBits(fop(0) - fop(1));
      case Opcode::FMul: return asBits(fop(0) * fop(1));
      case Opcode::FDiv: return asBits(fop(0) / fop(1));

      case Opcode::ICmpEq: return iop(0) == iop(1);
      case Opcode::ICmpNe: return iop(0) != iop(1);
      case Opcode::ICmpLt: return iop(0) < iop(1);
      case Opcode::ICmpLe: return iop(0) <= iop(1);
      case Opcode::ICmpGt: return iop(0) > iop(1);
      case Opcode::ICmpGe: return iop(0) >= iop(1);

      case Opcode::FCmpEq: return fop(0) == fop(1);
      case Opcode::FCmpNe: return fop(0) != fop(1);
      case Opcode::FCmpLt: return fop(0) < fop(1);
      case Opcode::FCmpLe: return fop(0) <= fop(1);
      case Opcode::FCmpGt: return fop(0) > fop(1);
      case Opcode::FCmpGe: return fop(0) >= fop(1);

      case Opcode::Select: return op(0) ? op(1) : op(2);
      case Opcode::IToF: return asBits(static_cast<double>(iop(0)));
      case Opcode::FToI:
        return static_cast<std::uint64_t>(
            static_cast<std::int64_t>(fop(0)));

      case Opcode::Alloca: {
        std::uint64_t size = op(0);
        std::uint64_t addr = sp_;
        sp_ += (size + 7) & ~std::uint64_t{7};
        mem_.ensureStack(sp_);
        return addr;
      }
      case Opcode::Load: {
        std::uint64_t addr = op(0);
        sink.load(&instr, addr);
        return mem_.load64(addr);
      }
      case Opcode::Store: {
        std::uint64_t addr = op(1);
        sink.store(&instr, addr);
        mem_.store64(addr, op(0));
        return 0;
      }
      case Opcode::PtrAdd: return op(0) + op(1);

      case Opcode::Call: {
        sink.callSite(&instr);
        // Scratch slot by depth: dead once the callee (depth + 1) has
        // copied it into its registers, so depths never collide.
        while (argScratch_.size() <= callDepth_)
            argScratch_.emplace_back();
        std::vector<std::uint64_t> &args = argScratch_[callDepth_];
        args.resize(instr.numOperands());
        for (unsigned i = 0; i < instr.numOperands(); ++i)
            args[i] = op(i);
        return execFunctionT(instr.callee(), args, sink);
      }
      case Opcode::CallExt: {
        sink.callSite(&instr);
        while (argScratch_.size() <= callDepth_)
            argScratch_.emplace_back();
        std::vector<std::uint64_t> &args = argScratch_[callDepth_];
        args.resize(instr.numOperands());
        for (unsigned i = 0; i < instr.numOperands(); ++i)
            args[i] = op(i);
        const ir::ExternalFunction *ext = instr.externalCallee();
        cost_ += ext->cost();
        return extImpls_[ext->index()](*this, args);
      }

      case Opcode::Phi:
      case Opcode::Br:
      case Opcode::Jmp:
      case Opcode::Ret:
        break;
    }
    panic("unhandled opcode in execInstruction");
}

} // namespace lp::interp
