#include "trace/recorder.hpp"

#include "support/error.hpp"

namespace lp::trace {

Recorder::Recorder(const BatchDispatchTable &table) : table_(table) {}

void
Recorder::emit(const Event &e)
{
    w_.event(e);
    ++events_;
}

void
Recorder::functionEnter(const ir::Function *fn)
{
    emit({EventKind::FuncEnter, fn->index(), 0});
}

void
Recorder::functionExit()
{
    emit({EventKind::FuncExit, 0, 0});
}

void
Recorder::blockEnter(const ir::BasicBlock *bb, std::uint64_t sp)
{
    const std::uint64_t bid = bb->globalIndex();
    curBlockIsHeader_ = table_.blocks[bid].headerOrdinal >= 0;
    if (curBlockIsHeader_)
        emit({EventKind::BlockEnterHeader, bid, sp >> 3});
    else
        emit({EventKind::BlockEnter, bid, 0});
}

void
Recorder::phiResolved(std::uint64_t bits)
{
    if (curBlockIsHeader_)
        emit({EventKind::Phi, bits, 0});
}

void
Recorder::load(std::uint64_t ip, std::uint64_t addr)
{
    emit({EventKind::Load, ip, addr >> 3});
}

void
Recorder::store(std::uint64_t ip, std::uint64_t addr)
{
    emit({EventKind::Store, ip, addr >> 3});
}

void
Recorder::callSite(const ir::Instruction *instr, std::uint64_t ip)
{
    // Internal calls contribute cost through their callee's blocks; only
    // external calls carry out-of-band cost the replayed clock needs.
    if (instr->opcode() == ir::Opcode::CallExt)
        emit({EventKind::CallSite, ip, 0});
}

Trace
Recorder::finish(std::uint64_t finalCost)
{
    panicIf(finished_, "Recorder::finish called twice");
    finished_ = true;
    Trace t;
    t.payload = w_.takeBytes();
    t.events = events_;
    t.finalCost = finalCost;
    t.numFunctions = static_cast<std::uint32_t>(table_.functions.size());
    t.numBlocks = static_cast<std::uint32_t>(table_.blocks.size());
    return t;
}

} // namespace lp::trace
