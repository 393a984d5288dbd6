/**
 * @file
 * Live trace recording.
 *
 * A Recorder receives the interpreter's instrumentation events (via a
 * direct, devirtualized sink in interp::Machine) and appends the compact
 * event stream described in trace/format.hpp.  Ids come straight from
 * the IR and the Machine: Function::index(), BasicBlock::globalIndex()
 * and the Machine's position in the running block, so recording needs
 * no lookup per event.
 *
 * The stream carries no clock: replay rebuilds it from the events
 * themselves (every BlockEnter advances it by the block's size, every
 * CallSite of an external call by the callee's declared cost) and
 * cross-checks the result against the recorded final cost.
 *
 * Filtering.  Only events the run-time component consumes are
 * recorded: phi resolutions are kept for loop-header blocks only
 * (the engine ignores all others), and call sites are kept for
 * external calls only (they carry cost; internal calls contribute
 * through their callee's block stream).
 *
 * Budget.  The stream is bounded by a byte cap (see
 * guard::RunBudget::maxTraceBytes).  On overflow the Recorder stops
 * appending and marks the trace truncated; the driver then drops the
 * partial payload and evaluates the program from a live run instead
 * (core::Loopapalooza::run).
 */

#pragma once

#include <cstdint>

#include "trace/batch.hpp"
#include "trace/format.hpp"

namespace lp::trace {

/** Streams instrumentation events into a Trace. */
class Recorder
{
  public:
    /**
     * @param table the program's dispatch table: the module fingerprint
     *        and the loop-header flags (BlockInfo::headerOrdinal)
     * @param maxBytes payload byte cap; 0 = unbounded
     */
    Recorder(const BatchDispatchTable &table, std::uint64_t maxBytes);

    /// @name Event feed (one call per interpreter call-back).
    /// @p ip is the event's instruction index within its block.
    /// @{
    void functionEnter(const ir::Function *fn);
    void functionExit();
    void blockEnter(const ir::BasicBlock *bb, std::uint64_t sp);
    void phiResolved(std::uint64_t bits);
    void load(std::uint64_t ip, std::uint64_t addr);
    void store(std::uint64_t ip, std::uint64_t addr);
    void callSite(const ir::Instruction *instr, std::uint64_t ip);
    /// @}

    /** True once the byte cap was hit (the stream is unusable). */
    bool truncated() const { return truncated_; }

    /** Finalize: @p finalCost is Machine::cost() after run() returned. */
    Trace finish(std::uint64_t finalCost);

  private:
    void emit(const Event &e);

    const BatchDispatchTable &table_;
    std::uint64_t maxBytes_;

    PayloadWriter w_;
    std::uint64_t events_ = 0;
    bool truncated_ = false;
    bool finished_ = false;
    /** Phis resolve at the top of the block just entered. */
    bool curBlockIsHeader_ = false;
};

} // namespace lp::trace
