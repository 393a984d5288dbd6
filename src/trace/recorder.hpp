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
 * Recording has no production user: a sweep feeds its engines live
 * (rt/engine.hpp).  Tests and the benchmark's traced pass record a
 * program to replay it or to time its parts.
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
     */
    explicit Recorder(const BatchDispatchTable &table);

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

    /** Finalize: @p finalCost is Machine::cost() after run() returned. */
    Trace finish(std::uint64_t finalCost);

  private:
    void emit(const Event &e);

    const BatchDispatchTable &table_;

    PayloadWriter w_;
    std::uint64_t events_ = 0;
    bool finished_ = false;
    /** Phis resolve at the top of the block just entered. */
    bool curBlockIsHeader_ = false;
};

} // namespace lp::trace
