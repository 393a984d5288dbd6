/**
 * @file
 * The IR interpreter ("Machine").
 *
 * Executes a finalized module, counting dynamic IR instructions — the
 * paper's proxy for execution time — and firing instrumentation events.
 * Determinism is total: same module, same result, same cost, every run.
 *
 * To make that guarantee hold run-to-run (and to let lp::exec run many
 * Machines over one module concurrently), each Machine copies the
 * module's external-function implementations at construction and
 * invokes its private copies.  Stateful externals — the deliberately
 * non-re-entrant rand() LCG — therefore restart from their registered
 * state every run instead of threading hidden state between runs, which
 * would make a sweep's results depend on configuration order.  Globals
 * need no per-run state at all: their segment offsets are assigned
 * immutably at module construction and every Machine maps the segment
 * at the same fixed base.
 *
 * The interpreter loop carries no profiling: the limit-study engine
 * wraps each whole run in a phase scope (prof::ScopedPhase), whose
 * close attributes the run to the profiler's epochs, so the only
 * per-block poll is the wall-clock deadline.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "guard/budget.hpp"
#include "interp/events.hpp"
#include "interp/memory.hpp"
#include "ir/module.hpp"

namespace lp::trace {
class Recorder;
}

namespace lp::interp {

/** Interprets one module. */
class Machine
{
  public:
    /**
     * @param mod finalized, verified module
     * @param listener optional instrumentation sink (not owned)
     */
    explicit Machine(const ir::Module &mod, ExecListener *listener = nullptr);

    /**
     * Lay out globals and run main(); returns main's result bits.
     * May be called once per Machine.
     */
    std::uint64_t run();

    /** Dynamic IR instructions executed so far (the sequential clock). */
    std::uint64_t cost() const { return cost_; }

    /**
     * Instruction-resolution clock: like cost(), but only counting the
     * instructions of the current basic block that have actually executed
     * (cost() charges a whole block at entry, mirroring the paper's
     * per-block counter call-backs).  The runtime uses this to measure
     * producer/consumer offsets within an iteration for the HELIX
     * synchronization-delay model.
     */
    std::uint64_t
    preciseCost() const
    {
        return cost_ - curBlockSize_ + ipInBlock_ + 1;
    }

    /** Index of the executing instruction within its basic block. */
    std::uint64_t ipInBlock() const { return ipInBlock_; }

    /** Current top of the simulated stack. */
    std::uint64_t stackPointer() const { return sp_; }

    Memory &memory() { return mem_; }
    const ir::Module &module() const { return mod_; }

    /** Execute @p fn with @p args (bit patterns); used by call handling. */
    std::uint64_t execFunction(const ir::Function *fn,
                               const std::vector<std::uint64_t> &args);

    /** Abort execution when the dynamic instruction count exceeds this. */
    void setCostLimit(std::uint64_t limit) { costLimit_ = limit; }

    /**
     * Apply all of @p b: instruction fuel (as setCostLimit), the
     * wall-clock deadline (armed when run() starts; polled every ~262k
     * instructions so the hot path never reads a clock per block) and
     * the heap cap (enforced by Memory::allocHeap).  The constructor
     * applies guard::defaultBudget(), so LP_BUDGET_* / --budget-* reach
     * every Machine without call-site changes; call this to override.
     * Budget violations throw lp::ResourceExhausted naming the running
     * function and the exhausted resource.
     */
    void setBudget(const guard::RunBudget &b);

    /**
     * Record the run into @p r instead of firing listener call-backs.
     * The recorder becomes the (devirtualized) instrumentation sink:
     * every event reaches it as a direct call together with the machine
     * state it needs (stack pointer, position in the block), and any
     * listener passed at construction is ignored for the run.  Set
     * before run().
     */
    void setRecorder(trace::Recorder *r) { recorder_ = r; }

  private:
    std::uint64_t evalValue(const ir::Value *v,
                            const std::vector<std::uint64_t> &regs) const;
    /**
     * The interpreter loop, templated on the instrumentation sink so
     * the null-instrumentation and recording paths compile to direct
     * (inlineable) calls instead of virtual dispatch per event.
     */
    template <typename Sink>
    std::uint64_t execFunctionT(const ir::Function *fn,
                                const std::vector<std::uint64_t> &args,
                                Sink sink);
    template <typename Sink>
    std::uint64_t execInstructionT(const ir::Instruction &instr,
                                   std::vector<std::uint64_t> &regs,
                                   Sink sink);
    [[noreturn]] void throwFuelExhausted(const ir::Function *fn) const;
    /**
     * The cold deadline poll, reached every ~262k instructions when a
     * wall-clock deadline is armed (nextPollCost_ is UINT64_MAX
     * otherwise, so the hot path stays one compare).
     */
    void pollBudgets(const ir::Function *fn);

    const ir::Module &mod_;
    ExecListener *listener_;
    trace::Recorder *recorder_ = nullptr;
    Memory mem_;
    std::uint64_t cost_ = 0;
    std::uint64_t costLimit_ = 50'000'000'000ULL;
    std::uint64_t wallLimitMs_ = 0; ///< 0 = no deadline
    std::uint64_t nextPollCost_ = UINT64_MAX; ///< armed by run()
    std::chrono::steady_clock::time_point deadline_{};
    std::uint64_t curBlockSize_ = 0;
    std::uint64_t ipInBlock_ = 0;
    std::uint64_t sp_ = Memory::kStackBase;
    unsigned callDepth_ = 0;
    bool ran_ = false;
    /**
     * Reusable per-call-depth scratch: register files and outgoing call
     * arguments.  Allocated once per depth on first use and then reused
     * by every call at that depth, removing the interpreter's per-call
     * allocations.  Deques: growth must not move the slots of the
     * suspended outer calls that still hold references into them.
     */
    std::deque<std::vector<std::uint64_t>> regScratch_;
    std::deque<std::vector<std::uint64_t>> argScratch_;
    /**
     * Scratch for parallel phi resolution.  A single buffer suffices:
     * its live range (top of a block) contains no calls, so it is never
     * needed at two depths at once.
     */
    std::vector<std::pair<const ir::Instruction *, std::uint64_t>>
        phiScratch_;
    /**
     * Per-run copies of external impls (run isolation; see @file),
     * indexed by ExternalFunction::index().  Last member: cold relative
     * to the interpreter state above it.
     */
    std::vector<ir::ExternalFunction::Impl> extImpls_;
};

} // namespace lp::interp
