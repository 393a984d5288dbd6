/**
 * @file
 * Scoped phase timers building the pipeline's phase tree — the one
 * phase scope of the framework (`lp::prof`).
 *
 * Each pipeline stage wraps itself in a ScopedPhase; nesting follows the
 * call stack, so the process accumulates a tree like
 *
 *   verify -> analyze -> plan -> interpret -> report
 *
 * with per-phase wall-clock time, invocation counts, and (where the
 * phase reports it) dynamic instruction counts.  Repeated phases with
 * the same name under the same parent merge into one node, so a study
 * that runs 40 programs still produces a readable tree.
 *
 * While profiling is on (prof::profilingOn()), a closing scope also
 * hands its wall time and instructions to the Collector, which records
 * a phase span on the calling worker's lane; the `record`,
 * `replay_batch` and `interpret` spans are that worker's epochs
 * (collector.hpp).  With profiling off that is one relaxed atomic load
 * per scope.
 *
 * Thread-safety: the cursor each ScopedPhase moves is thread-local, so
 * every thread nests independently; lp::exec workers start at the root,
 * which means a parallel sweep merges into the same nodes a serial
 * sweep produces (worker phases are root children either way).  Node
 * creation takes the tree mutex; count/wall/instruction accumulation is
 * relaxed-atomic.  reset() and toJson() are quiescent-only by contract.
 *
 * Timers are always on: a phase is entered a handful of times per run,
 * so two steady_clock reads per phase are noise next to interpreting
 * millions of instructions.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace lp::prof {

/** One node of the accumulated phase tree. */
struct PhaseNode
{
    std::string name;
    std::atomic<std::uint64_t> count{0};     ///< times the phase completed
    std::atomic<std::uint64_t> wallNanos{0}; ///< total wall-clock inside
    std::atomic<std::uint64_t> instructions{0}; ///< dynamic IR attributed
    std::vector<std::unique_ptr<PhaseNode>> children;

    /**
     * {"name": ..., "count": n, "wall_ns": ns, "instructions": k,
     *  "children": [...]}
     */
    obs::Json toJson() const;
};

/** The process-wide phase tree and the cursor ScopedPhase moves. */
class PhaseTree
{
  public:
    static PhaseTree &instance();

    const PhaseNode &root() const { return root_; }

    /**
     * Drop all accumulated phases (tests, bench baselines).  Call only
     * while no phase is open anywhere — node pointers dangle otherwise.
     */
    void reset();

    /** JSON of the root's children (the root itself is synthetic). */
    obs::Json toJson() const;

  private:
    friend class ScopedPhase;
    PhaseTree() { root_.name = "run"; }

    /** This thread's open phase; root when none is. */
    PhaseNode *current();
    void setCurrent(PhaseNode *node);

    /** Find-or-create @p name under @p parent (takes the tree mutex). */
    PhaseNode *childOf(PhaseNode *parent, const std::string &name);

    PhaseNode root_;
    mutable std::mutex mu_;
};

/** RAII phase scope.  Not movable; construct on the stack only. */
class ScopedPhase
{
  public:
    explicit ScopedPhase(const std::string &name);
    ~ScopedPhase();

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

    /** Attribute @p n dynamic instructions to this phase. */
    void addInstructions(std::uint64_t n) { instructions_ += n; }

  private:
    PhaseNode *node_;
    PhaseNode *parent_;
    std::uint64_t startNanos_;
    std::uint64_t instructions_ = 0; ///< added via this scope
};

} // namespace lp::prof
