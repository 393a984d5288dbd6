/**
 * @file
 * Dynamic evidence collector for the static-vs-dynamic consistency
 * oracle (docs/static_analysis.md).
 *
 * The compile-time component claims some header phis are SCEV-computable
 * (pure functions of the iteration index).  When a capture is attached,
 * the limit-study engine (rt/engine.hpp) streams every resolved value of
 * the watched phis through an order-(depth+1) finite-difference check
 * — one capture per lane engine, shared by all its lanes: a phi whose
 * evolution really is a degree-depth polynomial recurrence has an
 * identically-zero (depth+1)-th difference (all arithmetic mod 2^64,
 * matching the interpreter).  The check is O(1) memory per instance and
 * covers the full run, not a sampled prefix.
 *
 * The capture only gathers evidence; the verdicts (LINT_ORACLE_*) are
 * produced by lp::lint::checkOracle so the rt layer stays lint-free.
 */

#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "ir/instruction.hpp"
#include "support/error.hpp"

namespace lp::rt {

/** Evidence about the watched header phis of one run. */
class OracleCapture
{
  public:
    /** Highest difference order we track (AddRec depth clamp). */
    static constexpr unsigned kMaxDepth = 3;

    /** One watched header phi and the static claim made about it. */
    struct Watch
    {
        const ir::Instruction *phi;
        std::string loop;    ///< "function.header" label
        std::string phiName; ///< result name, no '%'
        /** Claimed AddRec nesting depth (1 = affine IV, 2 = MIV, ...). */
        unsigned depth;
        /** Static claim: SCEV-computable (tracked LCDs carry false). */
        bool claimedComputable;
    };

    /** Aggregate over all dynamic instances of one watch. */
    struct Stats
    {
        std::uint64_t samples = 0;   ///< values observed, all instances
        std::uint64_t instances = 0; ///< instances with >= 1 sample
        /** Instances where the finite-difference check broke. */
        std::uint64_t divergedInstances = 0;
        /** Instances with enough samples to exercise the check. */
        std::uint64_t checkedInstances = 0;
    };

    /**
     * Streaming finite-difference state for (one instance x one watch).
     * last[k] holds the most recent k-th difference.
     */
    struct State
    {
        std::uint64_t last[kMaxDepth + 1] = {0, 0, 0, 0};
        std::uint64_t n = 0; ///< samples consumed
        bool broken = false; ///< a (depth+1)-th difference was nonzero
    };

    /** Feed one observed value through the difference pyramid. */
    static void
    observe(State &st, unsigned depth, std::uint64_t x)
    {
        if (st.broken)
            return;
        if (depth > kMaxDepth)
            depth = kMaxDepth;
        std::uint64_t v = x;
        for (unsigned k = 0;; ++k) {
            if (k == depth + 1) {
                if (v != 0)
                    st.broken = true;
                break;
            }
            if (k < st.n) {
                std::uint64_t nxt = v - st.last[k];
                st.last[k] = v;
                v = nxt;
            } else {
                st.last[k] = v;
                break;
            }
        }
        st.n += 1;
    }

    /** Register a watch; returns its index. */
    unsigned
    addWatch(Watch w)
    {
        panicIf(sealed_, "OracleCapture: addWatch after a run started");
        watches_.push_back(std::move(w));
        stats_.emplace_back();
        return static_cast<unsigned>(watches_.size() - 1);
    }

    /** Watch registration is done; the run may begin. */
    void seal() { sealed_ = true; }

    /** Fold one closed instance's state into the watch aggregate. */
    void
    recordInstance(unsigned watch, const State &st, unsigned depth)
    {
        if (st.n == 0)
            return;
        if (depth > kMaxDepth)
            depth = kMaxDepth;
        Stats &s = stats_[watch];
        s.instances += 1;
        s.samples += st.n;
        if (st.broken) {
            s.divergedInstances += 1;
            s.checkedInstances += 1;
        } else if (st.n >= depth + 2) {
            // Enough samples for at least one (depth+1)-th difference.
            s.checkedInstances += 1;
        }
    }

    const std::vector<Watch> &watches() const { return watches_; }
    const Stats &stats(unsigned i) const { return stats_[i]; }

    /**
     * Test hook: make the engine register @p phi — normally a tracked,
     * non-computable LCD — as *claimed computable* (depth 1), so a run
     * over a genuinely unpredictable phi forces an oracle mismatch
     * end-to-end.
     */
    void forceClaim(const ir::Instruction *phi) { forced_.insert(phi); }
    bool
    isForcedClaim(const ir::Instruction *phi) const
    {
        return forced_.count(phi) != 0;
    }

  private:
    std::vector<Watch> watches_;
    std::vector<Stats> stats_;
    std::unordered_set<const ir::Instruction *> forced_;
    bool sealed_ = false;
};

} // namespace lp::rt
