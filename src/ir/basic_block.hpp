/**
 * @file
 * Basic blocks: straight-line instruction sequences ending in a terminator.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ir/instruction.hpp"

namespace lp::ir {

class Function;

/**
 * A basic block owns its instructions.  Successors are derived from the
 * terminator; predecessor lists are maintained incrementally as terminators
 * are attached.
 */
class BasicBlock
{
  public:
    BasicBlock(std::string name, Function *parent)
        : name_(std::move(name)), parent_(parent)
    {}

    const std::string &name() const { return name_; }
    Function *parent() const { return parent_; }

    const std::vector<std::unique_ptr<Instruction>> &
    instructions() const
    {
        return instrs_;
    }

    /** Append @p instr; updates successor/predecessor lists if terminator. */
    Instruction *append(std::unique_ptr<Instruction> instr);

    /** The block's terminator, or null if none has been appended yet. */
    Instruction *terminator() const;

    /** Successor blocks (from the terminator). */
    std::vector<BasicBlock *> successors() const;

    const std::vector<BasicBlock *> &predecessors() const { return preds_; }

    /** Phi nodes (all at the start of the block). */
    std::vector<Instruction *> phis() const;

    /** Number of non-phi, non-terminator "work" instructions. */
    unsigned workCount() const;

    /** Dense index within the parent function (set by renumbering). */
    unsigned index() const { return index_; }
    void setIndex(unsigned i) { index_ = i; }

    /**
     * Dense module-wide index: blocks numbered function by function, in
     * Module::functions() order (set by Module::finalize).  The trace
     * and the dispatch table name blocks by it.
     */
    unsigned globalIndex() const { return globalIndex_; }
    void setGlobalIndex(unsigned i) { globalIndex_ = i; }

  private:
    friend class Function;

    std::string name_;
    Function *parent_;
    std::vector<std::unique_ptr<Instruction>> instrs_;
    std::vector<BasicBlock *> preds_;
    unsigned index_ = ~0u;
    unsigned globalIndex_ = ~0u;
};

} // namespace lp::ir
