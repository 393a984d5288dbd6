/**
 * @file
 * Functions (with bodies) and external function descriptors.
 *
 * External functions model pre-compiled library routines: the paper cannot
 * instrument those, so they carry (a) a declared dynamic-IR cost, (b) a
 * thread-safety attribute driving the fn1/fn2/fn3 configuration flags, and
 * (c) a native implementation used by the interpreter.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ir/basic_block.hpp"
#include "ir/value.hpp"

namespace lp::interp {
class Machine;
}

namespace lp::ir {

/**
 * Thread-safety classification of an external (uninstrumentable) callee;
 * drives the fn0..fn3 flags of the limit study.
 */
enum class ExtAttr {
    Pure,       ///< no side effects, reads no mutable state (fn1+)
    ThreadSafe, ///< re-entrant library routine (fn2+)
    Unsafe,     ///< may touch shared mutable state (fn3 only)
};

/** Printable name of an external attribute. */
const char *extAttrName(ExtAttr a);

/**
 * A pre-compiled library routine.  Its body is opaque to the compile-time
 * analyses; the interpreter executes @c impl and charges @c cost dynamic IR
 * instructions.
 */
class ExternalFunction
{
  public:
    /** Native implementation: args in, i64-or-f64 result out (as bits). */
    using Impl = std::function<std::uint64_t(interp::Machine &,
                                             const std::vector<std::uint64_t> &)>;

    ExternalFunction(std::string name, Type retType, ExtAttr attr,
                     std::uint64_t cost, Impl impl)
        : name_(std::move(name)), retType_(retType), attr_(attr),
          cost_(cost), impl_(std::move(impl))
    {}

    const std::string &name() const { return name_; }
    Type returnType() const { return retType_; }
    ExtAttr attr() const { return attr_; }
    std::uint64_t cost() const { return cost_; }
    const Impl &impl() const { return impl_; }

    /**
     * Dense position in the owning module's externals() list (assigned
     * by Module::addExternal); Machines use it to index their private
     * per-run copies of @c impl.
     */
    unsigned index() const { return index_; }
    void setIndex(unsigned i) { index_ = i; }

  private:
    std::string name_;
    Type retType_;
    ExtAttr attr_;
    std::uint64_t cost_;
    Impl impl_;
    unsigned index_ = 0;
};

/**
 * A function with an IR body.  Owns its arguments and basic blocks; the
 * first block is the entry block.
 */
class Function
{
  public:
    Function(std::string name, Type retType)
        : name_(std::move(name)), retType_(retType)
    {}

    const std::string &name() const { return name_; }
    Type returnType() const { return retType_; }

    /** Append a formal parameter. */
    Argument *addArgument(Type t, std::string name);

    const std::vector<std::unique_ptr<Argument>> &args() const
    {
        return args_;
    }

    /** Create and append a new basic block. */
    BasicBlock *addBlock(std::string name);

    const std::vector<std::unique_ptr<BasicBlock>> &blocks() const
    {
        return blocks_;
    }

    BasicBlock *entry() const
    {
        return blocks_.empty() ? nullptr : blocks_.front().get();
    }

    /**
     * Assign dense localId to every argument and instruction and a dense
     * index to every block.  Must be called (via Module::finalize) before
     * interpretation or analysis.
     */
    void renumberLocals();

    /** Number of localId slots (after renumbering). */
    unsigned numLocals() const { return numLocals_; }

    bool finalized() const { return numLocals_ != 0; }

    /**
     * Dense position in the owning module's functions() list (assigned
     * by Module::addFunction); the trace and the dispatch table name
     * functions by it.
     */
    unsigned index() const { return index_; }
    void setIndex(unsigned i) { index_ = i; }

  private:
    std::string name_;
    Type retType_;
    std::vector<std::unique_ptr<Argument>> args_;
    std::vector<std::unique_ptr<BasicBlock>> blocks_;
    unsigned numLocals_ = 0;
    unsigned index_ = 0;
};

} // namespace lp::ir
