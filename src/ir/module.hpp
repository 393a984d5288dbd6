/**
 * @file
 * Module: the compilation unit handed to Loopapalooza.
 *
 * Owns all functions, external function descriptors, globals and the
 * constant pool.  A finalized module is immutable and ready for analysis
 * and interpretation.
 */

#pragma once

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "ir/function.hpp"

namespace lp::ir {

/** A whole program in Loopapalooza IR. */
class Module
{
  public:
    explicit Module(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    /** Create a function with a body. */
    Function *addFunction(std::string name, Type retType);

    /** Register an external (library) function. */
    ExternalFunction *addExternal(std::string name, Type retType,
                                  ExtAttr attr, std::uint64_t cost,
                                  ExternalFunction::Impl impl);

    /** Create a global data object of @p sizeBytes bytes (zero-filled). */
    Global *addGlobal(std::string name, std::uint64_t sizeBytes);

    /** Interned i64 constant. */
    ConstInt *constI64(std::int64_t v);
    /** Interned f64 constant. */
    ConstFloat *constF64(double v);
    /** Interned null pointer constant. */
    ConstInt *constNullPtr();

    const std::vector<std::unique_ptr<Function>> &functions() const
    {
        return funcs_;
    }
    const std::vector<std::unique_ptr<ExternalFunction>> &externals() const
    {
        return externals_;
    }
    const std::vector<std::unique_ptr<Global>> &globals() const
    {
        return globals_;
    }

    /** Find a function by name (null if absent). */
    Function *findFunction(const std::string &name) const;

    /** The program entry point; by convention the function named "main". */
    Function *mainFunction() const { return findFunction("main"); }

    /**
     * Renumber every function and give every block its module-wide
     * BasicBlock::globalIndex(); call once construction is complete.
     */
    void finalize();

    /** Print the whole module as text (for debugging and golden tests). */
    void print(std::ostream &os) const;

  private:
    std::string name_;
    std::vector<std::unique_ptr<Function>> funcs_;
    std::vector<std::unique_ptr<ExternalFunction>> externals_;
    std::vector<std::unique_ptr<Global>> globals_;
    std::vector<std::unique_ptr<Value>> constants_;
    /** Running size of the global segment (8-byte-aligned offsets). */
    std::uint64_t globalBytes_ = 0;
};

/** Print one function as text. */
void printFunction(const Function &fn, std::ostream &os);

} // namespace lp::ir
