/**
 * @file
 * The limit-study engine: one pass over one program's event stream
 * evaluates every requested configuration in one lane engine.
 *
 * The paper's method is "instrument once, run once, evaluate every
 * execution model from the stream" (Section III).  evaluate() is that
 * method: it consumes one event stream — fed live by the interpreter,
 * or decoded from a recorded trace — and applies every event to all
 * the configuration lanes of the pass in one structure-of-arrays sweep
 * (rt/engine.cpp).  It is the only implementation of the model
 * algebra: dynamic loop instances, memory and register conflicts,
 * PDOALL phases and the serial threshold, the HELIX delta, nested
 * savings propagation, predictor statistics and report assembly.
 *
 * Event sources.  A pass is fed live: one interpreter run (the
 * paper's instrumented binary) drives the pass's one engine, so a pass
 * costs one interpretation whatever its lane count.  Nothing is
 * written down first.  A recorded
 * trace (recordTrace + trace::replayDispatch) is the other source; it
 * has no production user and serves tests and the benchmark's traced
 * pass.  Reports are byte-identical either way.
 *
 * Consistency oracle.  With a capture attached, the engine also
 * streams every watched header phi through the capture's
 * finite-difference checks.  The watches and their evidence depend
 * only on the event stream, not on the configuration, so one capture
 * serves every lane; lp::lint judges it per lane.
 *
 * Failure taxonomy: a trace that does not match the module, or any
 * malformed stream, raises lp::IoError (LP_IO); the interpreter's own
 * failures (traps, run budgets) propagate as they are.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "guard/budget.hpp"
#include "rt/config.hpp"
#include "rt/oracle_capture.hpp"
#include "rt/plan.hpp"
#include "rt/report.hpp"
#include "trace/batch.hpp"
#include "trace/format.hpp"

namespace lp::rt {

/**
 * The dispatch table of plan.module() (trace::buildBatchDispatchTable)
 * with the compile-time loop facts filled in: the loop each header
 * block heads and the def watches sampled in each block.  All of it is
 * configuration-independent, so one table per program serves every
 * pass, live or replayed.
 */
trace::BatchDispatchTable buildDispatchTable(const ModulePlan &plan);

/**
 * Record one run of @p mod into a trace: the machine runs with the
 * recording sink under @p budget.
 */
trace::Trace recordTrace(const ir::Module &mod,
                         const trace::BatchDispatchTable &table,
                         const guard::RunBudget &budget);

/**
 * Evaluate @p cfgs (any number of them) over one event stream, in one
 * lane engine.  Reports come back in @p cfgs order, named @p name.
 * The engine passes the "engine" fault site (guard/fault.hpp) before
 * the stream starts.
 *
 * @param t null interprets plan.module() once and feeds the engine
 *        live; otherwise the recorded trace to replay, decoded once.
 * @param oracle when non-null, the capture (possibly already holding
 *        forced claims) the engine registers its watches in and
 *        streams every watched phi through; it is every lane's
 *        evidence.  Null keeps the hot path oracle-free.
 * @throws lp::IoError when @p t does not match the module or is
 *         malformed.
 */
std::vector<ProgramReport>
evaluate(const ModulePlan &plan, const trace::BatchDispatchTable &table,
         const trace::Trace *t, const std::vector<LPConfig> &cfgs,
         const std::string &name, OracleCapture *oracle = nullptr);

} // namespace lp::rt
