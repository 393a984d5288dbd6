/**
 * @file
 * The limit-study engine: one pass over one program's event stream
 * evaluates every requested configuration, 64 lanes per engine.
 *
 * The paper's method is "instrument once, run once, evaluate every
 * execution model from the stream" (Section III).  evaluate() is that
 * method: it consumes one event stream — fed live by the interpreter,
 * or decoded from a recorded trace — and applies every event to all
 * the configuration lanes of an engine in one structure-of-arrays sweep
 * (rt/engine.cpp).  It is the only implementation of the model
 * algebra: dynamic loop instances, memory and register conflicts,
 * PDOALL phases and the serial threshold, the HELIX delta, nested
 * savings propagation, predictor statistics and report assembly.
 *
 * Event sources.  A pass is fed live: one interpreter run (the
 * paper's instrumented binary) drives every engine of the pass, one
 * engine per 64 configurations, so a pass costs one interpretation
 * whatever its lane count.  Nothing is written down first.  A recorded
 * trace (recordTrace + trace::replayDispatch) is the other source; it
 * has no production user and serves tests and the benchmark's traced
 * pass.  Reports are byte-identical either way.
 *
 * Consistency oracle.  With captures attached, each engine also
 * streams every watched header phi through its own capture's
 * finite-difference checks.  The watches and their evidence depend
 * only on the event stream, not on the configuration, so one capture
 * serves every lane of its engine; lp::lint judges it per lane.
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

/** Most configuration lanes one pass evaluates (lane sets are masks). */
constexpr std::size_t kMaxLanes = 64;

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
 * engine per kMaxLanes configurations.  Reports come back in @p cfgs
 * order, named @p name.  Each engine passes the "engine" fault site
 * (guard/fault.hpp) before the stream starts.
 *
 * @param t null interprets plan.module() once and feeds every engine
 *        live; otherwise the recorded trace to replay, decoded once
 *        per engine.
 * @param oracles when non-null, grown to one capture per engine
 *        (captures already present, e.g. with forced claims, are
 *        kept); engine k registers its watches in (*oracles)[k] and
 *        streams every watched phi through it, so lane i is judged
 *        from (*oracles)[i / kMaxLanes].  Null keeps the hot path
 *        oracle-free.
 * @throws lp::IoError when @p t does not match the module or is
 *         malformed.
 */
std::vector<ProgramReport>
evaluate(const ModulePlan &plan, const trace::BatchDispatchTable &table,
         const trace::Trace *t, const std::vector<LPConfig> &cfgs,
         const std::string &name,
         std::vector<OracleCapture> *oracles = nullptr);

} // namespace lp::rt
