/**
 * @file
 * The limit-study engine: one pass over one program's event stream
 * evaluates up to 64 configurations at once.
 *
 * The paper's method is "instrument once, run once, evaluate every
 * execution model from the stream" (Section III).  evaluate() is that
 * method: it consumes one event stream — decoded from a recorded trace,
 * or fed live by the interpreter — and applies every event to all the
 * configuration lanes of the pass in one structure-of-arrays sweep
 * (rt/engine.cpp).  It is the only implementation of the model
 * algebra: dynamic loop instances, memory and register conflicts,
 * PDOALL phases and the serial threshold, the HELIX delta, nested
 * savings propagation, predictor statistics and report assembly.
 *
 * Event sources.  A pass normally replays the trace the driver
 * recorded once per program (recordTrace + trace::replayDispatch).
 * When the recording outgrew the trace byte budget the payload is
 * useless, and the pass interprets the program instead, feeding the
 * engine the same samples replay would have reconstructed.  Reports
 * are byte-identical either way.
 *
 * Consistency oracle.  With an OracleCapture attached, the pass also
 * streams every watched header phi through the capture's
 * finite-difference checks.  The watches and their evidence depend
 * only on the event stream, not on the configuration, so one capture
 * serves every lane of the pass; lp::lint judges it per lane.
 *
 * Failure taxonomy: a trace that does not match the module, or any
 * malformed stream, raises lp::IoError (LP_IO).
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
 * pass, recorded or live.
 */
trace::BatchDispatchTable buildDispatchTable(const ModulePlan &plan);

/**
 * Record one run of @p mod into a trace: the machine runs with the
 * recording sink under @p budget; the payload is capped at
 * budget.maxTraceBytes (the trace comes back truncated when it hit
 * the cap).
 */
trace::Trace recordTrace(const ir::Module &mod,
                         const trace::BatchDispatchTable &table,
                         const guard::RunBudget &budget);

/**
 * Evaluate @p cfgs (1 to kMaxLanes of them) over one event stream.
 * Reports come back in @p cfgs order, named @p name.
 *
 * @param t the recorded trace to replay; null interprets
 *        plan.module() live instead.
 * @param oracle when non-null, a fresh capture the pass registers its
 *        watches in and streams every watched phi through (see
 *        OracleCapture); null keeps the hot path oracle-free.
 * @throws lp::IoError when @p t is truncated, does not match the
 *         module, or is malformed.
 */
std::vector<ProgramReport>
evaluate(const ModulePlan &plan, const trace::BatchDispatchTable &table,
         const trace::Trace *t,
         const std::vector<LPConfig> &cfgs, const std::string &name,
         OracleCapture *oracle = nullptr);

} // namespace lp::rt
