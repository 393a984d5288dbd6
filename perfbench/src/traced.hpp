/**
 * @file
 * The traced pass: a serial re-enactment of one workload from outside
 * the library, one public call at a time, with a span around each call
 * (spans.hpp).  It feeds the per-layer table; the end-to-end figures
 * come from untraced passes (workloads.hpp).
 */

#pragma once

#include <string>

#include "obs/json.hpp"
#include "workloads.hpp"

namespace perfbench {

/**
 * Re-enact @p w serially with spans and return its raw layer figures
 * (seconds, counts, per-cell digests in sweep document order).  The
 * spans are written to @p chromePath as a Chrome trace when non-empty.
 */
lp::obs::Json tracedPass(const Workload &w, const std::string &chromePath);

/**
 * runSweep's own fallback counters (sweep.trace_fallbacks +
 * sweep.batch_fallbacks) from one sweep with obs metrics on.  Never
 * called from a timed pass: metrics change the sweep document and add
 * cost.  Sweep workloads only.
 */
lp::obs::Json sweepFallbacks(const Workload &w, unsigned jobs);

} // namespace perfbench
