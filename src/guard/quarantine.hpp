/**
 * @file
 * Failure quarantine and bounded retry (`lp::guard`).
 *
 * guardedRun() is the wrapper a sweep puts around one unit of work (one
 * program × configuration cell, one program preparation).  It turns the
 * all-or-nothing exception model into per-unit verdicts:
 *
 *  - the unit succeeds → verdict.ok, with the attempt count;
 *  - it fails with a *transient* category (errorIsTransient: LP_IO,
 *    LP_DEADLINE) → retried up to kMaxRetries times with exponential
 *    backoff (kBackoffBaseMs, doubling);
 *  - it fails deterministically (or exhausts retries) → quarantined:
 *    the verdict records the stable error code and message, and the
 *    exception is swallowed so sibling units keep running.  Strict
 *    sweeps do not guard their units at all: the first error aborts.
 *
 * Observability (docs/robustness.md): each attempt runs under a "guard"
 * phase timer; retries bump guard.retries, quarantines bump
 * guard.quarantined and guard.failures.<CODE>, and both log WARN lines,
 * so a degraded sweep is visible in metrics, traces and logs.
 */

#pragma once

#include <functional>
#include <string>

#include "support/error.hpp"

namespace lp::guard {

/** Extra attempts granted to a transient failure. */
constexpr int kMaxRetries = 2;
/** First retry backoff; doubles per retry. */
constexpr unsigned kBackoffBaseMs = 5;

/** What happened to one guarded unit. */
struct RunVerdict
{
    bool ok = true;
    int attempts = 1;
    ErrorCode code = ErrorCode::Internal; ///< meaningful when !ok
    std::string message;                  ///< full what() text when !ok

    const char *codeName() const { return errorCodeName(code); }
};

/**
 * Run @p fn, retrying transient failures; @p what names the unit in
 * logs ("saxpy [reduc1-dep2-fn2 PDOALL]").  Never throws.
 */
RunVerdict guardedRun(const std::string &what,
                      const std::function<void()> &fn);

} // namespace lp::guard
