#include "guard/quarantine.hpp"

#include <chrono>
#include <thread>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "prof/phase.hpp"
#include "support/text.hpp"

namespace lp::guard {

RunVerdict
guardedRun(const std::string &what, const std::function<void()> &fn)
{
    RunVerdict v;
    for (int attempt = 1;; ++attempt) {
        v.attempts = attempt;
        try {
            prof::ScopedPhase phase("guard");
            fn();
            v.ok = true;
            return v;
        } catch (const Error &e) {
            v.code = e.code();
            v.message = e.what();
        } catch (const std::exception &e) {
            // Pre-taxonomy FatalErrors and anything else land here.
            v.code = ErrorCode::Internal;
            v.message = e.what();
        }
        v.ok = false;

        if (errorIsTransient(v.code) && attempt <= kMaxRetries) {
            if (obs::metricsOn())
                obs::Registry::instance().counter("guard.retries").add(1);
            LP_LOG_WARN("transient failure in %s (attempt %d, %s): %s; "
                        "retrying",
                        what.c_str(), attempt, v.codeName(),
                        v.message.c_str());
            std::this_thread::sleep_for(std::chrono::milliseconds(
                kBackoffBaseMs << (attempt - 1)));
            continue;
        }

        if (obs::metricsOn()) {
            obs::Registry &reg = obs::Registry::instance();
            reg.counter("guard.quarantined").add(1);
            reg.counter(std::string("guard.failures.") + v.codeName())
                .add(1);
        }
        LP_LOG_WARN("quarantined %s after %d attempt(s) [%s]: %s",
                    what.c_str(), attempt, v.codeName(),
                    v.message.c_str());
        return v;
    }
}

} // namespace lp::guard
