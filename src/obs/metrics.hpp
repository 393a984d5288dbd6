/**
 * @file
 * Process-wide metrics registry: named monotonic counters.
 *
 * Recording is off by default (`LP_METRICS=1` turns it on).  Call sites
 * guard each update with metricsOn(), which inlines to a single relaxed
 * atomic-bool test — with metrics disabled the whole update is one
 * well-predicted branch.  Hot loops keep their own plain tallies and
 * publish them once per unit of work (each lane engine does so once per
 * pass), so no per-event code touches the registry.
 *
 * Thread-safety (see docs/observability.md): a Counter is a
 * prof::ShardedCounter, whose add() is a relaxed atomic add on the
 * calling thread's shard and never locks.  Registry lookups
 * (find-or-create) take the one registry mutex, an instrumented
 * prof::TimedMutex ("obs.registry") so lookup contention shows up in
 * profiles (docs/profiling.md).  value() and snapshot reads are exact
 * once the writing threads have been joined (the only time the
 * framework snapshots); concurrent reads see a momentary
 * approximation.  resetAll() and toJson() are quiescent-only by
 * contract, like prof::PhaseTree::reset.
 *
 * Metric name catalog (see docs/observability.md):
 *   interp.instructions          dynamic IR instructions executed
 *   interp.runs                  completed Machine::run() calls (one per
 *                                Loopapalooza::run, whatever its lanes)
 *   plan.loops_analyzed          static loops planned by the compile-time side
 *   engine.mem_events            load/store events applied, once per event
 *                                (not once per engine of a fanned-out run)
 *   engine.loop_instances        dynamic loop instances opened, once each
 *   engine.lane_conflicts        cross-iteration conflicts, per lane
 *   engine.lane_squashes.<model> speculative squashes (pdoall/doall), per lane
 *   engine.loop_reports          per-loop reports emitted, per lane
 */

#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>

#include "obs/json.hpp"
#include "prof/timed_mutex.hpp"

namespace lp::obs {

namespace detail {
extern std::atomic<bool> g_metricsEnabled;
}

/** Are metrics being recorded?  Inlines to one relaxed atomic load. */
inline bool
metricsOn()
{
    return detail::g_metricsEnabled.load(std::memory_order_relaxed);
}

/** Turn recording on/off (LP_METRICS does this from the environment). */
void setMetricsEnabled(bool on);

/** Monotonic event count, safe for concurrent add(). */
using Counter = prof::ShardedCounter;

/**
 * The process-wide registry.  Counters are created on first lookup and
 * live forever, so cached pointers stay valid; resetAll() zeroes values
 * without invalidating them.
 */
class Registry
{
  public:
    static Registry &instance();

    /** Find-or-create. */
    Counter &counter(const std::string &name);

    /** Zero every counter (keeps registrations and cached pointers). */
    void resetAll();

    /** Snapshot as JSON: {"counters": {name: value, ...}}, by name. */
    Json toJson() const;

  private:
    Registry() = default;

    mutable prof::TimedMutex mu_{"obs.registry"};
    std::map<std::string, std::unique_ptr<Counter>> counters_;
};

} // namespace lp::obs
