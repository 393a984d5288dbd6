/**
 * @file
 * The profiling collector (`lp::prof`): the one place that collects and
 * writes timing evidence — per-cell sweep telemetry, per-worker
 * timelines of cells and phases, and epoch-based time attribution
 * (docs/profiling.md).
 *
 * One process has one Collector.  It is configured from a profile spec
 * (`run_study --profile[=json|chrome[:PATH]]` or `LP_PROFILE`) and
 * records four kinds of evidence while prof::profilingOn():
 *
 *  - lock-site contention, recorded by every prof::TimedMutex in the
 *    process (timed_mutex.hpp) — the collector only snapshots it;
 *  - sweep-cell records: one structured record per (program,
 *    configuration) cell — and per program recording — with its worker
 *    lane, wall time, instruction count, queue-wait, lock-wait,
 *    attempts and status; a lane task's cells share its wall time
 *    (TaskScope).  In json mode each record is also streamed to
 *    `<PATH>.cells.jsonl` the moment the work finishes, so a killed
 *    sweep still leaves its telemetry;
 *  - phase spans: every prof::ScopedPhase (phase.hpp) that closes
 *    records one span on the calling worker's lane;
 *  - execution epochs: a worker's `record`, `replay_batch` and
 *    `interpret` phase spans, summed into (instructions, wall-ns)
 *    totals when the profile is written — the hot loops themselves
 *    carry no profiling.
 *
 * A worker lane is an exec::workerSlot(), so a `--jobs N` run never
 * shows more than N lanes.  finish() rolls everything into the profile
 * outputs: a JSON document (contention + per-worker utilization/
 * imbalance/epochs + per-cell records) or one Chrome trace holding the
 * cell and phase spans on the worker lanes (open in ui.perfetto.dev).
 *
 * The collector never touches run reports: sweeps produce byte-identical
 * report JSON with profiling on or off (tests/test_prof.cpp holds this).
 *
 * Thread-safety: recordCell/recordPhase and the scopes are safe from
 * lp::exec workers (cell records append under one instrumented mutex —
 * formatted outside it — and per-lane state sits under another).
 * configure, reset, beginRegion/endRegion and finish are
 * quiescent-only.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "prof/timed_mutex.hpp"

namespace lp::prof {

/** Profile output mode. */
enum class Mode { Off, Json, Chrome };

/** One finished sweep cell, as recorded for the profile. */
struct CellRecord
{
    std::string program;
    std::string suite;
    std::string config;  ///< configuration label ("reduc1-dep1-fn2 helix")
    unsigned worker = 0; ///< exec::workerSlot() of the executing worker
    std::uint64_t startNs = 0;     ///< collector timebase
    std::uint64_t wallNs = 0;
    /** Idle gap on this worker's lane before the cell started: from
     *  the lane's previous cell end (or the region start, for its
     *  first cell) to this cell's start.  Gaps on one lane are
     *  disjoint, so a lane's total queue-wait can never exceed the
     *  region wall — unlike the old "region start -> cell start"
     *  definition, which billed every already-busy nanosecond to each
     *  later cell and summed to many times the region. */
    std::uint64_t queueWaitNs = 0;
    std::uint64_t lockWaitNs = 0;  ///< contended TimedMutex wait inside
    std::uint64_t instructions = 0;
    unsigned attempts = 0;
    std::string status = "ok"; ///< ok | failed | skipped | resumed
};

class Collector
{
  public:
    static Collector &instance();

    /**
     * Parse a profile spec — "json", "chrome", optionally ":PATH"
     * ("json:prof.json") — set the mode/path, enable profiling and
     * reset all evidence.  "off" (or empty) disables.  Returns false
     * (and disables) on an unrecognized mode.
     */
    bool configure(const std::string &spec);

    Mode mode() const { return mode_; }
    const std::string &outputPath() const { return path_; }

    /** Flip recording without touching mode/path (bench harnesses). */
    void setEnabled(bool on);

    /** Drop all evidence, including every lock site.  Quiescent-only. */
    void reset();

    /** Nanoseconds since the collector's epoch (cell timebase). */
    std::uint64_t nowNs() const;

    /**
     * Mark the start/end of one sweep region (the parallelFor over
     * cells).  Queue-wait and per-worker utilization are measured
     * against the region; regions accumulate.
     */
    void beginRegion();
    void endRegion();

    /** Append one finished cell (streams JSONL in json mode). */
    void recordCell(const CellRecord &rec);

    /**
     * A phase named @p name just closed on the calling worker after
     * @p wallNs with @p instructions attributed: record its span on
     * the worker's lane.
     */
    void recordPhase(const std::string &name, std::uint64_t wallNs,
                     std::uint64_t instructions);

    /// @name Snapshots (quiescent-only, like obs::Registry::toJson)
    /// @{

    /** {"total_lock_wait_ns", "total_acquisitions", "sites":[...]} with
     *  sites sorted by wait-ns, most contended first. */
    obs::Json contentionJson() const;

    /** {"region_wall_ns", "workers":[{lane, cells, busy_ns,
     *   utilization, ...}], "utilization_mean", "load_imbalance"}. */
    obs::Json workersJson() const;

    /** Every cell record as a JSON array (insertion order). */
    obs::Json cellsJson() const;

    /** The whole profile document (json mode's output). */
    obs::Json toJson() const;

    /** The Chrome trace document (chrome mode's output; tests): cell
     *  spans under pid 1 and phase spans under pid 2, both with the
     *  worker lane as tid, plus an `lp_prof.summary` instant. */
    obs::Json chromeDocument() const;

    std::size_t cellCount() const;

    /// @}

    /**
     * Write the configured output(s) and disable recording.  Idempotent;
     * a no-op when the mode is Off.  Returns false when an output file
     * could not be written (already logged).
     */
    bool finish();

  private:
    friend class TaskScope; // reads and moves the lane's idle marker

    /** The lane's idle gap before a unit of work starting at @p startNs. */
    std::uint64_t queueWaitBefore(unsigned worker, std::uint64_t startNs);
    /** The lane went idle at @p endNs. */
    void laneIdleAt(unsigned worker, std::uint64_t endNs);

    Collector();

    /** One closed phase on a lane (collector timebase). */
    struct PhaseSpan
    {
        std::string name;
        std::uint64_t startNs = 0;
        std::uint64_t wallNs = 0;
        std::uint64_t instructions = 0;
    };

    /** Everything kept per worker slot. */
    struct Lane
    {
        /** When the lane last went idle inside the current region (its
         *  previous unit's end); 0 = no work yet this region. */
        std::uint64_t idleSinceNs = 0;
        std::vector<PhaseSpan> phases;
    };

    /** The lane of @p worker, grown on first use; laneMu_ held. */
    Lane &laneLocked(unsigned worker);

    Mode mode_ = Mode::Off;
    std::string path_;
    std::uint64_t epochNanos_ = 0; ///< steady-clock origin

    mutable TimedMutex cellMu_{"prof.cells"};
    std::vector<CellRecord> cells_;
    std::unique_ptr<std::ofstream> cellStream_; ///< json mode JSONL

    std::atomic<std::uint64_t> regionStartNs_{0}; ///< 0 = outside
    std::atomic<std::uint64_t> regionWallNs_{0};  ///< accumulated

    /** One entry per worker slot that has done profiled work: every
     *  slot owns its state, whatever the worker count. */
    mutable TimedMutex laneMu_{"prof.lanes"};
    std::vector<Lane> lanes_;
};

/**
 * RAII measurement of one unit of profiled work on the calling worker:
 * a lane task, which yields several sweep cells at once (one engine
 * pass over some of a program's configuration lanes), or a single cell.
 * Construct at task start (inside the worker) and addCell() each lane;
 * the destructor records one CellRecord per lane.  The lanes split the
 * task's wall time and lock-wait evenly and tile its span on the
 * worker's timeline, so per-worker busy time, utilization and load
 * imbalance account for the work that ran.  Every accessor is a no-op
 * while profiling is off, so call sites need no guards.
 *
 * The status defaults to "failed": a scope unwound by an exception
 * records its cells as failed unless the caller reached setStatus().
 */
class TaskScope
{
  public:
    TaskScope();
    /** A one-cell task: the measurement of one sweep cell. */
    TaskScope(const std::string &program, const std::string &suite,
              const std::string &config);
    ~TaskScope();

    TaskScope(const TaskScope &) = delete;
    TaskScope &operator=(const TaskScope &) = delete;

    /** Add the next lane's cell. */
    void addCell(const std::string &program, const std::string &suite,
                 const std::string &config);
    void setInstructions(std::size_t lane, std::uint64_t n);
    /** Attempts and status apply to every lane. */
    void setAttempts(unsigned n);
    void setStatus(const std::string &status);

  private:
    bool active_;
    unsigned worker_ = 0;
    std::uint64_t startNs_ = 0;
    std::uint64_t queueWaitNs_ = 0;
    std::uint64_t lockWait0_ = 0;
    unsigned attempts_ = 0;
    std::string status_ = "failed";
    std::vector<CellRecord> lanes_;
};

} // namespace lp::prof
