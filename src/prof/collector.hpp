/**
 * @file
 * The profiling collector (`lp::prof`): per-cell sweep telemetry,
 * per-worker timelines, and epoch-based time attribution, layered on
 * lp::obs (docs/profiling.md).
 *
 * One process has one Collector.  It is configured from a profile spec
 * (`run_study --profile[=json|chrome[:PATH]]` or `LP_PROFILE`) and
 * records three kinds of evidence while prof::profilingOn():
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
 *  - execution epochs: each live engine pass, recording and trace
 *    replay attributes its (instructions, wall-ns) to the calling
 *    worker once, from an EpochScope around the phase that ran it —
 *    the hot loops themselves carry no profiling.
 *
 * finish() rolls everything into the profile outputs: a JSON document
 * (contention + per-worker utilization/imbalance + per-cell records) or
 * a Chrome trace whose thread lanes are worker lanes and whose spans
 * are sweep cells (open in ui.perfetto.dev).
 *
 * The collector never touches run reports: sweeps produce byte-identical
 * report JSON with profiling on or off (tests/test_prof.cpp holds this).
 *
 * Thread-safety: recordCell/addEpoch are safe from lp::exec workers
 * (cell records append under an instrumented mutex — formatted outside
 * it — and epochs are per-lane relaxed atomics).  configure, reset,
 * beginRegion/endRegion and finish are quiescent-only, like
 * obs::Session::configure.
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

/** What an epoch of attributed execution time was spent doing. */
enum class EpochKind { Interp = 0, Record = 1, ReplayBatch = 2 };

/** Number of EpochKind values. */
constexpr std::size_t kNumEpochKinds = 3;

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

    /** Attribute @p instructions / @p wallNs to the calling worker. */
    void addEpoch(EpochKind kind, std::uint64_t instructions,
                  std::uint64_t wallNs);

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

    /** The Chrome trace document (chrome mode's output; tests). */
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
    // Both read regionStartNs_ / laneIdleSinceNs_ for queue-wait.
    friend class CellScope;
    friend class TaskScope;

    /** The lane's idle gap before a unit of work starting at @p startNs. */
    std::uint64_t queueWaitBefore(unsigned worker,
                                  std::uint64_t startNs) const;
    /** The lane went idle at @p endNs. */
    void laneIdleAt(unsigned worker, std::uint64_t endNs);

    Collector();

    struct alignas(64) EpochSlot
    {
        std::atomic<std::uint64_t> instructions[kNumEpochKinds];
        std::atomic<std::uint64_t> wallNs[kNumEpochKinds];
    };
    static constexpr std::size_t kMaxLanes = 64;

    Mode mode_ = Mode::Off;
    std::string path_;
    std::uint64_t epochNanos_ = 0; ///< steady-clock origin

    mutable TimedMutex cellMu_{"prof.cells"};
    std::vector<CellRecord> cells_;
    std::unique_ptr<std::ofstream> cellStream_; ///< json mode JSONL

    std::atomic<std::uint64_t> regionStartNs_{0}; ///< 0 = outside
    std::atomic<std::uint64_t> regionWallNs_{0};  ///< accumulated

    /** When each lane last went idle inside the current region (its
     *  previous cell's end); 0 = no cell yet this region.  Only the
     *  owning lane writes, so relaxed atomics suffice. */
    std::atomic<std::uint64_t> laneIdleSinceNs_[kMaxLanes];

    EpochSlot epochs_[kMaxLanes];
};

/**
 * RAII attribution of one execution phase (a recording, a trace replay
 * or a live engine pass) to the calling worker's epoch totals: the
 * destructor adds the scope's wall time and the instructions given to
 * addInstructions().  A no-op while profiling is off.  An unwound scope
 * still attributes its wall time: an aborted run's time is time spent.
 */
class EpochScope
{
  public:
    explicit EpochScope(EpochKind kind);
    ~EpochScope();

    EpochScope(const EpochScope &) = delete;
    EpochScope &operator=(const EpochScope &) = delete;

    void addInstructions(std::uint64_t n) { instructions_ += n; }

  private:
    EpochKind kind_;
    bool active_;
    std::uint64_t startNs_ = 0;
    std::uint64_t instructions_ = 0;
};

/**
 * RAII measurement of one sweep cell.  Construct at cell start (inside
 * the worker); the destructor records the cell.  Every accessor is a
 * no-op while profiling is off, so call sites need no guards.
 *
 * The status defaults to "failed": a scope unwound by an exception
 * records the cell as failed unless the caller reached setStatus().
 */
class CellScope
{
  public:
    CellScope(const std::string &program, const std::string &suite,
              const std::string &config);
    ~CellScope();

    CellScope(const CellScope &) = delete;
    CellScope &operator=(const CellScope &) = delete;

    void setInstructions(std::uint64_t n);
    void setAttempts(unsigned n);
    void setStatus(const std::string &status);

  private:
    bool active_;
    CellRecord rec_;
    std::uint64_t lockWait0_ = 0;
};

/**
 * RAII measurement of one lane task: a unit of work that yields several
 * sweep cells at once (one engine pass over some of a program's
 * configuration lanes).  Construct at task start (inside the worker)
 * and addCell() each lane; the destructor records one CellRecord per
 * lane.  The lanes split the task's wall time and lock-wait evenly and
 * tile its span on the worker's timeline, so per-worker busy time,
 * utilization and load imbalance account for the work that ran.  Like
 * CellScope, accessors are no-ops while profiling is off and the status
 * defaults to "failed".
 */
class TaskScope
{
  public:
    TaskScope();
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
