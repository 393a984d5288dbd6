#include "prof/collector.hpp"

#include <algorithm>
#include <chrono>

#include "exec/pool.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "support/text.hpp"

namespace lp::prof {

namespace {

std::uint64_t
steadyNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** The epoch phases, in profile key order: the phase spans each epoch
 *  sums, and its key under a worker's "epochs". */
struct EpochPhase
{
    const char *phase;
    const char *key;
};
constexpr EpochPhase kEpochPhases[] = {
    {"interpret", "interp"},
    {"record", "record"},
    {"replay_batch", "replay_batch"},
};

obs::Json
cellToJson(const CellRecord &rec)
{
    obs::Json j = obs::Json::object();
    j.set("program", rec.program);
    j.set("suite", rec.suite);
    j.set("config", rec.config);
    j.set("worker", rec.worker);
    j.set("start_ns", rec.startNs);
    j.set("wall_ns", rec.wallNs);
    j.set("queue_wait_ns", rec.queueWaitNs);
    j.set("lock_wait_ns", rec.lockWaitNs);
    j.set("instructions", rec.instructions);
    j.set("attempts", rec.attempts);
    j.set("status", rec.status);
    return j;
}

} // namespace

Collector::Collector() : epochNanos_(steadyNanos()) {}

Collector &
Collector::instance()
{
    static Collector c;
    return c;
}

std::uint64_t
Collector::nowNs() const
{
    return steadyNanos() - epochNanos_;
}

bool
Collector::configure(const std::string &spec)
{
    std::string modeName = spec;
    std::string path;
    std::size_t colon = spec.find(':');
    if (colon != std::string::npos) {
        modeName = spec.substr(0, colon);
        path = spec.substr(colon + 1);
    }

    if (modeName.empty() || modeName == "off") {
        mode_ = Mode::Off;
        path_.clear();
        setEnabled(false);
        return true;
    }
    if (modeName == "json" || modeName == "1" || modeName == "on")
        mode_ = Mode::Json;
    else if (modeName == "chrome")
        mode_ = Mode::Chrome;
    else {
        mode_ = Mode::Off;
        path_.clear();
        setEnabled(false);
        return false;
    }

    path_ = !path.empty()
                ? path
                : (mode_ == Mode::Json ? "lp_profile.json"
                                       : "lp_profile.trace.json");
    reset();
    if (mode_ == Mode::Json) {
        auto stream = std::make_unique<std::ofstream>(
            path_ + ".cells.jsonl", std::ios::trunc);
        if (!*stream)
            obs::logMessage(obs::Level::Warn,
                            "cannot open cell telemetry stream " + path_ +
                                ".cells.jsonl; cells are only rolled "
                                "into the final profile",
                            /*force=*/true);
        else
            cellStream_ = std::move(stream);
    }
    setEnabled(true);
    return true;
}

void
Collector::setEnabled(bool on)
{
    detail::g_profilingEnabled.store(on, std::memory_order_relaxed);
}

void
Collector::reset()
{
    {
        std::lock_guard<TimedMutex> lock(cellMu_);
        cells_.clear();
        cellStream_.reset();
    }
    regionStartNs_.store(0, std::memory_order_relaxed);
    regionWallNs_.store(0, std::memory_order_relaxed);
    {
        std::lock_guard<TimedMutex> lock(laneMu_);
        lanes_.clear();
    }
    LockSiteTable::instance().resetAll();
}

void
Collector::beginRegion()
{
    // A new region means every lane is idle-since-region-start: clear
    // the per-lane markers so the first cell on each lane measures its
    // gap from the region start, not from some previous region's cell.
    {
        std::lock_guard<TimedMutex> lock(laneMu_);
        for (Lane &lane : lanes_)
            lane.idleSinceNs = 0;
    }
    regionStartNs_.store(nowNs(), std::memory_order_relaxed);
}

void
Collector::endRegion()
{
    std::uint64_t start = regionStartNs_.load(std::memory_order_relaxed);
    if (start == 0)
        return;
    regionWallNs_.fetch_add(nowNs() - start, std::memory_order_relaxed);
    regionStartNs_.store(0, std::memory_order_relaxed);
}

void
Collector::recordCell(const CellRecord &rec)
{
    // Format outside the lock: the critical section is one vector
    // append and one preformatted line write.
    std::string line;
    {
        // Streaming only happens in json mode; skip the dump otherwise.
        if (cellStream_)
            line = cellToJson(rec).dump();
    }
    std::lock_guard<TimedMutex> lock(cellMu_);
    cells_.push_back(rec);
    if (cellStream_) {
        *cellStream_ << line << '\n';
        cellStream_->flush();
    }
}

Collector::Lane &
Collector::laneLocked(unsigned worker)
{
    if (worker >= lanes_.size())
        lanes_.resize(worker + 1);
    return lanes_[worker];
}

void
Collector::recordPhase(const std::string &name, std::uint64_t wallNs,
                       std::uint64_t instructions)
{
    const std::uint64_t end = nowNs();
    const unsigned worker = exec::workerSlot();
    std::lock_guard<TimedMutex> lock(laneMu_);
    laneLocked(worker).phases.push_back(
        {name, end > wallNs ? end - wallNs : 0, wallNs, instructions});
}

obs::Json
Collector::contentionJson() const
{
    std::vector<LockSiteSnapshot> sites =
        LockSiteTable::instance().snapshot();
    // Most waited-on first; name breaks ties so output is deterministic.
    std::sort(sites.begin(), sites.end(),
              [](const LockSiteSnapshot &a, const LockSiteSnapshot &b) {
                  if (a.waitNs != b.waitNs)
                      return a.waitNs > b.waitNs;
                  return a.name < b.name;
              });

    std::uint64_t totalWait = 0, totalAcq = 0, totalContended = 0;
    obs::Json arr = obs::Json::array();
    for (const LockSiteSnapshot &s : sites) {
        totalWait += s.waitNs;
        totalAcq += s.acquisitions;
        totalContended += s.contended;
        if (s.acquisitions == 0)
            continue; // never touched while profiling: noise
        obs::Json one = obs::Json::object();
        one.set("site", s.name);
        one.set("acquisitions", s.acquisitions);
        one.set("contended", s.contended);
        one.set("wait_ns", s.waitNs);
        arr.push(std::move(one));
    }
    obs::Json out = obs::Json::object();
    out.set("total_lock_wait_ns", totalWait);
    out.set("total_acquisitions", totalAcq);
    out.set("total_contended", totalContended);
    out.set("sites", std::move(arr));
    return out;
}

obs::Json
Collector::workersJson() const
{
    struct Worker
    {
        std::uint64_t cells = 0;
        std::uint64_t busyNs = 0;
        std::uint64_t queueWaitNs = 0;
        std::uint64_t lockWaitNs = 0;
        std::uint64_t instructions = 0;
    };
    std::map<unsigned, Worker> workers;
    {
        std::lock_guard<TimedMutex> lock(cellMu_);
        for (const CellRecord &c : cells_) {
            Worker &w = workers[c.worker];
            w.cells += 1;
            w.busyNs += c.wallNs;
            w.queueWaitNs += c.queueWaitNs;
            w.lockWaitNs += c.lockWaitNs;
            w.instructions += c.instructions;
        }
    }
    const std::uint64_t regionWall =
        regionWallNs_.load(std::memory_order_relaxed);

    std::lock_guard<TimedMutex> laneLock(laneMu_);
    obs::Json arr = obs::Json::array();
    std::uint64_t maxBusy = 0, sumBusy = 0;
    double sumUtil = 0.0;
    for (const auto &[lane, w] : workers) {
        maxBusy = std::max(maxBusy, w.busyNs);
        sumBusy += w.busyNs;
        double util = regionWall > 0 ? static_cast<double>(w.busyNs) /
                                           static_cast<double>(regionWall)
                                     : 0.0;
        sumUtil += util;

        obs::Json one = obs::Json::object();
        one.set("worker", lane);
        one.set("cells", w.cells);
        one.set("busy_ns", w.busyNs);
        one.set("idle_ns",
                regionWall > w.busyNs ? regionWall - w.busyNs : 0);
        // Per-cell gaps on one lane are disjoint, so this sum cannot
        // logically exceed the region wall; the clamp guards against
        // clock skew between the region edges and the cell scopes ever
        // resurrecting the impossible 23s-wait-in-a-1.6s-region reports.
        one.set("queue_wait_ns", std::min(w.queueWaitNs, regionWall));
        one.set("lock_wait_ns", w.lockWaitNs);
        one.set("instructions", w.instructions);
        one.set("utilization", util);
        // Epoch attribution: this lane's epoch-phase spans, summed.
        obs::Json ep = obs::Json::object();
        for (const EpochPhase &e : kEpochPhases) {
            std::uint64_t instructions = 0, wallNs = 0;
            if (lane < lanes_.size())
                for (const PhaseSpan &p : lanes_[lane].phases)
                    if (p.name == e.phase) {
                        instructions += p.instructions;
                        wallNs += p.wallNs;
                    }
            if (instructions == 0 && wallNs == 0)
                continue;
            obs::Json kind = obs::Json::object();
            kind.set("instructions", instructions);
            kind.set("wall_ns", wallNs);
            ep.set(e.key, std::move(kind));
        }
        one.set("epochs", std::move(ep));
        arr.push(std::move(one));
    }

    const std::size_t n = workers.size();
    const double meanBusy =
        n > 0 ? static_cast<double>(sumBusy) / static_cast<double>(n)
              : 0.0;
    obs::Json out = obs::Json::object();
    out.set("region_wall_ns", regionWall);
    out.set("workers", std::move(arr));
    out.set("utilization_mean",
            n > 0 ? sumUtil / static_cast<double>(n) : 0.0);
    // 1.0 = perfectly balanced; >1 = the slowest lane carried that many
    // times the mean load.
    out.set("load_imbalance",
            meanBusy > 0.0 ? static_cast<double>(maxBusy) / meanBusy
                           : 1.0);
    return out;
}

obs::Json
Collector::cellsJson() const
{
    std::lock_guard<TimedMutex> lock(cellMu_);
    obs::Json arr = obs::Json::array();
    for (const CellRecord &c : cells_)
        arr.push(cellToJson(c));
    return arr;
}

std::size_t
Collector::cellCount() const
{
    std::lock_guard<TimedMutex> lock(cellMu_);
    return cells_.size();
}

obs::Json
Collector::toJson() const
{
    obs::Json doc = obs::Json::object();
    doc.set("profile", "lp_prof");
    doc.set("v", 1);
    doc.set("contention", contentionJson());
    doc.set("workers", workersJson());
    doc.set("cells", cellsJson());
    return doc;
}

obs::Json
Collector::chromeDocument() const
{
    // Chrome trace_event format: one "X" (complete) span per sweep cell
    // and per closed phase, with the worker lane as tid and timestamps
    // in microseconds on the collector's timebase.  Cells and phases
    // are two processes (pid 1 and 2) on the same lanes: a lane task's
    // cells tile its wall time and so cross the boundaries of the
    // phases inside the task, and a trace viewer needs the spans of one
    // track to nest.
    obs::Json events = obs::Json::array();
    auto span = [&](std::string name, const char *cat, int pid,
                    unsigned lane, std::uint64_t startNs,
                    std::uint64_t wallNs, obs::Json args) {
        obs::Json e = obs::Json::object();
        e.set("name", std::move(name));
        e.set("cat", cat);
        e.set("ph", "X");
        e.set("ts", static_cast<double>(startNs) / 1000.0);
        e.set("dur", static_cast<double>(wallNs) / 1000.0);
        e.set("pid", pid);
        e.set("tid", lane);
        e.set("args", std::move(args));
        events.push(std::move(e));
    };
    for (int pid : {1, 2}) {
        obs::Json args = obs::Json::object();
        args.set("name", pid == 1 ? "cells" : "phases");
        obs::Json meta = obs::Json::object();
        meta.set("name", "process_name");
        meta.set("ph", "M");
        meta.set("pid", pid);
        meta.set("args", std::move(args));
        events.push(std::move(meta));
    }
    {
        std::lock_guard<TimedMutex> lock(cellMu_);
        for (const CellRecord &c : cells_) {
            obs::Json args = obs::Json::object();
            args.set("suite", c.suite);
            args.set("queue_wait_ns", c.queueWaitNs);
            args.set("lock_wait_ns", c.lockWaitNs);
            args.set("instructions", c.instructions);
            args.set("attempts", c.attempts);
            args.set("status", c.status);
            span(c.program + " [" + c.config + "]", "cell", 1, c.worker,
                 c.startNs, c.wallNs, std::move(args));
        }
    }
    {
        std::lock_guard<TimedMutex> lock(laneMu_);
        for (unsigned lane = 0; lane < lanes_.size(); ++lane)
            for (const PhaseSpan &p : lanes_[lane].phases) {
                obs::Json args = obs::Json::object();
                if (p.instructions != 0)
                    args.set("instructions", p.instructions);
                span(p.name, "phase", 2, lane, p.startNs, p.wallNs,
                     std::move(args));
            }
    }
    // Contention, utilization and (when metrics are on) the metrics
    // snapshot ride along as process-scoped metadata.
    obs::Json meta = obs::Json::object();
    meta.set("name", "lp_prof.summary");
    meta.set("ph", "i");
    meta.set("ts", 0.0);
    meta.set("pid", 1);
    meta.set("tid", 0);
    meta.set("s", "p");
    obs::Json args = obs::Json::object();
    args.set("contention", contentionJson());
    args.set("workers", workersJson());
    if (obs::metricsOn())
        args.set("metrics", obs::Registry::instance().toJson());
    meta.set("args", std::move(args));
    events.push(std::move(meta));

    obs::Json doc = obs::Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    return doc;
}

bool
Collector::finish()
{
    if (mode_ == Mode::Off)
        return true;
    setEnabled(false);
    {
        std::lock_guard<TimedMutex> lock(cellMu_);
        if (cellStream_) {
            cellStream_->flush();
            cellStream_.reset();
        }
    }
    obs::Json doc = mode_ == Mode::Json ? toJson() : chromeDocument();
    std::ofstream out(path_, std::ios::trunc);
    if (!out) {
        obs::logMessage(obs::Level::Error,
                        "cannot write profile to " + path_,
                        /*force=*/true);
        mode_ = Mode::Off;
        return false;
    }
    out << doc.dump(2) << '\n';
    LP_LOG_INFO("wrote %s profile to %s",
                mode_ == Mode::Json ? "json" : "chrome", path_.c_str());
    mode_ = Mode::Off;
    return true;
}

std::uint64_t
Collector::queueWaitBefore(unsigned worker, std::uint64_t startNs)
{
    // Queue-wait is the lane's idle gap before this unit of work: from
    // its previous unit's end — or the region start, for the lane's
    // first one — to now.  Time the lane spent busy on earlier work is
    // work, not waiting; billing it here is what once summed a 1.6 s
    // region's queue-wait to 23 s.
    const std::uint64_t region =
        regionStartNs_.load(std::memory_order_relaxed);
    std::uint64_t idleSince = 0;
    {
        std::lock_guard<TimedMutex> lock(laneMu_);
        idleSince = laneLocked(worker).idleSinceNs;
    }
    const std::uint64_t waitBase = idleSince != 0 ? idleSince : region;
    return region != 0 && startNs > waitBase ? startNs - waitBase : 0;
}

void
Collector::laneIdleAt(unsigned worker, std::uint64_t endNs)
{
    std::lock_guard<TimedMutex> lock(laneMu_);
    laneLocked(worker).idleSinceNs = endNs;
}

// ------------------------------------------------------------ TaskScope

TaskScope::TaskScope() : active_(profilingOn())
{
    if (!active_)
        return;
    Collector &c = Collector::instance();
    worker_ = exec::workerSlot();
    startNs_ = c.nowNs();
    queueWaitNs_ = c.queueWaitBefore(worker_, startNs_);
    lockWait0_ = threadLockWaitNs();
}

TaskScope::TaskScope(const std::string &program, const std::string &suite,
                     const std::string &config)
    : TaskScope()
{
    addCell(program, suite, config);
}

TaskScope::~TaskScope()
{
    if (!active_ || lanes_.empty())
        return;
    Collector &c = Collector::instance();
    const std::uint64_t end = c.nowNs();
    const std::uint64_t n = lanes_.size();
    const std::uint64_t wall = end - startNs_;
    const std::uint64_t lockWait = threadLockWaitNs() - lockWait0_;
    for (std::uint64_t i = 0; i < n; ++i) {
        CellRecord &rec = lanes_[i];
        // Lane i's share tiles [start, end): remainders go to the last.
        rec.startNs = startNs_ + wall / n * i;
        rec.wallNs = i + 1 == n ? end - rec.startNs : wall / n;
        rec.queueWaitNs = i == 0 ? queueWaitNs_ : 0;
        rec.lockWaitNs = lockWait / n + (i + 1 == n ? lockWait % n : 0);
        rec.attempts = attempts_;
        rec.status = status_;
        c.recordCell(rec);
    }
    c.laneIdleAt(worker_, end);
}

void
TaskScope::addCell(const std::string &program, const std::string &suite,
                   const std::string &config)
{
    if (!active_)
        return;
    CellRecord rec;
    rec.program = program;
    rec.suite = suite;
    rec.config = config;
    rec.worker = worker_;
    lanes_.push_back(std::move(rec));
}

void
TaskScope::setInstructions(std::size_t lane, std::uint64_t n)
{
    if (active_)
        lanes_[lane].instructions = n;
}

void
TaskScope::setAttempts(unsigned n)
{
    if (active_)
        attempts_ = n;
}

void
TaskScope::setStatus(const std::string &status)
{
    if (active_)
        status_ = status;
}

} // namespace lp::prof
