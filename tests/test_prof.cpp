/**
 * @file
 * lp::prof: instrumented locks, the profiling collector, and the
 * profiled-runs-change-nothing guarantee (docs/profiling.md).
 *
 * Shape of the suite:
 *  - TimedMutex: disabled cost model (no stats recorded), uncontended
 *    fast path, forced contention producing wait-ns and the per-thread
 *    lock-wait accumulator TaskScope attribution is built on;
 *  - Collector: spec parsing, per-cell JSONL well-formedness and schema
 *    round-trip, per-worker timeline lane validity (one lane per
 *    exec worker slot, however many), epoch attribution from the
 *    interpret/record/replay_batch phases, truthful worker utilization
 *    on a real sweep (lane tasks are the profiled work), and the one
 *    Chrome timeline holding cell and phase spans on the worker lanes;
 *  - Determinism: a profiled runSweep document is byte-identical to an
 *    unprofiled one, serial and at --jobs 4.
 */

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <latch>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "core/study.hpp"
#include "core/sweep.hpp"
#include "exec/pool.hpp"
#include "guard/budget.hpp"
#include "helpers.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "prof/collector.hpp"
#include "prof/phase.hpp"
#include "prof/timed_mutex.hpp"

namespace lp {
namespace {

/** Profiling off and all evidence dropped before and after each test. */
class ProfSandbox : public ::testing::Test
{
  public:
    static void quiesce()
    {
        prof::Collector::instance().configure("off");
        prof::Collector::instance().reset();
    }

  protected:
    void SetUp() override { quiesce(); }
    void TearDown() override { quiesce(); }
};

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + name;
}

// ----------------------------------------------------------- TimedMutex

TEST_F(ProfSandbox, DisabledMutexRecordsNothing)
{
    prof::TimedMutex m("test.prof.disabled");
    for (int i = 0; i < 100; ++i) {
        m.lock();
        m.unlock();
    }
    EXPECT_EQ(m.stats().acquisitions(), 0u);
    EXPECT_EQ(m.stats().contended(), 0u);
    EXPECT_EQ(m.stats().waitNs(), 0u);
}

TEST_F(ProfSandbox, UncontendedAcquisitionsCountWithoutWait)
{
    prof::TimedMutex m("test.prof.uncontended");
    prof::Collector::instance().setEnabled(true);
    for (int i = 0; i < 10; ++i) {
        m.lock();
        m.unlock();
    }
    EXPECT_TRUE(m.try_lock());
    m.unlock();
    prof::Collector::instance().setEnabled(false);
    EXPECT_EQ(m.stats().acquisitions(), 11u);
    EXPECT_EQ(m.stats().contended(), 0u);
    EXPECT_EQ(m.stats().waitNs(), 0u);
}

TEST_F(ProfSandbox, ForcedContentionRecordsWaitAndThreadAccumulator)
{
    prof::TimedMutex m("test.prof.contended");
    prof::Collector::instance().setEnabled(true);

    // Hold the lock while a second thread provably blocks on it.
    std::atomic<bool> waiterStarted{false};
    std::uint64_t waiterLockWaitNs = 0;
    m.lock();
    std::thread waiter([&] {
        const std::uint64_t before = prof::threadLockWaitNs();
        waiterStarted.store(true);
        m.lock(); // contended: the main thread holds it
        m.unlock();
        waiterLockWaitNs = prof::threadLockWaitNs() - before;
    });
    while (!waiterStarted.load())
        std::this_thread::yield();
    // The waiter has at most a few instructions between the flag and
    // the lock() call; give it amply long to be parked on the mutex.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    m.unlock();
    waiter.join();
    prof::Collector::instance().setEnabled(false);

    EXPECT_EQ(m.stats().acquisitions(), 2u);
    EXPECT_EQ(m.stats().contended(), 1u);
    EXPECT_GT(m.stats().waitNs(), 0u);
    // The contended wait landed in the waiting thread's accumulator —
    // this is what TaskScope diffs to attribute lock-wait to cells.
    EXPECT_EQ(waiterLockWaitNs, m.stats().waitNs());
}

TEST_F(ProfSandbox, ContentionSnapshotRanksSites)
{
    prof::Collector &c = prof::Collector::instance();
    prof::TimedMutex hot("test.prof.rank_hot");
    c.setEnabled(true);
    std::thread t([&] {
        for (int i = 0; i < 200; ++i) {
            hot.lock();
            hot.unlock();
        }
    });
    for (int i = 0; i < 200; ++i) {
        hot.lock();
        hot.unlock();
    }
    t.join();
    c.setEnabled(false);

    obs::Json contention = c.contentionJson();
    EXPECT_EQ(contention.at("total_acquisitions").asU64(),
              hot.stats().acquisitions());
    bool found = false;
    const obs::Json &sites = contention.at("sites");
    std::uint64_t lastWait = UINT64_MAX;
    for (std::size_t i = 0; i < sites.size(); ++i) {
        const obs::Json &site = sites.at(i);
        // Sorted most-waited-on first.
        EXPECT_LE(site.at("wait_ns").asU64(), lastWait);
        lastWait = site.at("wait_ns").asU64();
        if (site.at("site").asString() == "test.prof.rank_hot")
            found = true;
    }
    EXPECT_TRUE(found);
}

// ------------------------------------------------------------ Collector

TEST_F(ProfSandbox, ConfigureParsesSpecsAndRejectsUnknownModes)
{
    prof::Collector &c = prof::Collector::instance();

    EXPECT_FALSE(c.configure("perf"));
    EXPECT_EQ(c.mode(), prof::Mode::Off);
    EXPECT_FALSE(prof::profilingOn());

    std::string path = tempPath("lp_prof_cfg.json");
    EXPECT_TRUE(c.configure("json:" + path));
    EXPECT_EQ(c.mode(), prof::Mode::Json);
    EXPECT_EQ(c.outputPath(), path);
    EXPECT_TRUE(prof::profilingOn());

    EXPECT_TRUE(c.configure("chrome:" + path));
    EXPECT_EQ(c.mode(), prof::Mode::Chrome);

    EXPECT_TRUE(c.configure("off"));
    EXPECT_EQ(c.mode(), prof::Mode::Off);
    EXPECT_FALSE(prof::profilingOn());
}

TEST_F(ProfSandbox, CellRecordsRoundTripThroughJsonlAndReport)
{
    prof::Collector &c = prof::Collector::instance();
    const std::string path = tempPath("lp_prof_cells.json");
    ASSERT_TRUE(c.configure("json:" + path));

    c.beginRegion();
    {
        prof::TaskScope cell("164.gzip-like", "cint2000",
                             "reduc1-dep1-fn2 helix");
        cell.setInstructions(0, 12345);
        cell.setAttempts(2);
        cell.setStatus("ok");
    }
    {
        prof::TaskScope cell("175.vpr-like", "cint2000",
                             "reduc1-dep1-fn2 helix");
        // No setStatus: an unwound scope records as failed.
    }
    c.endRegion();
    EXPECT_EQ(c.cellCount(), 2u);
    ASSERT_TRUE(c.finish()); // writes both outputs, disables profiling

    // The streamed JSONL: one well-formed object per line, schema keys
    // present, values round-tripping.
    std::ifstream jsonl(path + ".cells.jsonl");
    ASSERT_TRUE(jsonl.good());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(jsonl, line)) {
        std::string err;
        obs::Json rec = obs::Json::parse(line, &err);
        ASSERT_TRUE(err.empty()) << err << " in: " << line;
        for (const char *key :
             {"program", "suite", "config", "worker", "start_ns",
              "wall_ns", "queue_wait_ns", "lock_wait_ns", "instructions",
              "attempts", "status"})
            EXPECT_TRUE(rec.contains(key)) << key;
        ++lines;
    }
    EXPECT_EQ(lines, 2u);

    // The rolled-up profile document agrees with the stream.
    std::ifstream profFile(path);
    ASSERT_TRUE(profFile.good());
    std::stringstream buf;
    buf << profFile.rdbuf();
    std::string err;
    obs::Json doc = obs::Json::parse(buf.str(), &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_TRUE(doc.contains("cells"));
    ASSERT_EQ(doc.at("cells").size(), 2u);
    const obs::Json &first = doc.at("cells").at(0);
    EXPECT_EQ(first.at("program").asString(), "164.gzip-like");
    EXPECT_EQ(first.at("instructions").asU64(), 12345u);
    EXPECT_EQ(first.at("attempts").asU64(), 2u);
    EXPECT_EQ(first.at("status").asString(), "ok");
    EXPECT_EQ(doc.at("cells").at(1).at("status").asString(), "failed");
    ASSERT_TRUE(doc.contains("contention"));
    ASSERT_TRUE(doc.contains("workers"));

    std::remove(path.c_str());
    std::remove((path + ".cells.jsonl").c_str());
}

std::vector<core::BenchProgram>
smallPrograms()
{
    auto mk = [](const char *name, auto builder) {
        core::BenchProgram p;
        p.name = name;
        p.suite = "prof-test";
        p.build = builder;
        return p;
    };
    return {
        mk("saxpy", [] { return test::buildSaxpy(64); }),
        mk("sum", [] { return test::buildSumReduction(64); }),
        mk("chase", [] { return test::buildPointerChase(48); }),
        mk("hist", [] { return test::buildHistogram(128, 8); }),
    };
}

/**
 * runSweep over smallPrograms() at @p jobs workers (its table muted);
 * returns the sweep document, dumped canonically.
 */
std::string
sweepDoc(unsigned jobs)
{
    exec::setJobsOverride(jobs);
    core::SweepRequest req;
    req.suite = "prof-test";
    req.wantJson = true;
    std::ostringstream quiet;
    std::streambuf *old = std::cout.rdbuf(quiet.rdbuf());
    core::SweepResult res = core::runSweep(smallPrograms(), req);
    std::cout.rdbuf(old);
    exec::setJobsOverride(0);
    EXPECT_EQ(res.exitCode, 0);
    return res.document.dump();
}

TEST_F(ProfSandbox, WorkerTimelinesHaveValidLanesAndUtilization)
{
    prof::Collector &c = prof::Collector::instance();
    const std::string path = tempPath("lp_prof_lanes.json");
    ASSERT_TRUE(c.configure("json:" + path));
    sweepDoc(4);

    obs::Json workers = c.workersJson();
    const std::uint64_t regionWall =
        workers.at("region_wall_ns").asU64();
    EXPECT_GT(regionWall, 0u);
    const obs::Json &lanes = workers.at("workers");
    ASSERT_GT(lanes.size(), 0u);
    // A lane is a worker slot: the recordings and the lane tasks run on
    // the same 4 slots, so a 4-job sweep shows at most 4 lanes (not one
    // per thread started).
    EXPECT_LE(lanes.size(), 4u);
    std::set<std::uint64_t> seenLanes;
    std::uint64_t cellsTotal = 0;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        const obs::Json &w = lanes.at(i);
        // Each lane appears once and carries internally consistent
        // spans: busy + idle == the region wall it is measured against.
        EXPECT_TRUE(seenLanes.insert(w.at("worker").asU64()).second);
        EXPECT_LT(w.at("worker").asU64(), 4u);
        cellsTotal += w.at("cells").asU64();
        const double util = w.at("utilization").asDouble();
        EXPECT_GE(util, 0.0);
        EXPECT_LE(util, 1.0 + 1e-9);
        EXPECT_EQ(w.at("busy_ns").asU64() + w.at("idle_ns").asU64(),
                  regionWall);
        EXPECT_LE(w.at("queue_wait_ns").asU64(), regionWall);
    }
    EXPECT_EQ(cellsTotal, c.cellCount());
    EXPECT_GE(workers.at("load_imbalance").asDouble(), 1.0 - 1e-9);

    // The Chrome view of the same evidence: every cell span sits on its
    // recorded worker's lane.
    obs::Json chrome = c.chromeDocument();
    const obs::Json &events = chrome.at("traceEvents");
    std::size_t cellEvents = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const obs::Json &e = events.at(i);
        if (e.at("ph").asString() != "X" ||
            e.at("cat").asString() != "cell")
            continue;
        ++cellEvents;
        EXPECT_TRUE(seenLanes.count(e.at("tid").asU64()))
            << "span on unknown lane";
        EXPECT_GE(e.at("dur").asDouble(), 0.0);
    }
    EXPECT_EQ(cellEvents, c.cellCount());

    quiesce();
    std::remove((path + ".cells.jsonl").c_str());
}

TEST_F(ProfSandbox, ChromeTimelineHoldsPhaseAndCellSpansOnWorkerLanes)
{
    // The one timeline: a profiled --jobs 4 sweep in chrome mode draws
    // its cell spans and its phase spans on the same worker lanes, and
    // the summary instant carries the metrics snapshot when metrics
    // are on.
    prof::Collector &c = prof::Collector::instance();
    const std::string path = tempPath("lp_prof_timeline.json");
    ASSERT_TRUE(c.configure("chrome:" + path));
    const bool savedMetrics = obs::metricsOn();
    obs::setMetricsEnabled(true);
    sweepDoc(4);
    const bool written = c.finish();
    obs::setMetricsEnabled(savedMetrics);
    ASSERT_TRUE(written);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    std::string err;
    obs::Json doc = obs::Json::parse(buf.str(), &err);
    ASSERT_TRUE(err.empty()) << err;

    const obs::Json &events = doc.at("traceEvents");
    std::set<std::string> cats, phases;
    bool sawMetrics = false;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const obs::Json &e = events.at(i);
        if (e.at("name").asString() == "lp_prof.summary")
            sawMetrics = e.at("args").contains("metrics");
        if (e.at("ph").asString() != "X")
            continue;
        EXPECT_LT(e.at("tid").asU64(), 4u) << e.at("name").asString();
        cats.insert(e.at("cat").asString());
        if (e.at("cat").asString() == "phase")
            phases.insert(e.at("name").asString());
    }
    EXPECT_EQ(cats, (std::set<std::string>{"cell", "phase"}));
    EXPECT_TRUE(phases.count("record"));
    EXPECT_TRUE(phases.count("replay_batch"));
    EXPECT_TRUE(sawMetrics);
    std::remove(path.c_str());
}

TEST_F(ProfSandbox, EveryWorkerSlotOwnsItsLane)
{
    // A 65-worker region: every slot must keep its own lane state —
    // none may fold into another slot's epoch totals or idle marker.
    // The latch holds each worker inside its one unit until all 65
    // have claimed theirs, so every slot runs exactly one.
    constexpr unsigned kWorkers = 65;
    prof::Collector &c = prof::Collector::instance();
    c.setEnabled(true);
    std::latch allStarted(kWorkers);
    c.beginRegion();
    exec::parallelFor(
        kWorkers,
        [&](std::size_t) {
            const unsigned slot = exec::workerSlot();
            prof::TaskScope unit("p" + std::to_string(slot), "prof-test",
                                 "cfg");
            prof::ScopedPhase phase("record");
            phase.addInstructions(slot + 1);
            allStarted.arrive_and_wait();
            unit.setStatus("ok");
        },
        kWorkers);
    c.endRegion();
    c.setEnabled(false);

    obs::Json cells = c.cellsJson();
    ASSERT_EQ(cells.size(), kWorkers);
    std::map<std::uint64_t, std::uint64_t> cellWait; // lane -> wait
    for (std::size_t i = 0; i < cells.size(); ++i)
        cellWait[cells.at(i).at("worker").asU64()] =
            cells.at(i).at("queue_wait_ns").asU64();

    obs::Json workers = c.workersJson();
    const obs::Json &lanes = workers.at("workers");
    ASSERT_EQ(lanes.size(), kWorkers);
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        const obs::Json &w = lanes.at(i);
        const std::uint64_t lane = w.at("worker").asU64();
        EXPECT_EQ(lane, i);
        EXPECT_EQ(w.at("cells").asU64(), 1u);
        EXPECT_EQ(w.at("queue_wait_ns").asU64(), cellWait.at(lane));
        EXPECT_EQ(w.at("epochs").at("record").at("instructions").asU64(),
                  lane + 1)
            << "lane " << lane;
    }
}

TEST_F(ProfSandbox, QueueWaitIsLaneIdleGapNotRegionOffset)
{
    // Regression: queue-wait used to be "region start -> cell start",
    // which billed a lane's entire busy history to each of its later
    // cells — a 1.6 s region once reported 23 s of queue-wait.  The
    // fixed definition (lane idle gap before the cell) sums to at most
    // the region wall, because one lane's gaps are disjoint.
    prof::Collector &c = prof::Collector::instance();
    c.setEnabled(true);

    c.beginRegion();
    for (int i = 0; i < 50; ++i) {
        prof::TaskScope cell("p" + std::to_string(i), "prof-test",
                             "cfg");
        cell.setStatus("ok");
        // Busy time inside the cell: under the old definition each
        // later cell inherited all of it as "queue wait".
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    c.endRegion();
    c.setEnabled(false);

    obs::Json workers = c.workersJson();
    const std::uint64_t regionWall =
        workers.at("region_wall_ns").asU64();
    ASSERT_GT(regionWall, 0u);

    obs::Json cells = c.cellsJson();
    ASSERT_EQ(cells.size(), 50u);
    std::uint64_t totalWait = 0;
    for (std::size_t i = 0; i < cells.size(); ++i)
        totalWait += cells.at(i).at("queue_wait_ns").asU64();
    // The old definition summed to ~125x the region wall here.
    EXPECT_LE(totalWait, regionWall);

    const obs::Json &lanes = workers.at("workers");
    for (std::size_t i = 0; i < lanes.size(); ++i)
        EXPECT_LE(lanes.at(i).at("queue_wait_ns").asU64(), regionWall);
}

TEST_F(ProfSandbox, ParallelSweepQueueWaitStaysWithinRegionWall)
{
    // The same invariant under a real parallel sweep: whatever the
    // worker count, no lane can have waited longer than the region
    // lasted.
    prof::Collector &c = prof::Collector::instance();
    c.setEnabled(true);
    for (int round = 0; round < 3; ++round)
        sweepDoc(4);
    c.setEnabled(false);

    obs::Json workers = c.workersJson();
    const std::uint64_t regionWall =
        workers.at("region_wall_ns").asU64();
    const obs::Json &lanes = workers.at("workers");
    ASSERT_GT(lanes.size(), 0u);
    for (std::size_t i = 0; i < lanes.size(); ++i)
        EXPECT_LE(lanes.at(i).at("queue_wait_ns").asU64(), regionWall)
            << "lane " << lanes.at(i).at("worker").asU64();
}

TEST_F(ProfSandbox, EpochsAttributeInterpretRecordAndReplayTime)
{
    prof::Collector &c = prof::Collector::instance();
    c.setEnabled(true);

    // A sweep records each program once (record epochs) and replays
    // the trace through the engine (replay_batch epochs)...
    sweepDoc(1);
    // ...and a one-byte trace budget makes the engine's passes run
    // live, which the interpreter attributes (interp epochs).
    guard::RunBudget tiny = guard::defaultBudget();
    tiny.maxTraceBytes = 1;
    guard::setBudgetOverride(tiny);
    sweepDoc(1);
    guard::clearBudgetOverride();
    c.setEnabled(false);

    obs::Json workers = c.workersJson();
    const obs::Json &lanes = workers.at("workers");
    bool sawInterp = false, sawRecord = false, sawReplay = false;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        const obs::Json &ep = lanes.at(i).at("epochs");
        sawInterp |= ep.contains("interp");
        sawRecord |= ep.contains("record");
        sawReplay |= ep.contains("replay_batch");
        for (const std::string &kind : ep.keys())
            EXPECT_GT(ep.at(kind).at("instructions").asU64(), 0u);
    }
    EXPECT_TRUE(sawInterp);
    EXPECT_TRUE(sawRecord);
    EXPECT_TRUE(sawReplay);
}

TEST_F(ProfSandbox, SweepWorkerUtilizationIsTruthful)
{
    // The profiled units of a sweep are the recordings and the lane
    // tasks that did the work, so a serial multi-program sweep keeps
    // its one worker busy nearly the whole region.  (When only the
    // per-lane bookkeeping sat inside the cell records, this read
    // ~1e-4.)
    prof::Collector &c = prof::Collector::instance();
    c.setEnabled(true);
    sweepDoc(1);
    c.setEnabled(false);

    obs::Json workers = c.workersJson();
    const obs::Json &lanes = workers.at("workers");
    ASSERT_EQ(lanes.size(), 1u);
    EXPECT_GT(workers.at("utilization_mean").asDouble(), 0.5);
    // One record per recording and one per sweep cell (4 programs x
    // the 14 paper configurations).
    EXPECT_EQ(c.cellCount(), 4u + 4u * 14u);
}

// ---------------------------------------------------------- determinism

/** One sweep fingerprint: the runSweep document, profiled or not. */
std::string
sweepFingerprint(unsigned jobs, bool profiled)
{
    if (profiled) {
        EXPECT_TRUE(prof::Collector::instance().configure(
            "json:" + tempPath("lp_prof_identity.json")));
    } else {
        ProfSandbox::quiesce();
    }
    const std::string out = sweepDoc(jobs);
    ProfSandbox::quiesce();
    std::remove((tempPath("lp_prof_identity.json") + ".cells.jsonl")
                    .c_str());
    return out;
}

TEST_F(ProfSandbox, ProfiledSweepReportsAreByteIdentical)
{
    // The acceptance grid: {off, on} x {serial, 4 jobs} all agree.
    const std::string plainSerial = sweepFingerprint(1, false);
    const std::string profiledSerial = sweepFingerprint(1, true);
    const std::string plainParallel = sweepFingerprint(4, false);
    const std::string profiledParallel = sweepFingerprint(4, true);
    ASSERT_FALSE(plainSerial.empty());
    EXPECT_EQ(plainSerial, profiledSerial);
    EXPECT_EQ(plainSerial, plainParallel);
    EXPECT_EQ(plainSerial, profiledParallel);
}

} // namespace
} // namespace lp
