/**
 * @file
 * Tests for the lp::exec work-pool layer and the thread-safety
 * guarantees it leans on: parallelFor semantics (ordering, exception
 * capture, jobs resolution, worker slots), concurrent metrics
 * recording, and the headline determinism contract — a parallel
 * runSweep produces a document identical to a serial one.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/study.hpp"
#include "core/sweep.hpp"
#include "exec/pool.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"
#include "prof/phase.hpp"
#include "rt/plan.hpp"
#include "support/error.hpp"

namespace lp {
namespace {

using exec::parallelFor;

// ----------------------------------------------------------- parallelFor

TEST(ParallelFor, VisitsEveryIndexExactlyOnce)
{
    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        std::vector<std::atomic<int>> hits(100);
        parallelFor(
            hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); },
            jobs);
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i << " jobs "
                                         << jobs;
    }
}

TEST(ParallelFor, ResultOrderIsIndexOrder)
{
    // Callers index their output by i; whatever the scheduling, the
    // output vector must equal the serial one.
    auto sweep = [](unsigned jobs) {
        std::vector<std::uint64_t> out(257);
        parallelFor(
            out.size(), [&](std::size_t i) { out[i] = i * i + 7; }, jobs);
        return out;
    };
    EXPECT_EQ(sweep(1), sweep(4));
}

TEST(ParallelFor, ZeroAndOneElementRunInline)
{
    std::atomic<int> calls{0};
    parallelFor(0, [&](std::size_t) { calls.fetch_add(1); }, 8);
    EXPECT_EQ(calls.load(), 0);

    std::thread::id caller = std::this_thread::get_id();
    parallelFor(
        1,
        [&](std::size_t) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            calls.fetch_add(1);
        },
        8);
    EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelFor, RethrowsLowestFailingIndex)
{
    for (unsigned jobs : {1u, 4u}) {
        try {
            parallelFor(
                64,
                [&](std::size_t i) {
                    if (i == 7 || i == 9)
                        throw std::runtime_error("boom " +
                                                 std::to_string(i));
                },
                jobs);
            FAIL() << "expected runtime_error (jobs " << jobs << ")";
        } catch (const std::runtime_error &e) {
            // Index 9 can only fail after 7 was already issued; the
            // lowest failing index wins deterministically.
            EXPECT_STREQ(e.what(), "boom 7") << "jobs " << jobs;
        }
    }
}

TEST(ParallelFor, StopsIssuingAfterFailure)
{
    std::atomic<int> ran{0};
    try {
        parallelFor(
            100'000,
            [&](std::size_t i) {
                ran.fetch_add(1);
                if (i == 0)
                    throw std::runtime_error("early");
            },
            4);
        FAIL() << "expected runtime_error";
    } catch (const std::runtime_error &) {
    }
    // Already-started tasks finish, but the remaining iteration space
    // must be abandoned.
    EXPECT_LT(ran.load(), 100'000);
}

TEST(ParallelFor, WorkersCarryTheirRegionSlots)
{
    // Each worker of a region is one slot in 0..workers-1 (the profile
    // lanes); the caller is slot 0 and gets its own slot back.
    std::vector<unsigned> slots(64);
    parallelFor(
        slots.size(),
        [&](std::size_t i) {
            slots[i] = exec::workerSlot();
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        },
        4);
    for (unsigned slot : slots)
        EXPECT_LT(slot, 4u);
    EXPECT_EQ(exec::workerSlot(), 0u);
}

TEST(ParallelFor, JobsResolution)
{
    EXPECT_GE(exec::resolveJobs(0), 1u); // 0 = all hardware threads
    EXPECT_EQ(exec::resolveJobs(3), 3u);

    exec::setJobsOverride(5);
    EXPECT_EQ(exec::defaultJobs(), 5u);
    exec::setJobsOverride(0);
    // With the override cleared, the default falls back to LP_JOBS or 1;
    // either way it is a positive worker count.
    EXPECT_GE(exec::defaultJobs(), 1u);
}

// -------------------------------------------------- concurrent metrics

TEST(ConcurrentMetrics, CounterTotalsMatchSerialSum)
{
    const bool was = obs::metricsOn();
    obs::setMetricsEnabled(true);
    obs::Counter &c = obs::Registry::instance().counter("test.exec.ctr");
    c.reset();

    constexpr unsigned kThreads = 8;
    constexpr std::uint64_t kAddsPerThread = 50'000;
    parallelFor(
        kThreads,
        [&](std::size_t) {
            for (std::uint64_t i = 0; i < kAddsPerThread; ++i)
                c.add(2);
        },
        kThreads);

    EXPECT_EQ(c.value(), 2 * kThreads * kAddsPerThread);
    c.reset();
    obs::setMetricsEnabled(was);
}

TEST(ConcurrentMetrics, RegistryLookupUnderContention)
{
    // Find-or-create from many threads must yield one counter per name
    // and lose no updates.
    const bool was = obs::metricsOn();
    obs::setMetricsEnabled(true);
    parallelFor(
        8,
        [&](std::size_t) {
            for (int i = 0; i < 1000; ++i)
                obs::Registry::instance()
                    .counter("test.exec.lookup" + std::to_string(i % 4))
                    .add(1);
        },
        8);
    std::uint64_t total = 0;
    for (int i = 0; i < 4; ++i) {
        obs::Counter &c = obs::Registry::instance().counter(
            "test.exec.lookup" + std::to_string(i));
        total += c.value();
        c.reset();
    }
    EXPECT_EQ(total, 8u * 1000u);
    obs::setMetricsEnabled(was);
}

TEST(ConcurrentMetrics, PhaseTimersFromWorkers)
{
    prof::PhaseTree::instance().reset();
    parallelFor(
        8,
        [&](std::size_t) {
            for (int i = 0; i < 200; ++i) {
                prof::ScopedPhase outer("worker-phase");
                prof::ScopedPhase inner("inner");
                inner.addInstructions(3);
            }
        },
        8);
    // 8 * 200 enters merged into one node per name; count is atomic.
    std::string json = prof::PhaseTree::instance().toJson().dump();
    EXPECT_NE(json.find("worker-phase"), std::string::npos);
    EXPECT_NE(json.find("1600"), std::string::npos) << json;
    prof::PhaseTree::instance().reset();
}

// ---------------------------------------------------- suite aggregation

TEST(StudyAggregation, GeomeanSpeedupClampsDegenerateReports)
{
    // A report whose serialCost is 0 has speedup() == 0; geomeanSpeedup
    // must clamp it (like geomeanCoverage's 0.1% floor) instead of
    // letting GeomeanAccum fatal on a non-positive sample.
    rt::ProgramReport healthy;
    healthy.serialCost = 1000;
    healthy.parallelCost = 250; // 4x
    rt::ProgramReport degenerate;
    degenerate.serialCost = 0;
    degenerate.parallelCost = 100; // 0x

    double g = 0.0;
    EXPECT_NO_THROW(
        g = core::Study::geomeanSpeedup({healthy, degenerate}));
    EXPECT_GT(g, 0.0);
    EXPECT_LT(g, 4.0); // the degenerate report depresses the mean

    // All-healthy inputs are untouched by the clamp.
    EXPECT_DOUBLE_EQ(core::Study::geomeanSpeedup({healthy, healthy}),
                     4.0);
}

// --------------------------------------------------------- determinism

std::vector<core::BenchProgram>
smallPrograms()
{
    auto mk = [](const char *name, auto builder) {
        core::BenchProgram p;
        p.name = name;
        p.suite = "exec-test";
        p.build = builder;
        return p;
    };
    return {
        mk("saxpy", [] { return test::buildSaxpy(64); }),
        mk("sum", [] { return test::buildSumReduction(64); }),
        mk("chase", [] { return test::buildPointerChase(48); }),
        mk("hist", [] { return test::buildHistogram(128, 8); }),
        mk("calls", [] {
            return test::buildLoopWithCalls(32,
                                            test::CalleeKind::UnsafeExt);
        }),
    };
}

/** One runSweep document at @p jobs workers, dumped canonically. */
std::string
sweepFingerprint(unsigned jobs)
{
    exec::setJobsOverride(jobs);
    core::SweepRequest req;
    req.suite = "exec-test";
    req.wantJson = true;
    core::SweepResult res = core::runSweep(smallPrograms(), req);
    exec::setJobsOverride(0);
    EXPECT_EQ(res.exitCode, 0);
    return res.document.dump();
}

TEST(Determinism, ParallelSweepMatchesSerialByteForByte)
{
    std::string serial = sweepFingerprint(1);
    std::string parallel = sweepFingerprint(4);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

TEST(Determinism, RepeatedParallelSweepsAgree)
{
    // Run-to-run: stateful externals (rand) are copied per Machine, so
    // results cannot depend on scheduling order across repetitions.
    EXPECT_EQ(sweepFingerprint(4), sweepFingerprint(4));
}

TEST(Determinism, StudyPreparationParallelMatchesSerial)
{
    core::Study serial(smallPrograms(), 1);
    core::Study parallel(smallPrograms(), 4);
    ASSERT_EQ(serial.programs().size(), parallel.programs().size());
    rt::LPConfig cfg =
        rt::LPConfig::parse("reduc1-dep1-fn2", rt::ExecModel::Helix);
    for (std::size_t i = 0; i < serial.programs().size(); ++i) {
        EXPECT_EQ(serial.programs()[i]->name(),
                  parallel.programs()[i]->name());
        EXPECT_EQ(
            serial.programs()[i]->run({cfg}).front().toJson(false).dump(),
            parallel.programs()[i]->run({cfg}).front().toJson(false).dump());
    }
}

TEST(Determinism, ConcurrentRunsOverOneDriverAgree)
{
    // Many Machines over one module + one plan, all at once: the module
    // must stay immutable (globals get per-Machine addresses, externals
    // per-Machine impl copies).
    auto mod =
        test::buildLoopWithCalls(64, test::CalleeKind::UnsafeExt);
    core::Loopapalooza driver(*mod);
    rt::LPConfig cfg =
        rt::LPConfig::parse("reduc0-dep2-fn2", rt::ExecModel::Helix);

    std::vector<std::string> dumps(16);
    parallelFor(
        dumps.size(),
        [&](std::size_t i) {
            dumps[i] = driver.run({cfg}).front().toJson(false).dump();
        },
        8);
    for (std::size_t i = 1; i < dumps.size(); ++i)
        EXPECT_EQ(dumps[0], dumps[i]) << "run " << i << " diverged";
}

} // namespace
} // namespace lp
