/**
 * @file
 * Tests for event-trace recording and decoding (src/trace + the
 * driver's recording): encode/decode round-trips, the module
 * fingerprint, the decoder's malformed-payload taxonomy (everything is
 * LP_IO), and the trace byte budget — a truncated recording drops its
 * payload and the program is evaluated from a live run instead, with
 * the same reports.  The reports themselves are pinned by
 * tests/test_golden.cpp.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/configs.hpp"
#include "core/driver.hpp"
#include "core/study.hpp"
#include "core/sweep.hpp"
#include "guard/budget.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"
#include "prof/collector.hpp"
#include "rt/engine.hpp"
#include "support/error.hpp"
#include "trace/format.hpp"

namespace lp {
namespace {

using core::Loopapalooza;
using rt::ExecModel;
using rt::LPConfig;

class TraceTest : public ::testing::Test
{
  protected:
    void SetUp() override { guard::clearBudgetOverride(); }
    void TearDown() override { guard::clearBudgetOverride(); }
};

// ----------------------------------------------------- trace round-trip

TEST_F(TraceTest, DecodeEncodeRoundTripIsPayloadStable)
{
    auto mod = test::buildHistogram(64, 8);
    Loopapalooza lp(*mod);
    const trace::Trace &t = lp.trace();
    ASSERT_FALSE(t.truncated);
    ASSERT_GT(t.events, 0u);

    std::vector<trace::Event> events = trace::decodeEvents(t);
    EXPECT_EQ(events.size(), t.events);
    trace::Trace reencoded =
        trace::encodeEvents(events, t.finalCost, t.numFunctions,
                            t.numBlocks);
    EXPECT_EQ(reencoded.payload, t.payload);
    EXPECT_EQ(reencoded, t);
}

TEST_F(TraceTest, TraceFingerprintMatchesTheModule)
{
    auto mod = test::buildSaxpy(32);
    Loopapalooza lp(*mod);
    const trace::Trace &t = lp.trace();
    EXPECT_EQ(t.numFunctions, lp.dispatchTable().functions.size());
    EXPECT_EQ(t.numBlocks, lp.dispatchTable().blocks.size());
    EXPECT_EQ(t.payload.size() <= (1ULL << 30), true);
}

TEST_F(TraceTest, ReaderRejectsCorruptPayload)
{
    auto mod = test::buildSaxpy(16);
    Loopapalooza lp(*mod);
    const trace::Trace &t = lp.trace();
    ASSERT_GT(t.payload.size(), 4u);

    auto drain = [](const std::vector<std::uint8_t> &bytes) {
        trace::PayloadReader r(bytes.data(), bytes.size());
        trace::Event e;
        while (r.next(e)) {
        }
    };

    // Unknown event tag: must fail loudly, never skip.
    auto bad = t.payload;
    bad.push_back(0x3f);
    EXPECT_THROW(drain(bad), IoError);

    // Event tag whose operand varint is chopped off mid-stream.
    bad = t.payload;
    bad.push_back(static_cast<std::uint8_t>(trace::EventKind::Load));
    EXPECT_THROW(drain(bad), IoError);
}

TEST_F(TraceTest, ReplayRejectsOutOfRangeIds)
{
    // The decoder validates the structure as it replays: a block or
    // function id beyond the module is LP_IO, never a wild index.
    auto mod = test::buildSaxpy(16);
    Loopapalooza lp(*mod);
    const LPConfig cfg =
        LPConfig::parse("reduc0-dep0-fn0", ExecModel::DoAll);
    const auto nf =
        static_cast<std::uint32_t>(lp.dispatchTable().functions.size());
    const auto nb =
        static_cast<std::uint32_t>(lp.dispatchTable().blocks.size());
    auto replay = [&](const trace::Trace &t) {
        rt::evaluate(lp.plan(), lp.dispatchTable(), &t, {cfg}, "corrupt");
    };
    EXPECT_THROW(replay(trace::encodeEvents(
                     {{trace::EventKind::FuncEnter, nf, 0}}, 0, nf, nb)),
                 IoError);
    EXPECT_THROW(replay(trace::encodeEvents(
                     {{trace::EventKind::FuncEnter, 0, 0},
                      {trace::EventKind::BlockEnter, nb, 0}},
                     0, nf, nb)),
                 IoError);
    // A stream that ends with frames open, or whose clock disagrees
    // with the recorded final cost, is rejected too.
    EXPECT_THROW(replay(trace::encodeEvents(
                     {{trace::EventKind::FuncEnter, 0, 0}}, 0, nf, nb)),
                 IoError);
    trace::Trace wrongCost = lp.trace();
    wrongCost.finalCost += 1;
    EXPECT_THROW(replay(wrongCost), IoError);
}

TEST_F(TraceTest, RecordingDoesNotDependOnProfiling)
{
    // The profiler attributes a recording as a whole, from outside the
    // interpreter loop, so turning it on cannot change what is recorded.
    auto mod = test::buildHistogram(64, 8);
    Loopapalooza quiet(*mod);
    const trace::Trace &off = quiet.trace();

    prof::Collector &c = prof::Collector::instance();
    c.setEnabled(true);
    EXPECT_TRUE(prof::profilingOn());
    Loopapalooza profiled(*mod);
    const trace::Trace &on = profiled.trace();
    c.setEnabled(false);
    c.reset();

    ASSERT_FALSE(off.truncated);
    EXPECT_EQ(on.payload, off.payload);
    EXPECT_EQ(on.events, off.events);
    EXPECT_EQ(on.finalCost, off.finalCost);
}

// ------------------------------------------------------ trace byte cap

TEST_F(TraceTest, TinyTraceBudgetTruncatesAndDropsThePayload)
{
    auto mod = test::buildSaxpy(64);
    const LPConfig cfg =
        LPConfig::parse("reduc0-dep0-fn0", ExecModel::DoAll);
    Loopapalooza full(*mod);
    const std::string want = full.run({cfg}).front().toJson(false).dump();

    guard::RunBudget b = guard::defaultBudget();
    b.maxTraceBytes = 64;
    guard::setBudgetOverride(b);
    Loopapalooza lp(*mod);
    const trace::Trace &t = lp.trace();
    EXPECT_TRUE(t.truncated);
    EXPECT_TRUE(t.payload.empty());
    EXPECT_EQ(t.finalCost, full.trace().finalCost);
    // The program is evaluated from a live run instead.
    EXPECT_EQ(lp.run({cfg}).front().toJson(false).dump(), want);
}

TEST_F(TraceTest, KeepGoingSuiteRunEvaluatesTruncatedTracesLive)
{
    guard::RunBudget b = guard::defaultBudget();
    b.maxTraceBytes = 64;
    guard::setBudgetOverride(b);

    std::vector<core::BenchProgram> progs;
    progs.push_back(
        {"saxpy", "unit", [] { return test::buildSaxpy(64); }});
    obs::setMetricsEnabled(true);
    obs::Registry::instance().resetAll();
    core::SweepRequest req; // keep-going is the sweep default
    req.suite = "unit";
    req.wantJson = true;
    core::SweepResult res = core::runSweep(progs, req);
    obs::Registry &reg = obs::Registry::instance();
    const std::uint64_t fallbacks =
        reg.counter("sweep.trace_fallbacks").value();
    const std::uint64_t retries = reg.counter("guard.retries").value();
    obs::setMetricsEnabled(false);
    guard::clearBudgetOverride();

    // Every cell is evaluated from a live run, first time, in full.
    EXPECT_GT(fallbacks, 0u);
    EXPECT_EQ(retries, 0u);
    const obs::Json &reports = res.document.at("reports");
    ASSERT_EQ(reports.size(), core::paperConfigs().size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const obs::Json &r = reports.at(i);
        EXPECT_EQ(r.at("status").asString(), "ok");
        EXPECT_GT(r.at("serial_cost").asU64(), 0u);
    }
}

// -------------------------------------------------------- varint corner

TEST_F(TraceTest, ZigzagRoundTripsExtremes)
{
    for (std::int64_t v :
         {std::int64_t(0), std::int64_t(-1), std::int64_t(1),
          std::int64_t(INT64_MAX), std::int64_t(INT64_MIN)})
        EXPECT_EQ(trace::zigzagDecode(trace::zigzagEncode(v)), v);
}

} // namespace
} // namespace lp
