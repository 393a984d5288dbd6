/**
 * @file
 * Tests of the lp::obs observability layer: JSON round-trips, metric
 * arithmetic, phase-timer nesting, and LP_LOG filtering.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "prof/phase.hpp"
#include "support/text.hpp" // strf, used by the LP_LOG_* macros

namespace lp::obs {
namespace {

/** RAII: force metrics on and clean up global obs state afterwards. */
class ObsSandbox
{
  public:
    ObsSandbox()
        : savedLevel_(logLevel()), savedMetrics_(metricsOn())
    {
        Registry::instance().resetAll();
        prof::PhaseTree::instance().reset();
        setMetricsEnabled(true);
    }
    ~ObsSandbox()
    {
        setMetricsEnabled(savedMetrics_);
        setLogLevel(savedLevel_);
        setLogStream(nullptr);
        Registry::instance().resetAll();
        prof::PhaseTree::instance().reset();
    }

  private:
    Level savedLevel_;
    bool savedMetrics_;
};

// ----------------------------------------------------------------- JSON

TEST(Json, DumpAndParseRoundTrip)
{
    Json doc = Json::object();
    doc.set("int", std::int64_t{-42});
    doc.set("big", std::uint64_t{1'234'567'890'123ULL});
    doc.set("dbl", 2.5);
    doc.set("str", "quote \" backslash \\ newline \n tab \t");
    doc.set("flag", true);
    doc.set("nothing", Json());
    Json arr = Json::array();
    arr.push(1).push("two").push(3.0);
    doc.set("arr", std::move(arr));
    Json inner = Json::object();
    inner.set("k", "v");
    doc.set("obj", std::move(inner));

    for (int indent : {-1, 2}) {
        std::string err;
        Json back = Json::parse(doc.dump(indent), &err);
        ASSERT_TRUE(err.empty()) << err;
        EXPECT_EQ(back.at("int").asInt(), -42);
        EXPECT_EQ(back.at("big").asU64(), 1'234'567'890'123ULL);
        EXPECT_DOUBLE_EQ(back.at("dbl").asDouble(), 2.5);
        EXPECT_EQ(back.at("str").asString(),
                  "quote \" backslash \\ newline \n tab \t");
        EXPECT_TRUE(back.at("flag").asBool());
        EXPECT_TRUE(back.at("nothing").isNull());
        EXPECT_EQ(back.at("arr").size(), 3u);
        EXPECT_EQ(back.at("arr").at(1).asString(), "two");
        EXPECT_EQ(back.at("obj").at("k").asString(), "v");
    }
}

TEST(Json, ParseRejectsMalformedInput)
{
    for (const char *bad :
         {"{", "[1,]", "{\"a\":}", "tru", "{\"a\" 1}", "[1 2]", "\"x"}) {
        std::string err;
        Json v = Json::parse(bad, &err);
        EXPECT_FALSE(err.empty()) << "accepted: " << bad;
    }
}

TEST(Json, PreservesKeyInsertionOrder)
{
    Json doc = Json::object();
    doc.set("zebra", 1);
    doc.set("alpha", 2);
    doc.set("zebra", 3); // overwrite keeps the original position
    EXPECT_EQ(doc.dump(), "{\"zebra\":3,\"alpha\":2}");
}

// -------------------------------------------------------------- metrics

TEST(Metrics, CounterArithmetic)
{
    ObsSandbox sandbox;
    Counter &c = Registry::instance().counter("test.ctr");
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    // Same name yields the same counter.
    EXPECT_EQ(&Registry::instance().counter("test.ctr"), &c);
    Registry::instance().resetAll();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, SnapshotIsValidJson)
{
    ObsSandbox sandbox;
    Registry &reg = Registry::instance();
    reg.counter("snap.ctr").add(7);

    std::string err;
    Json back = Json::parse(reg.toJson().dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;
    // The registry holds counters only.
    EXPECT_EQ(back.keys(), std::vector<std::string>{"counters"});
    EXPECT_EQ(back.at("counters").at("snap.ctr").asU64(), 7u);
}

// --------------------------------------------------------------- timers

TEST(Timers, NestingBuildsATree)
{
    ObsSandbox sandbox;
    {
        prof::ScopedPhase outer("outer");
        {
            prof::ScopedPhase inner("inner");
            inner.addInstructions(100);
        }
        {
            prof::ScopedPhase inner("inner"); // merges with the above
        }
        prof::ScopedPhase sibling("sibling");
    }
    {
        prof::ScopedPhase outer("outer"); // second completion, same node
    }

    const prof::PhaseNode &root = prof::PhaseTree::instance().root();
    ASSERT_EQ(root.children.size(), 1u);
    const prof::PhaseNode &outer = *root.children[0];
    EXPECT_EQ(outer.name, "outer");
    EXPECT_EQ(outer.count, 2u);
    ASSERT_EQ(outer.children.size(), 2u);
    EXPECT_EQ(outer.children[0]->name, "inner");
    EXPECT_EQ(outer.children[0]->count, 2u);
    EXPECT_EQ(outer.children[0]->instructions, 100u);
    EXPECT_EQ(outer.children[1]->name, "sibling");

    std::string err;
    Json json =
        Json::parse(prof::PhaseTree::instance().toJson().dump(), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(json.at(0).at("name").asString(), "outer");
    EXPECT_EQ(json.at(0).at("children").at(0).at("instructions").asU64(),
              100u);
}

// -------------------------------------------------------------- logging

TEST(Log, LevelParsingAndNames)
{
    EXPECT_EQ(parseLevel("off"), Level::Off);
    EXPECT_EQ(parseLevel("error"), Level::Error);
    EXPECT_EQ(parseLevel("info"), Level::Info);
    EXPECT_EQ(parseLevel("debug"), Level::Debug);
    EXPECT_EQ(parseLevel("nonsense"), Level::Off);
    EXPECT_STREQ(levelName(Level::Debug), "debug");
}

TEST(Log, LevelFiltersMessages)
{
    ObsSandbox sandbox;
    std::ostringstream captured;
    setLogStream(&captured);

    setLogLevel(Level::Info);
    LP_LOG_ERROR("e1");
    LP_LOG_INFO("i1");
    LP_LOG_DEBUG("d1"); // suppressed
    setLogLevel(Level::Off);
    LP_LOG_ERROR("e2"); // suppressed
    logMessage(Level::Error, "forced", /*force=*/true);

    std::string out = captured.str();
    EXPECT_NE(out.find("[lp:error] e1"), std::string::npos);
    EXPECT_NE(out.find("[lp:info] i1"), std::string::npos);
    EXPECT_EQ(out.find("d1"), std::string::npos);
    EXPECT_EQ(out.find("e2"), std::string::npos);
    EXPECT_NE(out.find("forced"), std::string::npos);
}

} // namespace
} // namespace lp::obs
