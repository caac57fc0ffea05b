/**
 * @file
 * Tests for the JSON document model and the harness result emitter:
 * value semantics, writer/parser round-trips, and the BENCH_*.json
 * schema (counters, histograms, and the normalized matrix survive a
 * round-trip exactly).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "common/json.hh"
#include "common/log.hh"
#include "harness/json_writer.hh"
#include "json_parse.hh"

namespace wisc {
namespace {

TEST(JsonValueTest, ScalarKindsAndAccessors)
{
    EXPECT_TRUE(json::Value().isNull());
    EXPECT_TRUE(json::Value(true).asBool());
    EXPECT_EQ(json::Value(std::uint64_t(42)).asUint(), 42u);
    EXPECT_EQ(json::Value(-7).asInt(), -7);
    EXPECT_DOUBLE_EQ(json::Value(1.5).asDouble(), 1.5);
    EXPECT_EQ(json::Value("hi").asString(), "hi");
    // Cross-kind numeric access works where lossless...
    EXPECT_EQ(json::Value(7).asUint(), 7u);
    EXPECT_DOUBLE_EQ(json::Value(std::uint64_t(3)).asDouble(), 3.0);
    // ...and is a hard error otherwise.
    EXPECT_THROW(json::Value("x").asUint(), FatalError);
    EXPECT_THROW(json::Value(-1).asUint(), FatalError);
}

TEST(JsonValueTest, ObjectPreservesInsertionOrder)
{
    json::Value v = json::Value::object();
    v["zebra"] = 1;
    v["apple"] = 2;
    v["zebra"] = 3; // update in place, not reorder
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v.members()[0].first, "zebra");
    EXPECT_EQ(v.members()[1].first, "apple");
    EXPECT_EQ(v.at("zebra").asInt(), 3);
    EXPECT_EQ(v.find("missing"), nullptr);
    EXPECT_THROW(v.at("missing"), FatalError);
}

TEST(JsonValueTest, Uint64RoundTripsExactly)
{
    // Values a double cannot represent must survive dump+parse.
    const std::uint64_t big = 0xffffffffffffffffull;
    const std::uint64_t odd = (1ull << 53) + 1;
    json::Value v = json::Value::object();
    v["big"] = big;
    v["odd"] = odd;
    json::Value back = json::parse(v.dump());
    EXPECT_EQ(back.at("big").asUint(), big);
    EXPECT_EQ(back.at("odd").asUint(), odd);
}

TEST(JsonValueTest, DoubleRoundTripsExactly)
{
    json::Value v = json::Value::array();
    v.push(0.1);
    v.push(1.0 / 3.0);
    v.push(-2.5e-300);
    json::Value back = json::parse(v.dump());
    EXPECT_EQ(back.at(std::size_t(0)).asDouble(), 0.1);
    EXPECT_EQ(back.at(std::size_t(1)).asDouble(), 1.0 / 3.0);
    EXPECT_EQ(back.at(std::size_t(2)).asDouble(), -2.5e-300);
}

TEST(JsonValueTest, StringEscaping)
{
    json::Value v = json::Value::object();
    v["k"] = std::string("a\"b\\c\nd\te\x01f");
    json::Value back = json::parse(v.dump());
    EXPECT_EQ(back.at("k").asString(), "a\"b\\c\nd\te\x01f");
}

TEST(JsonParseTest, AcceptsStandardDocument)
{
    json::Value v = json::parse(
        "  { \"a\": [1, -2, 3.5, true, false, null],\n"
        "    \"b\": { \"nested\": \"\\u0041\\u00e9\" } } ");
    EXPECT_EQ(v.at("a").size(), 6u);
    EXPECT_EQ(v.at("a").at(std::size_t(0)).asUint(), 1u);
    EXPECT_EQ(v.at("a").at(std::size_t(1)).asInt(), -2);
    EXPECT_TRUE(v.at("a").at(std::size_t(4)).kind() ==
                json::Value::Kind::Bool);
    EXPECT_TRUE(v.at("a").at(std::size_t(5)).isNull());
    EXPECT_EQ(v.at("b").at("nested").asString(), "A\xc3\xa9");
}

TEST(JsonParseTest, RejectsMalformedInput)
{
    EXPECT_THROW(json::parse(""), FatalError);
    EXPECT_THROW(json::parse("{"), FatalError);
    EXPECT_THROW(json::parse("[1,]"), FatalError);
    EXPECT_THROW(json::parse("{\"a\":1} trailing"), FatalError);
    EXPECT_THROW(json::parse("tru"), FatalError);
    EXPECT_THROW(json::parse("'single'"), FatalError);
}

RunOutcome
makeOutcome(std::uint64_t cycles)
{
    RunOutcome r;
    r.result.halted = true;
    r.result.cycles = cycles;
    r.result.retiredUops = 2 * cycles;
    r.result.resultReg = 99;
    r.stats["core.cycles"] = cycles;
    r.stats["core.branch_mispredicts"] = 17;
    Histogram &h = r.hists["core.fetch_width"] = Histogram(3);
    for (std::size_t v : {0, 0, 0, 0, 0, 2, 2, 2, 3})
        h.sample(v); // buckets 5, 0, 3 and one overflow
    return r;
}

TEST(JsonWriterTest, RunOutcomeSchemaRoundTrips)
{
    RunOutcome r = makeOutcome(1000);
    json::Value back = json::parse(toJson(r).dump());

    EXPECT_TRUE(back.at("halted").asBool());
    EXPECT_EQ(back.at("cycles").asUint(), 1000u);
    EXPECT_EQ(back.at("retired_uops").asUint(), 2000u);
    EXPECT_DOUBLE_EQ(back.at("ipc").asDouble(), 2.0);
    EXPECT_EQ(back.at("counters").at("core.cycles").asUint(), 1000u);
    EXPECT_EQ(back.at("counters").at("core.branch_mispredicts").asUint(),
              17u);

    const json::Value &h =
        back.at("histograms").at("core.fetch_width");
    EXPECT_EQ(h.at("count").asUint(), 9u);
    ASSERT_EQ(h.at("buckets").size(), 4u);
    EXPECT_EQ(h.at("buckets").at(std::size_t(0)).asUint(), 5u);
    EXPECT_EQ(h.at("buckets").at(std::size_t(2)).asUint(), 3u);

    // Table-free runs must not grow a "tables" key (document schema
    // stays byte-compatible with pre-attribution emitters).
    EXPECT_EQ(back.find("tables"), nullptr);
}

TEST(JsonWriterTest, RunOutcomeTablesSectionRoundTrips)
{
    RunOutcome r = makeOutcome(10);
    StatTable &t = r.tables["core.branch_profile"] =
        StatTable({"count", "mispred"});
    t.row(0x40) = {7, 2};
    t.row(0x80) = {3, 0};

    json::Value back = json::parse(toJson(r).dump());
    const json::Value &bp = back.at("tables").at("core.branch_profile");
    EXPECT_EQ(bp.at("columns").at(std::size_t(1)).asString(), "mispred");
    ASSERT_EQ(bp.at("rows").size(), 2u);
    const json::Value &row = bp.at("rows").at(std::size_t(0));
    EXPECT_EQ(row.at("key").asUint(), 0x40u);
    EXPECT_EQ(row.at("values").at(std::size_t(0)).asUint(), 7u);
    EXPECT_EQ(row.at("values").at(std::size_t(1)).asUint(), 2u);
}

TEST(JsonWriterTest, NormalizedResultsSchemaRoundTrips)
{
    NormalizedResults r;
    r.benchmarks = {"gzip", "mcf"};
    r.seriesLabels = {"BASE-DEF", "wish-jjl"};
    r.relTime = {{0.9, 0.8}, {2.0, 1.0}};
    r.avg = {1.45, 0.9};
    r.avgNoMcf = {0.9, 0.8};
    r.baseline = {makeOutcome(100), makeOutcome(200)};
    r.outcomes = {{makeOutcome(90), makeOutcome(80)},
                  {makeOutcome(400), makeOutcome(200)}};

    json::Value back = json::parse(toJson(r).dump());

    EXPECT_EQ(back.at("benchmarks").at(std::size_t(1)).asString(), "mcf");
    EXPECT_EQ(back.at("series").at(std::size_t(0)).asString(),
              "BASE-DEF");
    EXPECT_EQ(back.at("rel_time")
                  .at(std::size_t(1))
                  .at(std::size_t(0))
                  .asDouble(),
              2.0);
    EXPECT_EQ(back.at("avg").at(std::size_t(0)).asDouble(), 1.45);
    EXPECT_EQ(back.at("avg_nomcf").at(std::size_t(1)).asDouble(), 0.8);

    ASSERT_EQ(back.at("runs").size(), 2u);
    const json::Value &run0 = back.at("runs").at(std::size_t(0));
    EXPECT_EQ(run0.at("benchmark").asString(), "gzip");
    EXPECT_EQ(run0.at("baseline").at("cycles").asUint(), 100u);
    ASSERT_EQ(run0.at("series").size(), 2u);
    EXPECT_EQ(run0.at("series").at(std::size_t(1)).at("cycles").asUint(),
              80u);
}

TEST(JsonWriterTest, TableExport)
{
    Table t({"benchmark", "value"});
    t.addRow({"gzip", "1.25"});
    json::Value back = json::parse(toJson(t).dump());
    EXPECT_EQ(back.at("headers").at(std::size_t(0)).asString(),
              "benchmark");
    EXPECT_EQ(back.at("rows").at(std::size_t(0)).at(std::size_t(1))
                  .asString(),
              "1.25");
}

} // namespace
} // namespace wisc
