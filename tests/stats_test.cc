/**
 * @file
 * Unit tests for the statistics package and the table formatting used
 * by the experiment harness.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/stats.hh"
#include "harness/table.hh"

namespace wisc {
namespace {

TEST(StatsTest, CounterBasics)
{
    StatSet s;
    Counter &c = s.counter("a.b", "a counter");
    ++c;
    c += 5;
    EXPECT_EQ(s.get("a.b"), 6u);
    EXPECT_TRUE(s.record().stats.count("a.b"));
    EXPECT_FALSE(s.record().stats.count("nope"));
    EXPECT_EQ(s.get("nope"), 0u);
}

TEST(StatsTest, CounterIsStableAcrossRegistrations)
{
    StatSet s;
    Counter &c1 = s.counter("x");
    ++c1;
    Counter &c2 = s.counter("x");
    EXPECT_EQ(&c1, &c2);
    EXPECT_EQ(c2, 1u);
}

TEST(StatsTest, RequireIsCheckedLookup)
{
    StatSet s;
    s.counter("core.cycles") += 42;
    EXPECT_EQ(s.record().require<Counter>("core.cycles"), 42u);
    // A misspelled name is a hard error, never a plausible zero.
    EXPECT_THROW(s.record().require<Counter>("core.cycels"), FatalError);
}

TEST(StatsTest, RequireNamesTheActualKindOnMismatch)
{
    StatSet s;
    s.counter("c");
    s.histogram("h", 4);
    s.table("t", {"a", "b"});
    // Reading a statistic with the wrong kind is a typed error that
    // names what the statistic actually is.
    const StatRecord &r = s.record();
    EXPECT_THROW(r.require<Histogram>("c"), FatalError);
    EXPECT_THROW(r.require<Counter>("h"), FatalError);
    EXPECT_THROW(r.require<Counter>("t"), FatalError);
    EXPECT_THROW(r.require<StatTable>("h"), FatalError);
    try {
        r.require<Counter>("h");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("histogram"), std::string::npos) << msg;
        EXPECT_NE(msg.find("counter"), std::string::npos) << msg;
    }
}

TEST(StatsTest, CrossKindRegistrationIsRejected)
{
    StatSet s;
    s.counter("x");
    EXPECT_THROW(s.histogram("x", 4), FatalError);
    EXPECT_THROW(s.table("x", {"a"}), FatalError);
}

TEST(StatsTest, ZeroBucketHistogramIsRejected)
{
    StatSet s;
    EXPECT_THROW(s.histogram("h", 0), FatalError);
    EXPECT_THROW(Histogram(0), FatalError);
}

TEST(StatsTest, UnconfiguredHistogramSamplePanics)
{
    Histogram h; // container-placeholder state, no geometry
    EXPECT_DEATH(h.sample(1), "unconfigured histogram");
}

TEST(StatsTest, RequireHistogramIsCheckedLookup)
{
    StatSet s;
    s.histogram("h", 4).sample(2);
    EXPECT_EQ(s.record().require<Histogram>("h").count(), 1u);
    EXPECT_THROW(s.record().require<Histogram>("nope"), FatalError);
    const auto &hists = s.record().hists;
    ASSERT_EQ(hists.size(), 1u);
    EXPECT_EQ(hists.begin()->first, "h");
}

TEST(StatsTest, TableBasics)
{
    StatSet s;
    StatTable &t = s.table("bp", {"count", "mispred"}, "per-PC profile");
    t.row(0x40)[0] += 3;
    t.row(0x40)[1] += 1;
    t.row(0x80)[0] += 7;
    EXPECT_EQ(t.numRows(), 2u);
    ASSERT_EQ(t.columns().size(), 2u);
    EXPECT_EQ(t.columns()[1], "mispred");
    EXPECT_EQ(t.rows().at(0x40)[0], 3u);
    EXPECT_EQ(t.rows().at(0x40)[1], 1u);
    EXPECT_EQ(t.rows().at(0x80)[0], 7u);
    EXPECT_EQ(t.rows().at(0x80)[1], 0u) << "rows start zero-filled";

    // Registration is idempotent and stable, like counters.
    EXPECT_EQ(&s.table("bp", {"count", "mispred"}), &t);
    EXPECT_EQ(s.record().require<StatTable>("bp").numRows(), 2u);
    const auto &tables = s.record().tables;
    ASSERT_EQ(tables.size(), 1u);
    EXPECT_EQ(tables.begin()->first, "bp");
}

TEST(StatsTest, ZeroColumnTableIsRejected)
{
    StatSet s;
    EXPECT_THROW(s.table("t", {}), FatalError);
}

TEST(StatsTest, HistogramBucketsAndOverflow)
{
    StatSet s;
    Histogram &h = s.histogram("h", 4);
    h.sample(0);
    h.sample(3);
    h.sample(3);
    h.sample(99); // overflow bucket
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[3], 2u);
    EXPECT_EQ(h.buckets()[4], 1u);
}

TEST(StatsTest, DumpContainsNamesAndValues)
{
    StatSet s;
    s.counter("core.cycles", "cycles") += 42;
    std::ostringstream os;
    s.dump(os);
    EXPECT_NE(os.str().find("core.cycles"), std::string::npos);
    EXPECT_NE(os.str().find("42"), std::string::npos);
}

TEST(StatsTest, CounterNamesSorted)
{
    StatSet s;
    s.counter("b");
    s.counter("a");
    auto names = s.counterNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a");
    EXPECT_EQ(names[1], "b");
}

TEST(TableTest, AlignsColumns)
{
    Table t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longername", "2.345"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("longername"), std::string::npos);
    EXPECT_NE(out.find("value"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TableTest, NumFormatsPrecision)
{
    EXPECT_EQ(Table::num(1.23456, 3), "1.235");
    EXPECT_EQ(Table::num(2.0, 1), "2.0");
    EXPECT_EQ(Table::num(-0.5, 2), "-0.50");
}

} // namespace
} // namespace wisc
