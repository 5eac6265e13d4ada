/**
 * @file
 * Tests for obs::StatsHistory: recording snapshots into per-series
 * rings, retention by count / age / bytes, windowed order statistics
 * against hand-computed goldens on a fake (explicit) clock,
 * delta-encoded counter rates including reset handling, and
 * concurrent record/query through common::ThreadPool.
 */

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "satori/common/parallel.hpp"
#include "satori/obs/stats_history.hpp"

namespace satori {
namespace obs {
namespace {

using Facts = std::vector<std::pair<std::string, double>>;

/** A minimal snapshot with one counter and one gauge. */
MetricsSnapshot
makeSnap(std::uint64_t counter_value, double gauge_value)
{
    MetricsSnapshot snap;
    snap.counters.push_back({"test.counter", "help", counter_value});
    snap.gauges.push_back({"test.gauge", "help", gauge_value});
    return snap;
}

/** Enable with the given retention options. */
StatsHistoryOptions
opts(std::size_t capacity, double max_age = 0.0, std::size_t max_bytes = 0)
{
    StatsHistoryOptions o;
    o.capacity = capacity;
    o.max_age_seconds = max_age;
    o.max_bytes = max_bytes;
    return o;
}

// --- Recording basics -------------------------------------------------

TEST(StatsHistoryTest, DisabledRecordIsNoOp)
{
    StatsHistory history;
    EXPECT_FALSE(history.enabled());
    history.record(1.0, 0, makeSnap(1, 2.0), {});
    EXPECT_EQ(history.snapshots(), 0u);
    EXPECT_TRUE(history.seriesNames().empty());
}

TEST(StatsHistoryTest, RecordsCountersGaugesAndFacts)
{
    StatsHistory history;
    history.setEnabled(true);
    history.record(0.1, 0, makeSnap(3, 1.5),
                   Facts{{"facts.throughput", 4.0}});

    const auto names = history.seriesNames();
    ASSERT_EQ(names.size(), 3u);
    // std::map ordering: facts.* < test.*.
    EXPECT_EQ(names[0], "facts.throughput");
    EXPECT_EQ(names[1], "test.counter");
    EXPECT_EQ(names[2], "test.gauge");

    EXPECT_EQ(history.seriesKind("test.counter"), SeriesKind::Counter);
    EXPECT_EQ(history.seriesKind("test.gauge"), SeriesKind::Gauge);
    EXPECT_EQ(history.seriesKind("facts.throughput"), SeriesKind::Gauge);
    EXPECT_FALSE(history.seriesKind("nope").has_value());

    ASSERT_TRUE(history.latest("test.counter").has_value());
    EXPECT_DOUBLE_EQ(*history.latest("test.counter"), 3.0);
    EXPECT_DOUBLE_EQ(*history.latest("facts.throughput"), 4.0);
    EXPECT_FALSE(history.latest("nope").has_value());
    EXPECT_EQ(history.snapshots(), 1u);
}

TEST(StatsHistoryTest, HistogramsContributeCountAndSumSeries)
{
    MetricsSnapshot snap;
    HistogramSample h;
    h.name = "test.histo";
    h.help = "help";
    h.bounds = {1.0};
    h.counts = {2, 1};
    h.count = 3;
    h.sum = 4.5;
    snap.histograms.push_back(h);

    StatsHistory history;
    history.setEnabled(true);
    history.record(1.0, 0, snap, {});

    EXPECT_EQ(history.seriesKind("test.histo.count"), SeriesKind::Counter);
    EXPECT_EQ(history.seriesKind("test.histo.sum"), SeriesKind::Counter);
    EXPECT_DOUBLE_EQ(*history.latest("test.histo.count"), 3.0);
    EXPECT_DOUBLE_EQ(*history.latest("test.histo.sum"), 4.5);
}

// --- Retention --------------------------------------------------------

TEST(StatsHistoryTest, RetentionByCapacityEvictsOldest)
{
    StatsHistory history;
    history.configure(opts(3));
    history.setEnabled(true);
    for (std::uint64_t i = 0; i < 5; ++i)
        history.record(static_cast<double>(i), i,
                       makeSnap(i, static_cast<double>(i)), {});

    EXPECT_EQ(history.snapshots(), 3u);
    EXPECT_EQ(history.evicted(), 2u);
    const auto points = history.range("test.gauge", 0.0, 100.0);
    ASSERT_EQ(points.size(), 3u);
    EXPECT_EQ(points.front().interval, 2u);
    EXPECT_EQ(points.back().interval, 4u);
}

TEST(StatsHistoryTest, RetentionByAgeDropsStalePoints)
{
    StatsHistory history;
    history.configure(opts(0, /*max_age=*/5.0));
    history.setEnabled(true);
    // Fake clock: explicit times 0, 2, 4, ..., 12.
    for (std::uint64_t i = 0; i <= 6; ++i)
        history.record(static_cast<double>(2 * i), i, makeSnap(i, 0.0), {});

    // Newest is t=12; ages within 5 s are t in [7, 12] -> t=8,10,12.
    EXPECT_EQ(history.snapshots(), 3u);
    const auto points = history.range("test.counter", 0.0, 100.0);
    ASSERT_EQ(points.size(), 3u);
    EXPECT_DOUBLE_EQ(points.front().time, 8.0);
}

TEST(StatsHistoryTest, RetentionByBytesBoundsApproxBytes)
{
    StatsHistory history;
    history.configure(opts(0, 0.0, /*max_bytes=*/512));
    history.setEnabled(true);
    for (std::uint64_t i = 0; i < 200; ++i)
        history.record(static_cast<double>(i), i,
                       makeSnap(i, static_cast<double>(i)), {});

    EXPECT_GT(history.evicted(), 0u);
    EXPECT_LE(history.approxBytes(), 512u);
    EXPECT_GE(history.snapshots(), 1u);
}

TEST(StatsHistoryTest, RetentionNeverEvictsTheNewestSnapshot)
{
    StatsHistory history;
    // A byte budget far below one snapshot's cost still keeps one row.
    history.configure(opts(0, 0.0, /*max_bytes=*/1));
    history.setEnabled(true);
    history.record(1.0, 0, makeSnap(1, 1.0), {});
    history.record(2.0, 1, makeSnap(2, 2.0), {});
    EXPECT_EQ(history.snapshots(), 1u);
    EXPECT_DOUBLE_EQ(*history.latest("test.counter"), 2.0);
}

TEST(StatsHistoryTest, ClearDropsEverything)
{
    StatsHistory history;
    history.configure(opts(2));
    history.setEnabled(true);
    for (std::uint64_t i = 0; i < 4; ++i)
        history.record(static_cast<double>(i), i, makeSnap(i, 0.0), {});
    history.clear();
    EXPECT_EQ(history.snapshots(), 0u);
    EXPECT_EQ(history.evicted(), 0u);
    EXPECT_TRUE(history.seriesNames().empty());
    EXPECT_EQ(history.approxBytes(), 0u);
}

// --- Windowed queries -------------------------------------------------

TEST(StatsHistoryTest, RangeAndLastNSliceByTimeAndCount)
{
    StatsHistory history;
    history.setEnabled(true);
    for (std::uint64_t i = 0; i < 10; ++i)
        history.record(static_cast<double>(i), i,
                       makeSnap(i, static_cast<double>(10 * i)), {});

    const auto mid = history.range("test.gauge", 3.0, 6.0);
    ASSERT_EQ(mid.size(), 4u);
    EXPECT_DOUBLE_EQ(mid.front().value, 30.0);
    EXPECT_DOUBLE_EQ(mid.back().value, 60.0);

    const auto tail = history.lastN("test.gauge", 3);
    ASSERT_EQ(tail.size(), 3u);
    EXPECT_EQ(tail.front().interval, 7u); // Oldest-first.
    EXPECT_EQ(tail.back().interval, 9u);

    // n larger than retained -> everything; unknown series -> empty.
    EXPECT_EQ(history.lastN("test.gauge", 99).size(), 10u);
    EXPECT_TRUE(history.lastN("nope", 3).empty());
    EXPECT_TRUE(history.range("test.gauge", 20.0, 30.0).empty());
}

TEST(StatsHistoryTest, WindowStatsMatchHandComputedGoldens)
{
    StatsHistory history;
    history.setEnabled(true);
    // Fake clock 0..9 s; gauge values 1, 2, ..., 10.
    for (std::uint64_t i = 0; i < 10; ++i)
        history.record(static_cast<double>(i), i,
                       makeSnap(0, static_cast<double>(i + 1)), {});

    // Full window: values 1..10.
    const auto all = history.windowStats("test.gauge", 0.0);
    ASSERT_TRUE(all.has_value());
    EXPECT_EQ(all->count, 10u);
    EXPECT_DOUBLE_EQ(all->min, 1.0);
    EXPECT_DOUBLE_EQ(all->max, 10.0);
    EXPECT_DOUBLE_EQ(all->mean, 5.5);
    // Nearest rank: p50 -> ceil(0.50*10)=5th -> 5; p95 -> 10th -> 10.
    EXPECT_DOUBLE_EQ(all->p50, 5.0);
    EXPECT_DOUBLE_EQ(all->p95, 10.0);

    // Trailing 4 s from t=9 -> t in [5, 9] -> values 6..10.
    const auto tail = history.windowStats("test.gauge", 4.0);
    ASSERT_TRUE(tail.has_value());
    EXPECT_EQ(tail->count, 5u);
    EXPECT_DOUBLE_EQ(tail->min, 6.0);
    EXPECT_DOUBLE_EQ(tail->mean, 8.0);
    EXPECT_DOUBLE_EQ(tail->p50, 8.0);

    EXPECT_FALSE(history.windowStats("nope", 0.0).has_value());
}

TEST(StatsHistoryTest, CounterRatesAreDeltasPerSecond)
{
    StatsHistory history;
    history.setEnabled(true);
    // t: 0, 2, 4; counter: 10, 30, 35 -> rates 10/s @t=2, 2.5/s @t=4.
    history.record(0.0, 0, makeSnap(10, 0.0), {});
    history.record(2.0, 1, makeSnap(30, 0.0), {});
    history.record(4.0, 2, makeSnap(35, 0.0), {});

    const auto rates = history.counterRates("test.counter", 0.0);
    ASSERT_EQ(rates.size(), 2u);
    EXPECT_DOUBLE_EQ(rates[0].time, 2.0);
    EXPECT_DOUBLE_EQ(rates[0].value, 10.0);
    EXPECT_DOUBLE_EQ(rates[1].time, 4.0);
    EXPECT_DOUBLE_EQ(rates[1].value, 2.5);

    // Gauges and unknown series yield no rates.
    EXPECT_TRUE(history.counterRates("test.gauge", 0.0).empty());
    EXPECT_TRUE(history.counterRates("nope", 0.0).empty());
}

TEST(StatsHistoryTest, CounterResetYieldsZeroRateNotNegative)
{
    StatsHistory history;
    history.setEnabled(true);
    history.record(0.0, 0, makeSnap(100, 0.0), {});
    history.record(1.0, 1, makeSnap(5, 0.0), {}); // Reset.
    history.record(2.0, 2, makeSnap(9, 0.0), {});

    const auto rates = history.counterRates("test.counter", 0.0);
    ASSERT_EQ(rates.size(), 2u);
    EXPECT_DOUBLE_EQ(rates[0].value, 0.0); // Not -95.
    EXPECT_DOUBLE_EQ(rates[1].value, 4.0);
}

TEST(StatsHistoryTest, ToJsonIsDeterministic)
{
    StatsHistory history;
    history.setEnabled(true);
    history.record(1.0, 0, makeSnap(2, 0.5), Facts{{"facts.objective", 1.0}});

    const std::string json = history.toJson();
    EXPECT_NE(json.find("\"snapshots\":1"), std::string::npos);
    EXPECT_NE(json.find("\"evicted\":0"), std::string::npos);
    EXPECT_NE(json.find("\"test.counter\":{\"kind\":\"counter\""),
              std::string::npos);
    EXPECT_NE(json.find("\"test.gauge\":{\"kind\":\"gauge\""),
              std::string::npos);
    EXPECT_EQ(json, history.toJson()); // Stable across calls.
}

// --- Concurrency ------------------------------------------------------

TEST(StatsHistoryTest, ConcurrentRecordAndQueryStaysConsistent)
{
    StatsHistory history;
    history.configure(opts(64));
    history.setEnabled(true);

    // Workers 0..1 record disjoint interval ranges; workers 2..3
    // hammer queries. The test asserts no crash/tear and that the
    // retained point count respects the ring capacity afterwards.
    common::ThreadPool pool(4);
    std::atomic<bool> failed{false};
    pool.forEachIndex(4, [&](std::size_t worker) {
        if (worker < 2) {
            for (std::uint64_t i = 0; i < 200; ++i) {
                const std::uint64_t interval = worker * 200 + i;
                history.record(static_cast<double>(interval), interval,
                               makeSnap(interval, 1.0), {});
            }
        } else {
            for (int i = 0; i < 200; ++i) {
                const auto points = history.lastN("test.counter", 8);
                if (points.size() > 8)
                    failed = true;
                (void)history.windowStats("test.gauge", 16.0);
                (void)history.toJson();
            }
        }
    });

    EXPECT_FALSE(failed.load());
    EXPECT_LE(history.snapshots(), 64u);
    EXPECT_GE(history.snapshots(), 1u);
    EXPECT_EQ(history.snapshots() + history.evicted(), 400u);
}

} // namespace
} // namespace obs
} // namespace satori
