/**
 * @file
 * Tests for the telemetry guard: outlier gating, stale-counter
 * detection, non-finite rejection, size-mismatch handling, the
 * staleness budget / regime-shift acceptance, and the vanilla
 * (disabled) passthrough.
 */

#include <cmath>
#include <limits>
#include <vector>
#include <gtest/gtest.h>

#include "satori/config/configuration.hpp"
#include "satori/config/platform.hpp"
#include "satori/core/telemetry_guard.hpp"

namespace satori {
namespace core {
namespace {

PlatformSpec
tinyPlatform()
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 4);
    p.addResource(ResourceKind::LlcWays, 4);
    return p;
}

/** An observation for 2 jobs under the equal partition. */
sim::IntervalObservation
makeObs(double ips0, double ips1, Seconds time)
{
    sim::IntervalObservation obs;
    obs.time = time;
    obs.config = Configuration::equalPartition(tinyPlatform(), 2);
    obs.ips = {ips0, ips1};
    obs.isolation_ips = {2.0, 2.0};
    return obs;
}

/**
 * Feed @p n clean samples around 1.0 with a small deterministic
 * wobble (bit-identical repeats would look like a frozen counter).
 */
void
warmUp(TelemetryGuard& guard, std::size_t n, Seconds& t)
{
    for (std::size_t i = 0; i < n; ++i) {
        const double wobble = 0.01 * static_cast<double>(i % 3);
        auto obs = makeObs(1.0 + wobble, 1.0 - wobble, t);
        EXPECT_EQ(guard.filter(obs), SampleHealth::Healthy);
        t += 0.1;
    }
}

TEST(TelemetryGuardTest, CleanSamplesPassThroughUntouched)
{
    TelemetryGuard guard(2);
    auto obs = makeObs(1.5, 0.8, 0.1);
    EXPECT_EQ(guard.filter(obs), SampleHealth::Healthy);
    EXPECT_DOUBLE_EQ(obs.ips[0], 1.5);
    EXPECT_DOUBLE_EQ(obs.ips[1], 0.8);
    EXPECT_EQ(guard.stats().repaired_values, 0u);
}

TEST(TelemetryGuardTest, DisabledGuardIsAPassthrough)
{
    TelemetryGuard guard(2, /*enabled=*/false);
    auto obs = makeObs(std::numeric_limits<double>::quiet_NaN(), 0.8,
                       0.1);
    EXPECT_EQ(guard.filter(obs), SampleHealth::Healthy);
    EXPECT_TRUE(std::isnan(obs.ips[0])); // untouched
    EXPECT_EQ(guard.stats().intervals, 0u);
}

TEST(TelemetryGuardTest, NonFiniteValuesAreSubstituted)
{
    TelemetryGuard guard(2);
    Seconds t = 0.1;
    warmUp(guard, 6, t);

    auto obs = makeObs(std::numeric_limits<double>::quiet_NaN(), 1.0, t);
    EXPECT_EQ(guard.filter(obs), SampleHealth::Repaired);
    EXPECT_TRUE(std::isfinite(obs.ips[0]));
    EXPECT_NEAR(obs.ips[0], 1.0, 0.05); // last good level
    EXPECT_GE(guard.stats().non_finite, 1u);
    EXPECT_GE(guard.stats().repaired_values, 1u);
}

TEST(TelemetryGuardTest, DroppedZeroSamplesAreSubstituted)
{
    TelemetryGuard guard(2);
    Seconds t = 0.1;
    warmUp(guard, 6, t);
    auto obs = makeObs(0.0, 1.0, t);
    EXPECT_EQ(guard.filter(obs), SampleHealth::Repaired);
    EXPECT_GT(obs.ips[0], 0.0);
}

TEST(TelemetryGuardTest, SpikeGatedUnderStableConfiguration)
{
    TelemetryGuard guard(2);
    Seconds t = 0.1;
    warmUp(guard, 10, t);

    auto obs = makeObs(8.0, 1.0, t); // 8x spike on job 0
    EXPECT_EQ(guard.filter(obs), SampleHealth::Repaired);
    EXPECT_LT(obs.ips[0], 2.0); // substituted, not 8.0
    EXPECT_GE(guard.stats().outliers_gated, 1u);
}

TEST(TelemetryGuardTest, ReconfigurationJumpIsNotGated)
{
    TelemetryGuard guard(2);
    Seconds t = 0.1;
    warmUp(guard, 10, t);

    // A new allocation legitimately moves the level by a lot; the
    // Hampel gate must stand down for the first sample under it.
    auto obs = makeObs(8.0, 1.0, t);
    obs.config = Configuration::equalPartition(tinyPlatform(), 2);
    obs.config.units(0, 0) += 1;
    obs.config.units(0, 1) -= 1;
    EXPECT_EQ(guard.filter(obs), SampleHealth::Healthy);
    EXPECT_DOUBLE_EQ(obs.ips[0], 8.0);
    EXPECT_EQ(guard.stats().outliers_gated, 0u);
}

TEST(TelemetryGuardTest, FrozenCounterDetectedAfterRun)
{
    TelemetryGuard guard(2);
    Seconds t = 0.1;
    warmUp(guard, 6, t);

    // Deliver the bit-identical value repeatedly; by the third read
    // in a row the stream must be marked stale and substituted.
    bool frozen_seen = false;
    for (int i = 0; i < 5; ++i) {
        auto obs = makeObs(1.2345678, 1.0, t);
        guard.filter(obs);
        t += 0.1;
    }
    frozen_seen = guard.stats().frozen_detected > 0;
    EXPECT_TRUE(frozen_seen);
}

TEST(TelemetryGuardTest, SizeMismatchIsUnusableButKeepsShape)
{
    TelemetryGuard guard(2);
    Seconds t = 0.1;
    warmUp(guard, 3, t);

    sim::IntervalObservation obs = makeObs(1.0, 1.0, t);
    obs.ips = {1.0, 1.0, 1.0}; // three jobs reported, two exist
    EXPECT_EQ(guard.filter(obs), SampleHealth::Unusable);
    ASSERT_EQ(obs.ips.size(), 2u); // repaired to the expected shape
    ASSERT_EQ(obs.isolation_ips.size(), 2u);
    for (const double v : obs.ips)
        EXPECT_TRUE(std::isfinite(v));
    EXPECT_EQ(guard.stats().size_mismatches, 1u);
}

TEST(TelemetryGuardTest, PersistentShiftAcceptedAfterBudget)
{
    TelemetryGuard guard(2);
    Seconds t = 0.1;
    warmUp(guard, 10, t);

    // A genuine regime shift: the level really moved to ~5.0. The
    // guard substitutes for kStalenessBudget intervals, then must
    // accept the new level instead of filtering it forever.
    double delivered = 0.0;
    for (std::size_t i = 0; i < TelemetryGuard::kStalenessBudget + 3;
         ++i) {
        // Both jobs keep wobbling (a bit-identical repeat would look
        // like a frozen counter, which is a different code path).
        const double wobble = 0.01 * static_cast<double>(i % 3);
        auto obs = makeObs(5.0 + wobble, 1.0 - wobble, t);
        guard.filter(obs);
        delivered = obs.ips[0];
        t += 0.1;
    }
    EXPECT_NEAR(delivered, 5.0, 0.1);
    EXPECT_GE(guard.stats().regime_accepts, 1u);

    // And the window follows: the next 5.0-level sample is healthy.
    auto obs = makeObs(5.05, 0.97, t);
    EXPECT_EQ(guard.filter(obs), SampleHealth::Healthy);
}

TEST(TelemetryGuardTest, NonFinitePastBudgetIsUnusable)
{
    TelemetryGuard guard(2);
    Seconds t = 0.1;
    warmUp(guard, 6, t);

    SampleHealth last = SampleHealth::Healthy;
    for (std::size_t i = 0; i < TelemetryGuard::kStalenessBudget + 2;
         ++i) {
        auto obs =
            makeObs(std::numeric_limits<double>::quiet_NaN(), 1.0, t);
        last = guard.filter(obs);
        // Whatever the verdict, the delivered vector stays finite.
        EXPECT_TRUE(std::isfinite(obs.ips[0]));
        t += 0.1;
    }
    EXPECT_EQ(last, SampleHealth::Unusable);
    EXPECT_GE(guard.stats().unusable_intervals, 1u);
}

TEST(TelemetryGuardTest, ResetForgetsHistory)
{
    TelemetryGuard guard(2);
    Seconds t = 0.1;
    warmUp(guard, 8, t);
    guard.reset();
    EXPECT_EQ(guard.stats().intervals, 0u);

    // After reset the window is empty, so a level far from the old
    // one is accepted without gating.
    auto obs = makeObs(42.0, 1.0, t);
    EXPECT_EQ(guard.filter(obs), SampleHealth::Healthy);
    EXPECT_DOUBLE_EQ(obs.ips[0], 42.0);
}

} // namespace
} // namespace core
} // namespace satori
