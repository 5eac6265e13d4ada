/**
 * @file
 * Tests for the configurable multi-goal objective (Sec. III-B, Eq. 2)
 * and the per-goal record keeping that supports dynamic reweighting.
 */

#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "satori/common/logging.hpp"
#include "satori/common/rng.hpp"
#include "satori/core/goal_record.hpp"
#include "satori/core/objective.hpp"

namespace satori {
namespace core {
namespace {

sim::IntervalObservation
observation()
{
    sim::IntervalObservation obs;
    obs.ips = {2.0, 1.0};
    obs.isolation_ips = {4.0, 4.0};
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 4);
    obs.config = Configuration::equalPartition(p, 2);
    return obs;
}

TEST(ObjectiveTest, GoalValuesAreNormalized)
{
    const ObjectiveSpec spec;
    const auto goals = spec.goalValues(observation());
    ASSERT_EQ(goals.size(), 2u);
    for (double g : goals) {
        EXPECT_GE(g, 0.0);
        EXPECT_LE(g, 1.0);
    }
    // Speedups 0.5 and 0.25: throughput = 0.75/2 / iso... = 3/8 scaled.
    EXPECT_GT(goals[0], 0.0);
    // Jain of {0.5, 0.25}.
    EXPECT_NEAR(goals[1], jainFairnessIndex({0.5, 0.25}), 1e-12);
}

TEST(ObjectiveTest, WeightVectorSumsToOne)
{
    const ObjectiveSpec spec;
    const auto w = spec.weightVector(0.7, 0.3);
    ASSERT_EQ(w.size(), 2u);
    EXPECT_NEAR(w[0] + w[1], 1.0, 1e-12);
    EXPECT_NEAR(w[0], 0.7, 1e-12);
}

TEST(ObjectiveTest, CombineIsDotProduct)
{
    EXPECT_DOUBLE_EQ(ObjectiveSpec::combine({0.5, 0.5}, {0.4, 0.8}),
                     0.6);
}

TEST(ObjectiveTest, ExtraGoalGetsFixedShare)
{
    ExtraGoal energy;
    energy.name = "energy";
    energy.weight_share = 0.2;
    energy.evaluator = [](const sim::IntervalObservation&) {
        return 0.9;
    };
    const ObjectiveSpec spec(ThroughputMetric::SumIps,
                             FairnessMetric::JainIndex, {energy});
    EXPECT_EQ(spec.numGoals(), 3u);
    const auto goals = spec.goalValues(observation());
    ASSERT_EQ(goals.size(), 3u);
    EXPECT_DOUBLE_EQ(goals[2], 0.9);
    const auto w = spec.weightVector(0.5, 0.5);
    EXPECT_NEAR(w[0] + w[1] + w[2], 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(w[2], 0.2);
    EXPECT_DOUBLE_EQ(w[0], 0.4); // 0.5 * (1 - 0.2)
}

TEST(ObjectiveTest, ExtraGoalValueIsClamped)
{
    ExtraGoal weird;
    weird.name = "weird";
    weird.weight_share = 0.1;
    weird.evaluator = [](const sim::IntervalObservation&) {
        return 3.7; // out of range
    };
    const ObjectiveSpec spec(ThroughputMetric::SumIps,
                             FairnessMetric::JainIndex, {weird});
    EXPECT_DOUBLE_EQ(spec.goalValues(observation())[2], 1.0);
}

TEST(ObjectiveTest, InvalidExtraGoalsRejected)
{
    ExtraGoal no_eval;
    no_eval.name = "broken";
    no_eval.weight_share = 0.2;
    EXPECT_THROW(ObjectiveSpec(ThroughputMetric::SumIps,
                               FairnessMetric::JainIndex, {no_eval}),
                 FatalError);

    ExtraGoal too_heavy;
    too_heavy.name = "heavy";
    too_heavy.weight_share = 1.5;
    too_heavy.evaluator = [](const sim::IntervalObservation&) {
        return 0.5;
    };
    EXPECT_THROW(ObjectiveSpec(ThroughputMetric::SumIps,
                               FairnessMetric::JainIndex, {too_heavy}),
                 FatalError);
}

Configuration
configOf(int a, int b)
{
    return Configuration(2, {a, b});
}

TEST(GoalRecorderTest, StoresAndCombines)
{
    GoalRecorder rec(2, 10);
    rec.add(configOf(2, 2), {0.4, 0.8});
    rec.add(configOf(3, 1), {0.6, 0.2});
    ASSERT_EQ(rec.size(), 2u);
    const auto y = rec.combined({0.5, 0.5});
    EXPECT_NEAR(y[0], 0.6, 1e-12);
    EXPECT_NEAR(y[1], 0.4, 1e-12);
    // Re-weighting without re-sampling (the Sec. III-B mechanism).
    const auto y2 = rec.combined({1.0, 0.0});
    EXPECT_NEAR(y2[0], 0.4, 1e-12);
    EXPECT_NEAR(y2[1], 0.6, 1e-12);
}

TEST(GoalRecorderTest, WindowEvictsOldest)
{
    GoalRecorder rec(1, 3);
    for (int i = 0; i < 5; ++i)
        rec.add(configOf(1 + i % 2, 3 - i % 2), {0.1 * i});
    EXPECT_EQ(rec.size(), 3u);
    // Oldest remaining sample is i = 2.
    EXPECT_NEAR(rec.sample(0).goals[0], 0.2, 1e-12);
}

TEST(GoalRecorderTest, InputsMatchNormalizedVectors)
{
    GoalRecorder rec(1, 10);
    const Configuration c = configOf(3, 1);
    rec.add(c, {0.5});
    EXPECT_EQ(rec.inputs().front(), c.normalizedVector());
}

TEST(GoalRecorderTest, BestByAverageSmoothsNoise)
{
    GoalRecorder rec(1, 50);
    // Config A: consistently good (0.8). Config B: one lucky 0.95
    // among poor samples.
    for (int i = 0; i < 5; ++i)
        rec.add(configOf(2, 2), {0.8});
    rec.add(configOf(3, 1), {0.95});
    for (int i = 0; i < 4; ++i)
        rec.add(configOf(3, 1), {0.3});
    const std::size_t idx = rec.bestSampleByAveragedObjective({1.0});
    EXPECT_TRUE(rec.sample(idx).config == configOf(2, 2));
}

TEST(GoalRecorderTest, UncertaintyKappaPenalizesSingleSamples)
{
    GoalRecorder rec(1, 50);
    for (int i = 0; i < 8; ++i)
        rec.add(configOf(2, 2), {0.80});
    rec.add(configOf(3, 1), {0.82}); // single, slightly higher
    // Without the discount the single sample wins...
    EXPECT_TRUE(rec.sample(rec.bestSampleByAveragedObjective({1.0}))
                    .config == configOf(3, 1));
    // ...with it, the well-attested config wins.
    EXPECT_TRUE(
        rec.sample(rec.bestSampleByAveragedObjective({1.0}, 0.05))
            .config == configOf(2, 2));
}

TEST(GoalRecorderTest, ExactTieGoesToSmallestRendering)
{
    // "[10,1]" renders before "[9,2]" although 9 < 10: an exact score
    // tie keeps the string-order winner.
    GoalRecorder rec(1, 10);
    rec.add(configOf(9, 2), {0.5});
    rec.add(configOf(10, 1), {0.5});
    rec.add(configOf(9, 2), {0.5});
    EXPECT_EQ(rec.bestSampleByAveragedObjective({1.0}), 1u);
}

TEST(GoalRecorderTest, AllNaNWindowReturnsNewestSample)
{
    // Vanilla SATORI feeds NaN telemetry straight into the recorder;
    // with no comparable score the newest sample stands.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    GoalRecorder rec(2, 10);
    rec.add(configOf(2, 2), {nan, nan});
    rec.add(configOf(3, 1), {nan, 0.5});
    rec.add(configOf(2, 2), {0.5, nan});
    EXPECT_EQ(rec.bestSampleByAveragedObjective({0.5, 0.5}), 2u);
    EXPECT_EQ(rec.bestSampleByAveragedObjective({0.5, 0.5}, 0.04), 2u);
}

/**
 * The string-keyed incumbent selection that grouping by Configuration
 * replaced, kept verbatim as the differential reference.
 */
std::size_t
referenceBestSample(const GoalRecorder& rec,
                    const std::vector<double>& weights,
                    double uncertainty_kappa)
{
    std::map<std::string, std::pair<double, double>> grouped;
    std::map<std::string, std::size_t> latest;
    const std::size_t n = rec.size();
    for (std::size_t i = 0; i < n; ++i) {
        const auto& s = rec.sample(i);
        double y = 0.0;
        for (std::size_t k = 0; k < rec.numGoals(); ++k)
            y += weights[k] * s.goals[k];
        const double recency =
            std::pow(0.97, static_cast<double>(n - 1 - i));
        auto& acc = grouped[s.config.toString()];
        acc.first += recency * y;
        acc.second += recency;
        latest[s.config.toString()] = i;
    }
    std::string best_key;
    double best_score = -2.0;
    for (const auto& [key, acc] : grouped) {
        const double m = acc.first / acc.second;
        const double score =
            m - uncertainty_kappa / std::sqrt(std::max(acc.second, 1e-3));
        if (score > best_score) {
            best_score = score;
            best_key = key;
        }
    }
    return latest.at(best_key);
}

TEST(GoalRecorderTest, BestSampleMatchesStringKeyedReference)
{
    // Two resources of 11 units over 2 jobs, with first units drawn
    // from {1, 2, 9, 10}: renderings like "[10,1|9,2]" and
    // "[9,2|10,1]" order differently as strings and as integers.
    // Half the recorders give every configuration one constant
    // dyadic goal pair, so equal-valued groups tie bitwise (kappa 0).
    const int firsts[] = {1, 2, 9, 10};
    const double dyadic[] = {0.0, 0.25, 0.5, 1.0};
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<std::vector<double>> weight_sets = {
        {0.5, 0.5}, {1.0, 0.0}, {0.7, 0.3}};
    Rng rng(2021);
    for (int trial = 0; trial < 400; ++trial) {
        const bool constant_goals = trial % 2 == 0;
        const std::size_t window = 4 + rng.uniformInt(120);
        GoalRecorder rec(2, window);
        std::map<Configuration, std::vector<double>> fixed;
        const std::size_t adds = 1 + rng.uniformInt(2 * window);
        for (std::size_t i = 0; i < adds; ++i) {
            const int a = firsts[rng.uniformInt(4)];
            const int b = firsts[rng.uniformInt(4)];
            const Configuration c(2, {a, 11 - a, b, 11 - b});
            std::vector<double> goals;
            if (constant_goals) {
                auto [it, fresh] = fixed.try_emplace(c);
                if (fresh)
                    it->second = {dyadic[rng.uniformInt(4)],
                                  dyadic[rng.uniformInt(4)]};
                goals = it->second;
            } else {
                goals = {rng.uniform(), rng.uniform()};
                if (rng.uniformInt(20) == 0)
                    goals[0] = nan; // a NaN group never wins
            }
            rec.add(c, goals);
        }
        for (const auto& w : weight_sets) {
            for (const double kappa : {0.0, 0.04}) {
                // Where every score is NaN the reference throws and
                // the newest sample stands.
                std::size_t want = rec.size() - 1;
                try {
                    want = referenceBestSample(rec, w, kappa);
                } catch (const std::out_of_range&) {
                }
                EXPECT_EQ(rec.bestSampleByAveragedObjective(w, kappa), want)
                    << "trial " << trial << " kappa " << kappa;
            }
        }
    }
}

TEST(GoalRecorderTest, ClearEmpties)
{
    GoalRecorder rec(2, 10);
    rec.add(configOf(2, 2), {0.5, 0.5});
    rec.clear();
    EXPECT_TRUE(rec.empty());
}

} // namespace
} // namespace core
} // namespace satori
