/**
 * @file
 * Unit and property tests for platforms, configurations, and the
 * configuration-space combinatorics (including the paper's Sec. II
 * search-space-size examples).
 */

#include <map>

#include <cmath>
#include <gtest/gtest.h>

#include "satori/common/logging.hpp"
#include "satori/common/math.hpp"
#include "satori/common/rng.hpp"
#include "satori/config/enumeration.hpp"
#include "satori/config/platform.hpp"

namespace satori {
namespace {

TEST(PlatformTest, PaperTestbedShape)
{
    const PlatformSpec p = PlatformSpec::paperTestbed();
    ASSERT_EQ(p.numResources(), 3u);
    EXPECT_EQ(p.units(0), 10); // cores
    EXPECT_EQ(p.units(1), 11); // LLC ways
    EXPECT_EQ(p.units(2), 10); // MBA steps
    EXPECT_EQ(p.indexOf(ResourceKind::Cores), 0);
    EXPECT_EQ(p.indexOf(ResourceKind::PowerCap), -1);
}

TEST(PlatformTest, DuplicateKindRejected)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 4);
    EXPECT_THROW(p.addResource(ResourceKind::Cores, 8), FatalError);
}

TEST(PlatformTest, ZeroUnitsRejected)
{
    PlatformSpec p;
    EXPECT_THROW(p.addResource(ResourceKind::Cores, 0), FatalError);
}

TEST(PlatformTest, RestrictedToSubset)
{
    const PlatformSpec p = PlatformSpec::paperTestbed();
    const PlatformSpec llc_only =
        p.restrictedTo({ResourceKind::LlcWays});
    ASSERT_EQ(llc_only.numResources(), 1u);
    EXPECT_EQ(llc_only.units(0), 11);
    const PlatformSpec two = p.restrictedTo(
        {ResourceKind::LlcWays, ResourceKind::MemBandwidth});
    EXPECT_EQ(two.numResources(), 2u);
}

TEST(ConfigurationTest, EqualPartitionDistributesRemainders)
{
    const PlatformSpec p = PlatformSpec::paperTestbed();
    const Configuration c = Configuration::equalPartition(p, 4);
    // 10 cores / 4 jobs: 3,3,2,2
    EXPECT_EQ(c.units(0, 0), 3);
    EXPECT_EQ(c.units(0, 1), 3);
    EXPECT_EQ(c.units(0, 2), 2);
    EXPECT_EQ(c.units(0, 3), 2);
    EXPECT_TRUE(c.isValidFor(p, 4));
}

TEST(ConfigurationTest, EqualPartitionRejectsTooManyJobs)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 3);
    EXPECT_THROW(Configuration::equalPartition(p, 4), FatalError);
}

TEST(ConfigurationTest, ValidityChecks)
{
    const PlatformSpec p = PlatformSpec::paperTestbed();
    Configuration c = Configuration::equalPartition(p, 5);
    EXPECT_TRUE(c.isValidFor(p, 5));
    EXPECT_FALSE(c.isValidFor(p, 4)); // wrong job count
    c.units(0, 0) += 1;               // breaks the total
    EXPECT_FALSE(c.isValidFor(p, 5));
}

TEST(ConfigurationTest, NormalizedVectorSharesSumToOne)
{
    const PlatformSpec p = PlatformSpec::paperTestbed();
    const Configuration c = Configuration::equalPartition(p, 5);
    const RealVec v = c.normalizedVector();
    ASSERT_EQ(v.size(), 15u);
    for (std::size_t r = 0; r < 3; ++r) {
        double sum = 0.0;
        for (std::size_t j = 0; j < 5; ++j)
            sum += v[r * 5 + j];
        EXPECT_NEAR(sum, 1.0, 1e-12);
    }
}

TEST(ConfigurationTest, TransferUnitRespectsMinimum)
{
    const PlatformSpec p = PlatformSpec::paperTestbed();
    Configuration c = Configuration::equalPartition(p, 5);
    EXPECT_TRUE(c.transferUnit(0, 0, 1));
    EXPECT_EQ(c.units(0, 0), 1);
    EXPECT_EQ(c.units(0, 1), 3);
    // Job 0 is now at 1 core: further donation must be refused.
    EXPECT_FALSE(c.transferUnit(0, 0, 1));
    EXPECT_EQ(c.units(0, 0), 1);
    // Self-transfer refused.
    EXPECT_FALSE(c.transferUnit(0, 2, 2));
}

TEST(ConfigurationTest, Distances)
{
    const PlatformSpec p = PlatformSpec::paperTestbed();
    const Configuration a = Configuration::equalPartition(p, 5);
    Configuration b = a;
    b.transferUnit(0, 0, 1);
    EXPECT_NEAR(Configuration::distance(a, b), std::sqrt(2.0), 1e-12);
    EXPECT_EQ(Configuration::l1Distance(a, b), 2);
    EXPECT_EQ(Configuration::l1Distance(a, a), 0);
}

TEST(ConfigurationTest, ToStringFormat)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 4);
    p.addResource(ResourceKind::LlcWays, 4);
    const Configuration c = Configuration::equalPartition(p, 2);
    EXPECT_EQ(c.toString(), "[2,2|2,2]");
}

TEST(CompositionSpaceTest, CountMatchesClosedForm)
{
    CompositionSpace s(10, 3);
    EXPECT_EQ(s.size(), binomial(9, 2));
}

TEST(CompositionSpaceTest, InvalidArgumentsRejected)
{
    EXPECT_THROW(CompositionSpace(2, 3), FatalError);
    EXPECT_THROW(CompositionSpace(3, 0), FatalError);
}

TEST(CompositionSpaceTest, EnumerationIsLexicographicAndComplete)
{
    CompositionSpace s(5, 3); // C(4,2) = 6 compositions
    ASSERT_EQ(s.size(), 6u);
    std::vector<std::vector<int>> all;
    for (std::uint64_t i = 0; i < s.size(); ++i) {
        std::vector<int> comp(3);
        s.at(i, comp);
        all.push_back(comp);
    }
    // Lexicographic order and all sums correct.
    for (std::size_t i = 0; i < all.size(); ++i) {
        int sum = 0;
        for (int v : all[i]) {
            EXPECT_GE(v, 1);
            sum += v;
        }
        EXPECT_EQ(sum, 5);
        if (i > 0)
            EXPECT_LT(all[i - 1], all[i]);
    }
    EXPECT_EQ(all.front(), (std::vector<int>{1, 1, 3}));
    EXPECT_EQ(all.back(), (std::vector<int>{3, 1, 1}));
}

/**
 * Property sweep: at() lists every composition exactly once, each
 * valid, in strictly ascending lexicographic order.
 */
class CompositionEnumeration
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(CompositionEnumeration, AtIsValidDistinctAndLexicographic)
{
    const auto [units, parts] = GetParam();
    CompositionSpace s(units, parts);
    std::vector<int> prev;
    std::vector<int> comp(static_cast<std::size_t>(parts));
    for (std::uint64_t i = 0; i < s.size(); ++i) {
        s.at(i, comp);
        int sum = 0;
        for (int v : comp) {
            EXPECT_GE(v, 1);
            sum += v;
        }
        EXPECT_EQ(sum, units);
        if (i > 0)
            EXPECT_LT(prev, comp) << "index " << i;
        prev = comp;
    }
}

// Every suite's shape on the shipped platforms' 8-, 10- and 11-unit
// resources: PARSEC mixes run 5 jobs, CloudSuite 3, ECP 2 and 3, and
// the scalability sweep 3 to 7; plus the one-part and all-ones edges.
INSTANTIATE_TEST_SUITE_P(
    SuiteShapes, CompositionEnumeration,
    ::testing::Values(std::make_pair(8, 2), std::make_pair(8, 3),
                      std::make_pair(8, 5), std::make_pair(10, 2),
                      std::make_pair(10, 3), std::make_pair(10, 4),
                      std::make_pair(10, 5), std::make_pair(10, 6),
                      std::make_pair(10, 7), std::make_pair(11, 2),
                      std::make_pair(11, 3), std::make_pair(11, 4),
                      std::make_pair(11, 5), std::make_pair(11, 6),
                      std::make_pair(11, 7), std::make_pair(6, 6),
                      std::make_pair(9, 1)));

TEST(CompositionSpaceTest, SamplesAreValid)
{
    CompositionSpace s(11, 5);
    Rng rng(3);
    std::vector<int> comp(5);
    for (int i = 0; i < 200; ++i) {
        s.sample(rng, comp);
        int sum = 0;
        for (int v : comp) {
            EXPECT_GE(v, 1);
            sum += v;
        }
        EXPECT_EQ(sum, 11);
    }
}

TEST(ConfigurationSpaceTest, PaperSearchSpaceSizes)
{
    // Sec. II: 3 jobs x 2 resources of 10 units -> 1,296.
    PlatformSpec two;
    two.addResource(ResourceKind::Cores, 10);
    two.addResource(ResourceKind::MemBandwidth, 10);
    EXPECT_EQ(ConfigurationSpace::sizeOf(two, 3), 1296u);
    // 4 jobs -> 7,056.
    EXPECT_EQ(ConfigurationSpace::sizeOf(two, 4), 7056u);
    // Adding a third 10-unit resource -> 592,704.
    PlatformSpec three = two;
    three.addResource(ResourceKind::LlcWays, 10);
    EXPECT_EQ(ConfigurationSpace::sizeOf(three, 4), 592704u);
}

TEST(ConfigurationSpaceTest, AtIsValidAndStrictlyAscending)
{
    // Resource 0 is the most significant digit and each resource's
    // compositions ascend, so ascending indices give strictly
    // ascending (hence distinct) configurations.
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 6);
    p.addResource(ResourceKind::LlcWays, 5);
    ConfigurationSpace space(p, 3);
    ASSERT_EQ(space.size(), binomial(5, 2) * binomial(4, 2));
    Configuration prev;
    for (std::uint64_t i = 0; i < space.size(); ++i) {
        const Configuration c = space.at(i);
        EXPECT_TRUE(c.isValidFor(p, 3));
        if (i > 0)
            EXPECT_LT(prev, c) << "index " << i;
        prev = c;
    }
}

TEST(ConfigurationSpaceTest, SampleUniformish)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 5);
    ConfigurationSpace space(p, 2); // 4 configurations
    Rng rng(5);
    std::map<Configuration, int> counts;
    for (int i = 0; i < 8000; ++i)
        counts[space.sample(rng)]++;
    ASSERT_EQ(counts.size(), 4u);
    for (const auto& [config, c] : counts) {
        EXPECT_GT(c, 1700);
        EXPECT_LT(c, 2300);
    }
}

TEST(ConfigurationSpaceTest, NeighborsAreValidOneUnitMoves)
{
    const PlatformSpec p = PlatformSpec::paperTestbed();
    ConfigurationSpace space(p, 5);
    const Configuration c = Configuration::equalPartition(p, 5);
    const auto neighbors = space.neighbors(c);
    EXPECT_FALSE(neighbors.empty());
    for (const auto& n : neighbors) {
        EXPECT_TRUE(n.isValidFor(p, 5));
        EXPECT_EQ(Configuration::l1Distance(c, n), 2); // one move
    }
}

TEST(ConfigurationSpaceTest, NeighborsRespectMinimumUnits)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 2);
    ConfigurationSpace space(p, 2);
    const Configuration c = Configuration::equalPartition(p, 2);
    // Both jobs hold exactly one core: no transfers possible.
    EXPECT_TRUE(space.neighbors(c).empty());
}

} // namespace
} // namespace satori
