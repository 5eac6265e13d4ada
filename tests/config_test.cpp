/**
 * @file
 * Unit and property tests for platforms, configurations, and the
 * configuration-space combinatorics (including the paper's Sec. II
 * search-space-size examples), with the flat candidate rows built on
 * them checked against their per-Configuration references.
 */

#include <map>
#include <set>

#include <cmath>
#include <cstring>
#include <gtest/gtest.h>

#include "satori/bo/candidates.hpp"
#include "satori/bo/kernel.hpp"
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

/**
 * Reference unranking: every block size from a binomial() call, the
 * values CompositionSpace's table must reproduce.
 */
void
binomialUnrank(int units, int parts, std::uint64_t index,
               std::vector<int>& out)
{
    int remaining_units = units;
    for (int p = 0; p < parts - 1; ++p) {
        const int remaining_parts = parts - p - 1;
        for (int first = 1;; ++first) {
            const std::uint64_t block =
                binomial(static_cast<std::uint64_t>(
                             remaining_units - first - 1),
                         static_cast<std::uint64_t>(remaining_parts - 1));
            if (index < block) {
                out[static_cast<std::size_t>(p)] = first;
                remaining_units -= first;
                break;
            }
            index -= block;
        }
    }
    out[static_cast<std::size_t>(parts - 1)] = remaining_units;
}

TEST_P(CompositionEnumeration, AtMatchesBinomialReference)
{
    const auto [units, parts] = GetParam();
    CompositionSpace s(units, parts);
    std::vector<int> got(static_cast<std::size_t>(parts));
    std::vector<int> want(static_cast<std::size_t>(parts));
    for (std::uint64_t i = 0; i < s.size(); ++i) {
        s.at(i, got);
        binomialUnrank(units, parts, i, want);
        ASSERT_EQ(got, want) << "index " << i;
    }
}

// Every suite's shape on the shipped platforms' 8-, 10- and 11-unit
// resources: PARSEC mixes run 5 jobs, CloudSuite 3, ECP 2 and 3, and
// the scalability sweep 3 to 7; plus the one-part and all-ones edges.
const std::pair<int, int> kSuiteShapes[] = {
    {8, 2},  {8, 3},  {8, 5},  {10, 2}, {10, 3}, {10, 4},
    {10, 5}, {10, 6}, {10, 7}, {11, 2}, {11, 3}, {11, 4},
    {11, 5}, {11, 6}, {11, 7}, {6, 6},  {9, 1}};

INSTANTIATE_TEST_SUITE_P(SuiteShapes, CompositionEnumeration,
                         ::testing::ValuesIn(kSuiteShapes));

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

TEST(NeighborRowsTest, NeighborsAreValidOneUnitMoves)
{
    const PlatformSpec p = PlatformSpec::paperTestbed();
    ConfigurationSpace space(p, 5);
    const bo::CandidateGenerator gen(space);
    const Configuration c = Configuration::equalPartition(p, 5);
    std::vector<int> rows;
    gen.appendNeighborRows(c, rows);
    // Every job holds at least two units of every resource, so each
    // of the 3 resources has 5 x 4 (giver, taker) moves.
    ASSERT_EQ(rows.size(), 3u * 5u * 4u * space.rowSize());
    for (std::size_t i = 0; i < rows.size() / space.rowSize(); ++i) {
        const Configuration n = gen.configurationAt(rows, i);
        EXPECT_TRUE(n.isValidFor(p, 5));
        EXPECT_EQ(Configuration::l1Distance(c, n), 2); // one move
    }
}

TEST(NeighborRowsTest, NeighborsRespectMinimumUnits)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, 2);
    ConfigurationSpace space(p, 2);
    const bo::CandidateGenerator gen(space);
    const Configuration c = Configuration::equalPartition(p, 2);
    // Both jobs hold exactly one core: no transfers possible.
    std::vector<int> rows;
    gen.appendNeighborRows(c, rows);
    EXPECT_TRUE(rows.empty());
}

// --- flat candidate rounds vs their Configuration references --------

/** Reference neighbors: one-unit moves as Configurations, in
 * (resource, giving job, taking job) order. */
std::vector<Configuration>
referenceNeighbors(const ConfigurationSpace& space,
                   const Configuration& config)
{
    std::vector<Configuration> out;
    for (std::size_t r = 0; r < space.platform().numResources(); ++r) {
        for (JobIndex from = 0; from < space.numJobs(); ++from) {
            if (config.units(r, from) <= 1)
                continue;
            for (JobIndex to = 0; to < space.numJobs(); ++to) {
                if (to == from)
                    continue;
                Configuration next = config;
                next.transferUnit(r, from, to);
                out.push_back(std::move(next));
            }
        }
    }
    return out;
}

/** Reference round: Configurations de-duplicated through a std::set,
 * first occurrences in emission order - what generateInto() must
 * reproduce row for row. */
std::vector<Configuration>
referenceGenerate(const ConfigurationSpace& space,
                  const bo::CandidateGenerator& gen, bool structured,
                  const Configuration& incumbent, Rng& rng)
{
    std::vector<Configuration> out;
    std::set<Configuration> seen;
    auto push_unique = [&](Configuration c) {
        if (seen.insert(c).second)
            out.push_back(std::move(c));
    };

    for (std::size_t i = 0; i < 256; ++i)
        push_unique(space.sample(rng));
    for (auto& n : referenceNeighbors(space, incumbent))
        push_unique(std::move(n));
    if (structured) {
        for (auto& s : gen.seedConfigurations())
            push_unique(std::move(s));
        for (auto& c : gen.concentratedConfigurations())
            push_unique(std::move(c));
    }
    return out;
}

/** A three-resource platform whose resources have @p units, @p units
 * + 1 and @p units units. */
PlatformSpec
shapePlatform(int units)
{
    PlatformSpec p;
    p.addResource(ResourceKind::Cores, units);
    p.addResource(ResourceKind::LlcWays, units + 1);
    p.addResource(ResourceKind::MemBandwidth, units);
    return p;
}

/** Incumbents for one shape: the equal partition, a random
 * configuration, and one where job 0 takes every spare unit so every
 * other job holds single-unit rows. */
std::vector<Configuration>
shapeIncumbents(const PlatformSpec& p, const ConfigurationSpace& space,
                Rng& rng)
{
    const std::size_t jobs = space.numJobs();
    Configuration greedy = Configuration::equalPartition(p, jobs);
    for (std::size_t r = 0; r < p.numResources(); ++r) {
        for (JobIndex j = 1; j < jobs; ++j) {
            greedy.units(r, 0) += greedy.units(r, j) - 1;
            greedy.units(r, j) = 1;
        }
    }
    return {Configuration::equalPartition(p, jobs), space.sample(rng),
            greedy};
}

class CandidateRounds
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(CandidateRounds, GenerateIntoMatchesSetReference)
{
    const auto [units, jobs] = GetParam();
    const PlatformSpec p = shapePlatform(units);
    const ConfigurationSpace space(p, static_cast<std::size_t>(jobs));
    for (const bool structured : {true, false}) {
        // One generator across every round, so reused scratch and the
        // lazily built structured rows are exercised too.
        const bo::CandidateGenerator gen(
            space, bo::CandidateOptions{.structured = structured});
        Rng pick(static_cast<std::uint64_t>(units * 100 + jobs));
        Rng rng_ref(7);
        Rng rng_flat(7);
        std::vector<int> rows;
        for (const Configuration& incumbent :
             shapeIncumbents(p, space, pick)) {
            ASSERT_TRUE(incumbent.isValidFor(p, space.numJobs()));
            const std::vector<Configuration> want = referenceGenerate(
                space, gen, structured, incumbent, rng_ref);
            gen.generateInto(incumbent, rng_flat, rows);
            ASSERT_EQ(rows.size(), want.size() * space.rowSize())
                << incumbent.toString() << " structured=" << structured;
            for (std::size_t i = 0; i < want.size(); ++i)
                ASSERT_TRUE(gen.configurationAt(rows, i) == want[i])
                    << "row " << i << " of " << incumbent.toString();
            // Both consumed exactly the same draws.
            EXPECT_EQ(rng_ref.next(), rng_flat.next());
        }
    }
}

TEST_P(CandidateRounds, SharesMatchNormalizedVector)
{
    const auto [units, jobs] = GetParam();
    const PlatformSpec p = shapePlatform(units);
    const ConfigurationSpace space(p, static_cast<std::size_t>(jobs));
    const bo::CandidateGenerator gen(space);
    Rng rng(11);
    std::vector<int> rows;
    gen.generateInto(space.sample(rng), rng, rows);
    bo::SoaPoints block;
    block.assignShares(rows, space.numJobs(), p.numResources());
    ASSERT_EQ(block.count(), rows.size() / space.rowSize());
    ASSERT_EQ(block.dims(), space.rowSize());
    for (std::size_t c = 0; c < block.count(); ++c) {
        const RealVec want = gen.configurationAt(rows, c).normalizedVector();
        for (std::size_t d = 0; d < block.dims(); ++d)
            ASSERT_EQ(std::memcmp(&block.dim(d)[c], &want[d], sizeof(double)),
                      0)
                << "point " << c << " dim " << d;
    }
}

INSTANTIATE_TEST_SUITE_P(SuiteShapes, CandidateRounds,
                         ::testing::ValuesIn(kSuiteShapes));

} // namespace
} // namespace satori
