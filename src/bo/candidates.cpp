#include "satori/bo/candidates.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <span>

#include "satori/common/logging.hpp"

namespace satori {
namespace bo {

namespace {

/** Uniform random candidates per round. */
constexpr std::size_t kNumRandom = 256;

/** An unused de-duplication slot. */
constexpr std::uint32_t kEmptySlot =
    std::numeric_limits<std::uint32_t>::max();

/** FNV-1a over the units, then a splitmix64 finalizer so the low bits
 * that pick a slot depend on every unit. */
std::uint64_t
hashRow(const int* row, std::size_t width)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t k = 0; k < width; ++k) {
        h ^= static_cast<std::uint32_t>(row[k]);
        h *= 0x100000001b3ULL;
    }
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    return h;
}

/**
 * Drop every row of @p rows (@p width ints each) equal to an earlier
 * one, keeping first occurrences in their order: open addressing over
 * row hashes, a hit confirmed by a full row compare. @p slots is
 * scratch.
 */
void
keepFirstOccurrences(std::vector<int>& rows, std::size_t width,
                     std::vector<std::uint32_t>& slots)
{
    const std::size_t count = rows.size() / width;
    SATORI_ASSERT(count < kEmptySlot);
    slots.assign(std::bit_ceil(2 * count + 1), kEmptySlot);
    const std::size_t mask = slots.size() - 1;
    int* base = rows.data();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const int* row = base + i * width;
        std::size_t s = hashRow(row, width) & mask;
        bool repeat = false;
        for (; slots[s] != kEmptySlot; s = (s + 1) & mask) {
            const int* earlier = base + slots[s] * width;
            if (std::equal(row, row + width, earlier)) {
                repeat = true;
                break;
            }
        }
        if (repeat)
            continue;
        // Row `kept` is where this row lands; kept <= i, so the copy
        // never overlaps.
        slots[s] = static_cast<std::uint32_t>(kept);
        if (kept != i)
            std::copy(row, row + width, base + kept * width);
        ++kept;
    }
    rows.resize(kept * width);
}

} // namespace

CandidateGenerator::CandidateGenerator(const ConfigurationSpace& space,
                                       CandidateOptions options)
    : space_(space), options_(options)
{
}

std::vector<Configuration>
CandidateGenerator::seedConfigurations() const
{
    std::vector<Configuration> seeds;
    const Configuration equal = Configuration::equalPartition(
        space_.platform(), space_.numJobs());
    seeds.push_back(equal);
    // Low-imbalance variants: a single unit of a single resource moved
    // between adjacent jobs. These keep the per-job share across
    // resources nearly balanced, which the paper identifies as "good"
    // starting points.
    for (std::size_t r = 0; r < space_.platform().numResources(); ++r) {
        for (JobIndex j = 0; j + 1 < space_.numJobs(); ++j) {
            Configuration c = equal;
            if (c.transferUnit(r, j, j + 1))
                seeds.push_back(c);
            Configuration d = equal;
            if (d.transferUnit(r, j + 1, j))
                seeds.push_back(d);
        }
    }
    return seeds;
}

void
CandidateGenerator::appendNeighborRows(const Configuration& config,
                                       std::vector<int>& rows) const
{
    const std::span<const int> units = config.flatUnits();
    SATORI_ASSERT(units.size() == space_.rowSize());
    const std::size_t jobs = space_.numJobs();
    for (std::size_t r = 0; r < space_.platform().numResources(); ++r) {
        for (JobIndex from = 0; from < jobs; ++from) {
            if (units[r * jobs + from] <= 1)
                continue;
            for (JobIndex to = 0; to < jobs; ++to) {
                if (to == from)
                    continue;
                const std::size_t at = rows.size();
                rows.insert(rows.end(), units.begin(), units.end());
                rows[at + r * jobs + from] -= 1;
                rows[at + r * jobs + to] += 1;
            }
        }
    }
}

const std::vector<int>&
CandidateGenerator::structuredRows() const
{
    if (!structured_rows_) {
        std::vector<int> rows;
        for (const Configuration& c : seedConfigurations())
            rows.insert(rows.end(), c.flatUnits().begin(),
                        c.flatUnits().end());
        for (const Configuration& c : concentratedConfigurations())
            rows.insert(rows.end(), c.flatUnits().begin(),
                        c.flatUnits().end());
        structured_rows_ = std::move(rows);
    }
    return *structured_rows_;
}

void
CandidateGenerator::generateInto(const Configuration& incumbent, Rng& rng,
                                 std::vector<int>& rows) const
{
    const std::size_t width = space_.rowSize();
    rows.resize(kNumRandom * width);
    for (std::size_t i = 0; i < kNumRandom; ++i)
        space_.sampleInto(rng,
                          std::span<int>(rows).subspan(i * width, width));
    appendNeighborRows(incumbent, rows);
    if (options_.structured) {
        const std::vector<int>& structured = structuredRows();
        rows.insert(rows.end(), structured.begin(), structured.end());
    }
    // The emitted order is first-occurrence order, so a round replays
    // exactly for a given (incumbent, rng state).
    keepFirstOccurrences(rows, width, slots_);
    SATORI_ASSERT(!rows.empty());
}

std::vector<Configuration>
CandidateGenerator::generate(const Configuration& incumbent, Rng& rng) const
{
    std::vector<int> rows;
    generateInto(incumbent, rng, rows);
    const std::size_t count = rows.size() / space_.rowSize();
    std::vector<Configuration> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(configurationAt(rows, i));
    return out;
}

Configuration
CandidateGenerator::configurationAt(const std::vector<int>& rows,
                                    std::size_t index) const
{
    const std::size_t width = space_.rowSize();
    SATORI_ASSERT((index + 1) * width <= rows.size());
    const std::span<const int> row =
        std::span(rows).subspan(index * width, width);
    return Configuration(space_.numJobs(),
                         std::vector<int>(row.begin(), row.end()));
}

std::vector<Configuration>
CandidateGenerator::concentratedConfigurations() const
{
    std::vector<Configuration> out;
    const std::size_t jobs = space_.numJobs();
    if (jobs < 2)
        return out; // nothing to concentrate with a single job
    const Configuration equal = Configuration::equalPartition(
        space_.platform(), space_.numJobs());
    for (std::size_t r = 0; r < space_.platform().numResources(); ++r) {
        const int units = space_.platform().units(r);
        const int spare = units - static_cast<int>(jobs);
        if (spare <= 0)
            continue;
        for (JobIndex j = 0; j < jobs; ++j) {
            for (double share : {0.5, 1.0}) {
                // Give job j `share` of what is left after every
                // other job keeps one unit; spread the rest evenly.
                const int take =
                    1 + static_cast<int>(
                            share * static_cast<double>(spare));
                Configuration c = equal;
                std::vector<int> row(jobs, 1);
                row[j] = take;
                int rest = units - take - static_cast<int>(jobs - 1);
                std::size_t k = 0;
                while (rest > 0) {
                    if (k != j) {
                        row[k] += 1;
                        --rest;
                    }
                    k = (k + 1) % jobs;
                }
                for (JobIndex q = 0; q < jobs; ++q)
                    c.units(r, q) = row[q];
                if (!(c == equal))
                    out.push_back(std::move(c));
            }
        }
    }
    return out;
}

} // namespace bo
} // namespace satori
