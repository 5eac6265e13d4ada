#include "satori/bo/candidates.hpp"

#include <set>

#include "satori/common/logging.hpp"

namespace satori {
namespace bo {

namespace {

/** Uniform random candidates per round. */
constexpr std::size_t kNumRandom = 256;

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

std::vector<Configuration>
CandidateGenerator::generate(const Configuration& incumbent, Rng& rng) const
{
    std::vector<Configuration> out;
    // `seen` is queried only for membership — the emitted order is the
    // insertion order of `out`, so candidate lists replay exactly for a
    // given (incumbent, rng state).
    std::set<Configuration> seen;
    auto push_unique = [&](Configuration c) {
        if (seen.insert(c).second)
            out.push_back(std::move(c));
    };

    for (std::size_t i = 0; i < kNumRandom; ++i)
        push_unique(space_.sample(rng));
    for (auto& n : space_.neighbors(incumbent))
        push_unique(std::move(n));
    if (options_.structured) {
        for (auto& s : seedConfigurations())
            push_unique(std::move(s));
        for (auto& c : concentratedConfigurations())
            push_unique(std::move(c));
    }
    SATORI_ASSERT(!out.empty());
    return out;
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
