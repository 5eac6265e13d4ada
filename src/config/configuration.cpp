#include "satori/config/configuration.hpp"

#include <cmath>
#include <numeric>
#include <sstream>

#include "satori/common/logging.hpp"

namespace satori {

Configuration::Configuration(std::size_t num_jobs, std::vector<int> units)
    : num_jobs_(num_jobs), units_(std::move(units))
{
    SATORI_ASSERT(num_jobs_ >= 1 && units_.size() % num_jobs_ == 0);
}

int
Configuration::units(ResourceIndex r, JobIndex j) const
{
    SATORI_ASSERT(r < numResources() && j < num_jobs_);
    return units_[r * num_jobs_ + j];
}

int&
Configuration::units(ResourceIndex r, JobIndex j)
{
    SATORI_ASSERT(r < numResources() && j < num_jobs_);
    return units_[r * num_jobs_ + j];
}

std::span<const int>
Configuration::resourceRow(ResourceIndex r) const
{
    SATORI_ASSERT(r < numResources());
    return {units_.data() + r * num_jobs_, num_jobs_};
}

std::span<int>
Configuration::resourceRow(ResourceIndex r)
{
    SATORI_ASSERT(r < numResources());
    return {units_.data() + r * num_jobs_, num_jobs_};
}

int
Configuration::totalUnits(ResourceIndex r) const
{
    const std::span<const int> row = resourceRow(r);
    return std::accumulate(row.begin(), row.end(), 0);
}

bool
Configuration::isValidFor(const PlatformSpec& platform,
                          std::size_t num_jobs) const
{
    if (num_jobs_ != num_jobs || numResources() != platform.numResources())
        return false;
    for (std::size_t r = 0; r < numResources(); ++r) {
        int total = 0;
        for (int u : resourceRow(r)) {
            if (u < 1)
                return false;
            total += u;
        }
        if (total != platform.units(r))
            return false;
    }
    return true;
}

Configuration
Configuration::equalPartition(const PlatformSpec& platform,
                              std::size_t num_jobs)
{
    SATORI_ASSERT(num_jobs >= 1);
    Configuration out(num_jobs,
                      std::vector<int>(platform.numResources() * num_jobs));
    for (std::size_t r = 0; r < platform.numResources(); ++r) {
        const int units = platform.units(r);
        if (static_cast<std::size_t>(units) < num_jobs)
            SATORI_FATAL("resource '" +
                         resourceKindName(platform.resource(r).kind) +
                         "' has fewer units than co-located jobs");
        const int base = units / static_cast<int>(num_jobs);
        const int extra = units % static_cast<int>(num_jobs);
        for (std::size_t j = 0; j < num_jobs; ++j)
            out.units(r, j) = base + (static_cast<int>(j) < extra ? 1 : 0);
    }
    return out;
}

RealVec
Configuration::normalizedVector() const
{
    RealVec out;
    out.reserve(units_.size());
    for (std::size_t r = 0; r < numResources(); ++r) {
        const double total = static_cast<double>(totalUnits(r));
        for (const int u : resourceRow(r))
            out.push_back(static_cast<double>(u) / total);
    }
    return out;
}

double
Configuration::distance(const Configuration& a, const Configuration& b)
{
    SATORI_ASSERT(a.numResources() == b.numResources());
    SATORI_ASSERT(a.numJobs() == b.numJobs());
    double d2 = 0.0;
    for (std::size_t i = 0; i < a.units_.size(); ++i) {
        const double d = static_cast<double>(a.units_[i] - b.units_[i]);
        d2 += d * d;
    }
    return std::sqrt(d2);
}

int
Configuration::l1Distance(const Configuration& a, const Configuration& b)
{
    SATORI_ASSERT(a.numResources() == b.numResources());
    SATORI_ASSERT(a.numJobs() == b.numJobs());
    int d = 0;
    for (std::size_t i = 0; i < a.units_.size(); ++i)
        d += std::abs(a.units_[i] - b.units_[i]);
    return d;
}

bool
Configuration::transferUnit(ResourceIndex r, JobIndex from, JobIndex to)
{
    SATORI_ASSERT(from < num_jobs_ && to < num_jobs_);
    int& giver = units(r, from);
    if (from == to || giver <= 1)
        return false;
    giver -= 1;
    units(r, to) += 1;
    return true;
}

std::string
Configuration::toString() const
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < units_.size(); ++i) {
        if (i)
            os << (i % num_jobs_ == 0 ? "|" : ",");
        os << units_[i];
    }
    os << "]";
    return os.str();
}

} // namespace satori
