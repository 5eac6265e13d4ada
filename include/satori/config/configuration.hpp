/**
 * @file
 * A resource-partitioning configuration: how many units of every
 * shared resource each co-located job receives (Sec. II).
 */

#ifndef SATORI_CONFIG_CONFIGURATION_HPP
#define SATORI_CONFIG_CONFIGURATION_HPP

#include <compare>
#include <span>
#include <string>
#include <vector>

#include "satori/common/types.hpp"
#include "satori/config/platform.hpp"

namespace satori {

/**
 * One permutation of resource allocation of all available resources
 * to all co-located jobs. Every job receives at least one unit of
 * every resource and the units of each resource are fully assigned.
 *
 * Stored row-major in integer units: one row per resource, one entry
 * per job, so a copy is a single allocation. Two configurations are
 * the same configuration exactly when their job counts and unit
 * buffers are equal, and they order lexicographically by that buffer
 * (for one shape, the ConfigurationSpace::at() order).
 */
class Configuration
{
  public:
    /** An empty configuration (no jobs/resources). */
    Configuration() = default;

    /**
     * Construct from explicit unit assignments.
     *
     * @param num_jobs Number of co-located jobs (>= 1).
     * @param units Row-major: units[r * num_jobs + j] = units of
     *        resource r given to job j. @pre a multiple of num_jobs long.
     */
    Configuration(std::size_t num_jobs, std::vector<int> units);

    /** Number of co-located jobs. */
    [[nodiscard]] std::size_t numJobs() const { return num_jobs_; }

    /** Number of resources. */
    [[nodiscard]] std::size_t numResources() const
    {
        return num_jobs_ == 0 ? 0 : units_.size() / num_jobs_;
    }

    /** Units of resource @p r given to job @p j. */
    [[nodiscard]] int units(ResourceIndex r, JobIndex j) const;

    /** Mutable unit count (validity must be restored by the caller). */
    int& units(ResourceIndex r, JobIndex j);

    /** The allocation row for resource @p r (one entry per job). */
    [[nodiscard]] std::span<const int> resourceRow(ResourceIndex r) const;

    /** Mutable row (validity must be restored by the caller). */
    std::span<int> resourceRow(ResourceIndex r);

    /** Every resource row back to back (the constructor's layout). */
    [[nodiscard]] std::span<const int> flatUnits() const { return units_; }

    /** Total units assigned for resource @p r. */
    [[nodiscard]] int totalUnits(ResourceIndex r) const;

    /**
     * True if the configuration is well-formed for @p platform and
     * @p num_jobs: right shape, every job gets >= 1 unit of every
     * resource, all units fully assigned.
     */
    [[nodiscard]] bool isValidFor(const PlatformSpec& platform,
                    std::size_t num_jobs) const;

    /**
     * The S_init configuration: every resource divided as equally as
     * possible among jobs (Algorithm 1); leftovers go to the
     * lowest-indexed jobs.
     */
    [[nodiscard]] static Configuration equalPartition(const PlatformSpec& platform,
                                        std::size_t num_jobs);

    /**
     * Flatten to a share-normalized real vector of dimension
     * numResources x numJobs: element (r * numJobs + j) is job j's
     * fraction of resource r. This is the GP input representation and
     * the space in which the paper's Fig. 15 distances are computed
     * (scaled back to units there).
     */
    [[nodiscard]] RealVec normalizedVector() const;

    /**
     * Euclidean distance between two configurations in *unit* space
     * (the Fig. 15 metric: 15-dimensional vectors of unit counts).
     */
    [[nodiscard]] static double distance(const Configuration& a, const Configuration& b);

    /**
     * L1 (total moved units) distance between two configurations -
     * the natural measure of reconfiguration effort.
     */
    [[nodiscard]] static int l1Distance(const Configuration& a, const Configuration& b);

    /**
     * Transfer one unit of resource @p r from job @p from to job @p to.
     * @return false (and leave the configuration unchanged) if @p from
     * has only one unit left.
     */
    bool transferUnit(ResourceIndex r, JobIndex from, JobIndex to);

    /** Compact human-readable rendering, e.g. "[5,5|6,5|5,5]". */
    [[nodiscard]] std::string toString() const;

    /** Structural identity and order: job count, then units. */
    auto operator<=>(const Configuration& other) const = default;

  private:
    std::size_t num_jobs_ = 0;
    std::vector<int> units_;
};

} // namespace satori

#endif // SATORI_CONFIG_CONFIGURATION_HPP
