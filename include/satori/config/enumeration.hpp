/**
 * @file
 * Enumeration of the resource-partitioning configuration space.
 *
 * The space of one resource with U units split among M jobs (>= 1 unit
 * each) is the set of compositions of U into M positive parts, of size
 * C(U-1, M-1); the joint space is the Cartesian product over resources
 * (Sec. II: S_conf = prod_r C(U_r - 1, M - 1)).
 */

#ifndef SATORI_CONFIG_ENUMERATION_HPP
#define SATORI_CONFIG_ENUMERATION_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "satori/common/rng.hpp"
#include "satori/config/configuration.hpp"
#include "satori/config/platform.hpp"

namespace satori {

/**
 * Enumerates compositions of @p units into @p parts positive integer
 * parts in lexicographic order.
 */
class CompositionSpace
{
  public:
    /** @pre units >= parts >= 1. */
    CompositionSpace(int units, int parts);

    /** Number of compositions: C(units-1, parts-1). */
    [[nodiscard]] std::uint64_t size() const { return size_; }

    /**
     * Write the @p index-th composition in lexicographic order into
     * @p out. @pre out.size() == parts().
     */
    void at(std::uint64_t index, std::span<int> out) const;

    /** Write a uniformly random composition into @p out (as at()). */
    void sample(Rng& rng, std::span<int> out) const;

    /** Units being split. */
    [[nodiscard]] int units() const { return units_; }

    /** Number of parts. */
    [[nodiscard]] int parts() const { return parts_; }

  private:
    int units_;
    int parts_;
    std::uint64_t size_;
};

/**
 * The joint configuration space over all resources of a platform for
 * a fixed number of co-located jobs. Provides size, index -> config
 * enumeration, uniform sampling, and neighborhood generation.
 */
class ConfigurationSpace
{
  public:
    ConfigurationSpace(const PlatformSpec& platform, std::size_t num_jobs);

    /** Total number of valid configurations (Sec. II formula). */
    [[nodiscard]] std::uint64_t size() const { return size_; }

    /**
     * The @p index-th configuration: mixed-radix over resources,
     * resource 0 most significant, so ascending indices give
     * ascending configurations.
     */
    [[nodiscard]] Configuration at(std::uint64_t index) const;

    /** A uniformly random configuration. */
    [[nodiscard]] Configuration sample(Rng& rng) const;

    /**
     * All configurations reachable from @p config by moving exactly
     * one unit of one resource between two jobs (the local moves used
     * by BO candidate refinement and the gradient-descent baseline).
     */
    [[nodiscard]] std::vector<Configuration> neighbors(const Configuration& config) const;

    /** Number of co-located jobs. */
    [[nodiscard]] std::size_t numJobs() const { return num_jobs_; }

    /** The platform this space was built for. */
    [[nodiscard]] const PlatformSpec& platform() const { return platform_; }

    /**
     * Closed-form size of a space without building it, e.g. for the
     * search-space-growth table of Sec. II.
     */
    [[nodiscard]] static std::uint64_t sizeOf(const PlatformSpec& platform,
                                std::size_t num_jobs);

  private:
    PlatformSpec platform_;
    std::size_t num_jobs_;
    std::vector<CompositionSpace> per_resource_;
    std::uint64_t size_;
};

} // namespace satori

#endif // SATORI_CONFIG_ENUMERATION_HPP
