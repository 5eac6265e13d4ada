/**
 * @file
 * Random search baseline (Sec. IV): samples a configuration uniformly
 * from the whole space every controller interval.
 */

#ifndef SATORI_POLICIES_RANDOM_POLICY_HPP
#define SATORI_POLICIES_RANDOM_POLICY_HPP

#include "satori/common/rng.hpp"
#include "satori/config/enumeration.hpp"
#include "satori/policies/policy.hpp"

namespace satori {
namespace policies {

/** Uniform random configuration each interval. */
class RandomPolicy final : public PartitioningPolicy
{
  public:
    RandomPolicy(const PlatformSpec& platform, std::size_t num_jobs);

    [[nodiscard]] std::string name() const override { return "Random"; }
    Configuration decide(const sim::IntervalObservation& obs) override;
    void reset() override;

  private:
    ConfigurationSpace space_;
    Rng rng_;
};

} // namespace policies
} // namespace satori

#endif // SATORI_POLICIES_RANDOM_POLICY_HPP
