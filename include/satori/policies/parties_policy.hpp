/**
 * @file
 * PARTIES-style baseline (Chen et al., ASPLOS'19), modified per the
 * paper (Sec. IV) to maximize throughput and fairness with equal
 * priority for throughput-oriented workloads: 0.5 T + 0.5 F with
 * sum-IPS throughput and Jain fairness.
 *
 * PARTIES partitions resources with a gradient-descent method: it
 * adjusts one resource dimension at a time, measures whether the
 * objective improved, keeps beneficial moves and reverts harmful
 * ones, then moves on to the next resource. Because it explores one
 * dimension at a time it cannot exploit cross-resource coupling in a
 * single step and is prone to local maxima in larger spaces - the
 * behaviour the paper's scalability study observes.
 */

#ifndef SATORI_POLICIES_PARTIES_POLICY_HPP
#define SATORI_POLICIES_PARTIES_POLICY_HPP

#include "satori/policies/policy.hpp"

namespace satori {
namespace policies {

/** Gradient-descent, one-resource-at-a-time partitioner. */
class PartiesPolicy final : public PartitioningPolicy
{
  public:
    PartiesPolicy(const PlatformSpec& platform, std::size_t num_jobs);

    [[nodiscard]] std::string name() const override { return "PARTIES"; }
    Configuration decide(const sim::IntervalObservation& obs) override;
    void reset() override;

  private:
    PlatformSpec platform_;
    std::size_t num_jobs_;

    Configuration current_;
    bool trial_pending_ = false;
    Configuration pre_trial_config_;
    double pre_trial_objective_ = 0.0;
    ResourceIndex dimension_ = 0; ///< Resource being explored.
    int failures_in_dimension_ = 0;
    std::size_t next_app_ = 0; ///< Round-robin per-app FSM cursor.

    // Window accumulation.
    std::vector<double> acc_ips_;
    std::vector<double> acc_iso_;
    int acc_n_ = 0;
};

} // namespace policies
} // namespace satori

#endif // SATORI_POLICIES_PARTIES_POLICY_HPP
