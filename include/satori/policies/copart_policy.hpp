/**
 * @file
 * CoPart-style baseline (Park et al., EuroSys'19): coordinated
 * partitioning of last-level cache and memory bandwidth for fairness,
 * using one finite state machine per resource. The FSMs are not
 * joint, but are aware of each other's decisions (Sec. I).
 *
 * Our implementation mirrors that structure: per resource, each job
 * is classified every interval as a TAKE (slowdown below the mean by
 * a hysteresis margin), GIVE (above the mean), or HOLD; one unit per
 * interval flows from the most generous GIVE job to the neediest
 * TAKE job. Cross-FSM awareness: the two FSMs act on alternating
 * intervals so they never fight over the same interval's measurement.
 * Cores remain equally partitioned (CoPart manages LLC + MB only).
 */

#ifndef SATORI_POLICIES_COPART_POLICY_HPP
#define SATORI_POLICIES_COPART_POLICY_HPP

#include <vector>

#include "satori/policies/policy.hpp"

namespace satori {
namespace policies {

/** Fairness-first two-FSM LLC + memory-bandwidth partitioner. */
class CoPartPolicy final : public PartitioningPolicy
{
  public:
    CoPartPolicy(const PlatformSpec& platform, std::size_t num_jobs);

    [[nodiscard]] std::string name() const override { return "CoPart"; }
    Configuration decide(const sim::IntervalObservation& obs) override;
    void reset() override;

  private:
    /** Per-job FSM states, recomputed every interval. */
    enum class State { Take, Give, Hold };

    /** Run one resource's FSM step: classify and move one unit. */
    void stepFsm(ResourceIndex r, const std::vector<double>& speedup);

    PlatformSpec platform_;
    std::size_t num_jobs_;
    std::vector<ResourceIndex> managed_; ///< LLC and MB indices.
    Configuration current_;
    std::size_t turn_ = 0; ///< Which FSM acts this epoch.

    // Epoch accumulation.
    std::vector<double> acc_ips_;
    std::vector<double> acc_iso_;
    int acc_n_ = 0;
};

} // namespace policies
} // namespace satori

#endif // SATORI_POLICIES_COPART_POLICY_HPP
