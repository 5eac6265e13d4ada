/**
 * @file
 * dCAT-style baseline (Xu et al., EuroSys'18): dynamic reallocation
 * of a single resource - LLC ways - to improve system throughput.
 *
 * dCAT classifies applications as donors and receivers of cache ways
 * based on their measured utility for additional capacity. We
 * implement its behaviour as measured trial-and-accept transfers:
 * every interval a way is moved from the currently best-performing
 * (least cache-starved) job to the most slowed-down job; the move is
 * kept only if system throughput improved, otherwise reverted and
 * the pair is backed off. All other resources stay at the equal
 * partition, as in the original single-resource system.
 */

#ifndef SATORI_POLICIES_DCAT_POLICY_HPP
#define SATORI_POLICIES_DCAT_POLICY_HPP

#include <map>

#include "satori/policies/policy.hpp"

namespace satori {
namespace policies {

/** Single-resource (LLC ways) throughput-oriented reallocation. */
class DCatPolicy final : public PartitioningPolicy
{
  public:
    DCatPolicy(const PlatformSpec& platform, std::size_t num_jobs);

    [[nodiscard]] std::string name() const override { return "dCAT"; }
    Configuration decide(const sim::IntervalObservation& obs) override;
    void reset() override;

  private:
    [[nodiscard]] double sumIps(const std::vector<Ips>& ips) const;

    PlatformSpec platform_;
    std::size_t num_jobs_;
    int llc_index_;

    Configuration current_;
    bool trial_pending_ = false;
    Configuration pre_trial_config_;
    double pre_trial_ips_ = 0.0;
    JobIndex trial_from_ = 0;
    JobIndex trial_to_ = 0;
    std::map<std::pair<JobIndex, JobIndex>, int> blocked_until_;
    int iteration_ = 0;

    // Epoch accumulation (decisions act on epoch-averaged signals).
    std::vector<double> acc_ips_;
    std::vector<double> acc_iso_;
    int acc_n_ = 0;
};

} // namespace policies
} // namespace satori

#endif // SATORI_POLICIES_DCAT_POLICY_HPP
