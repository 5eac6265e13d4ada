/**
 * @file
 * CLITE-style baseline (Patel & Tiwari, HPCA'20): the authors' own
 * earlier BO-based partitioner for latency-critical co-location,
 * adapted to this paper's context exactly as Sec. VI describes - it
 * optimizes a *single static* combined objective with a traditional
 * BO loop (no per-goal records, no dynamic prioritization, random
 * initial samples instead of SATORI's structured seeds). It
 * maximizes 0.5 T + 0.5 F with sum-IPS throughput and Jain fairness.
 *
 * The paper reports that, applied to throughput-oriented co-location
 * with two competing objectives, CLITE performs similar to PARTIES
 * and underperforms SATORI by a similar margin.
 */

#ifndef SATORI_POLICIES_CLITE_POLICY_HPP
#define SATORI_POLICIES_CLITE_POLICY_HPP

#include <vector>

#include "satori/bo/candidates.hpp"
#include "satori/bo/engine.hpp"
#include "satori/common/rng.hpp"
#include "satori/config/enumeration.hpp"
#include "satori/policies/policy.hpp"

namespace satori {
namespace policies {

/** Traditional single-objective BO partitioner (CLITE-adapted). */
class ClitePolicy final : public PartitioningPolicy
{
  public:
    ClitePolicy(const PlatformSpec& platform, std::size_t num_jobs);

    [[nodiscard]] std::string name() const override { return "CLITE"; }
    Configuration decide(const sim::IntervalObservation& obs) override;
    void reset() override;

    /** True once the search has converged and holds its best. */
    [[nodiscard]] bool converged() const { return holding_; }

  private:
    ConfigurationSpace space_;
    bo::CandidateGenerator candgen_;
    bo::BoEngine engine_;
    Rng rng_;

    std::vector<Configuration> configs_; ///< Aligned with engine data.
    std::vector<RealVec> xs_;
    std::vector<double> ys_;

    /** Suggest scratch: candidate unit rows and their shares. */
    std::vector<int> cand_rows_;
    bo::SoaPoints cand_pts_;

    std::size_t init_left_;
    double best_seen_ = -1.0;
    std::size_t stall_ = 0;
    bool holding_ = false;
    Configuration hold_config_;
    double hold_reference_ = -1.0;
    int strikes_ = 0;
};

} // namespace policies
} // namespace satori

#endif // SATORI_POLICIES_CLITE_POLICY_HPP
