#include "satori/policies/clite_policy.hpp"

#include <algorithm>

#include "satori/common/logging.hpp"
#include "satori/metrics/metrics.hpp"

namespace satori {
namespace policies {

namespace {

/** Static weights of the combined objective. */
constexpr double kWeightT = 0.5;
constexpr double kWeightF = 0.5;

/** Random configurations evaluated before BO starts. */
constexpr std::size_t kInitSamples = 8;

/** Samples retained for the GP. */
constexpr std::size_t kWindow = 120;

/** Iterations without improvement before holding the best. */
constexpr std::size_t kStallIntervals = 12;

/** Objective-drop fraction that resumes sampling. */
constexpr double kReactivateThreshold = 0.08;

/** RNG seed. */
constexpr std::uint64_t kSeed = 19;

/** The static objective: 0.5 sum-IPS throughput + 0.5 Jain fairness. */
double
objective(const sim::IntervalObservation& obs)
{
    const double t = normalizedThroughput(ThroughputMetric::SumIps,
                                          obs.ips, obs.isolation_ips);
    const double f = normalizedFairness(
        FairnessMetric::JainIndex, speedups(obs.ips, obs.isolation_ips));
    return kWeightT * t + kWeightF * f;
}

} // namespace

ClitePolicy::ClitePolicy(const PlatformSpec& platform,
                         std::size_t num_jobs)
    : space_(platform, num_jobs),
      // CLITE explores with uniform candidates only - no structured
      // seeds or concentration sets.
      candgen_(space_, bo::CandidateOptions{.structured = false}),
      rng_(kSeed), init_left_(kInitSamples)
{
}

Configuration
ClitePolicy::decide(const sim::IntervalObservation& obs)
{
    const double y = objective(obs);

    // Traditional BO bookkeeping: one scalar per evaluated config.
    configs_.push_back(obs.config);
    xs_.push_back(obs.config.normalizedVector());
    ys_.push_back(y);
    if (xs_.size() > kWindow) {
        configs_.erase(configs_.begin());
        xs_.erase(xs_.begin());
        ys_.erase(ys_.begin());
    }

    if (holding_) {
        // Resume sampling only if performance degrades noticeably.
        if (hold_reference_ < 0.0) {
            if (obs.config == hold_config_)
                hold_reference_ = y;
        } else if (y < hold_reference_ *
                           (1.0 - kReactivateThreshold)) {
            if (++strikes_ >= 2) {
                holding_ = false;
                strikes_ = 0;
                best_seen_ = -1.0;
                stall_ = 0;
                hold_reference_ = -1.0;
            }
        } else {
            strikes_ = 0;
        }
        if (holding_)
            return hold_config_;
    }

    // Convergence tracking.
    if (y > best_seen_ + 1e-3) {
        best_seen_ = y;
        stall_ = 0;
    } else {
        ++stall_;
    }

    // Random initialization phase (CLITE seeds its GP randomly).
    if (init_left_ > 0) {
        --init_left_;
        return space_.sample(rng_);
    }

    engine_.setSamples(xs_, ys_);

    if (stall_ >= kStallIntervals) {
        // Hold the best *observed* configuration (CLITE's decision
        // once sampling stops).
        std::size_t best_i = 0;
        for (std::size_t i = 1; i < ys_.size(); ++i)
            if (ys_[i] > ys_[best_i])
                best_i = i;
        holding_ = true;
        hold_config_ = configs_[best_i];
        hold_reference_ = -1.0;
        return hold_config_;
    }

    const Configuration& incumbent =
        configs_[static_cast<std::size_t>(
            std::max_element(ys_.begin(), ys_.end()) - ys_.begin())];
    candgen_.generateInto(incumbent, rng_, cand_rows_);
    cand_pts_.assignShares(cand_rows_, space_.numJobs(),
                           space_.platform().numResources());
    return candgen_.configurationAt(cand_rows_,
                                    engine_.suggestIndex(cand_pts_));
}

void
ClitePolicy::reset()
{
    configs_.clear();
    xs_.clear();
    ys_.clear();
    init_left_ = kInitSamples;
    best_seen_ = -1.0;
    stall_ = 0;
    holding_ = false;
    hold_reference_ = -1.0;
    strikes_ = 0;
    engine_ = bo::BoEngine();
    rng_ = Rng(kSeed);
}

} // namespace policies
} // namespace satori
