#include "satori/policies/dcat_policy.hpp"

#include <numeric>

#include "satori/common/logging.hpp"
#include "satori/metrics/metrics.hpp"

namespace satori {
namespace policies {

namespace {

/** Minimum relative throughput gain to accept a transfer. */
constexpr double kAcceptEpsilon = 0.002;

/** Intervals a rejected donor/receiver pair stays blocked. */
constexpr int kBackoffIntervals = 20;

/**
 * Controller intervals per dCAT epoch: the published system
 * re-evaluates allocations about once per second, i.e. every 10 of
 * SATORI's 100 ms intervals.
 */
constexpr int kPeriodIntervals = 10;

} // namespace

DCatPolicy::DCatPolicy(const PlatformSpec& platform, std::size_t num_jobs)
    : platform_(platform), num_jobs_(num_jobs),
      llc_index_(platform.indexOf(ResourceKind::LlcWays)),
      current_(Configuration::equalPartition(platform, num_jobs))
{
    if (llc_index_ < 0)
        SATORI_FATAL("dCAT requires an LLC-ways resource");
}

double
DCatPolicy::sumIps(const std::vector<Ips>& ips) const
{
    return std::accumulate(ips.begin(), ips.end(), 0.0);
}

Configuration
DCatPolicy::decide(const sim::IntervalObservation& obs)
{
    // Accumulate epoch-averaged signals; act only at epoch boundaries
    // (the published system's native decision cadence).
    if (acc_ips_.empty()) {
        acc_ips_.assign(obs.ips.size(), 0.0);
        acc_iso_.assign(obs.ips.size(), 0.0);
    }
    for (std::size_t j = 0; j < obs.ips.size(); ++j) {
        acc_ips_[j] += obs.ips[j];
        acc_iso_[j] += obs.isolation_ips[j];
    }
    if (++acc_n_ < kPeriodIntervals)
        return current_;
    std::vector<double> avg_ips(obs.ips.size());
    std::vector<double> avg_iso(obs.ips.size());
    for (std::size_t j = 0; j < obs.ips.size(); ++j) {
        avg_ips[j] = acc_ips_[j] / acc_n_;
        avg_iso[j] = acc_iso_[j] / acc_n_;
    }
    acc_ips_.clear();
    acc_iso_.clear();
    acc_n_ = 0;

    ++iteration_;
    const double observed = sumIps(avg_ips);
    const auto r = static_cast<ResourceIndex>(llc_index_);

    if (trial_pending_) {
        trial_pending_ = false;
        const double gain =
            (observed - pre_trial_ips_) / std::max(pre_trial_ips_, 1e-9);
        if (gain < kAcceptEpsilon) {
            // Transfer hurt (or didn't help): revert and back off.
            current_ = pre_trial_config_;
            blocked_until_[{trial_from_, trial_to_}] =
                iteration_ + kBackoffIntervals;
            return current_;
        }
        // Keep the transfer; fall through to try extending the trend.
    }

    // Receiver: the most slowed-down job (likely cache starved);
    // donor: the least slowed-down job with ways to spare. This is
    // dCAT's utility intuition driven purely by measurements.
    const std::vector<double> spd = speedups(avg_ips, avg_iso);
    JobIndex receiver = 0, donor = 0;
    double worst = 2.0, best = -1.0;
    bool found_receiver = false, found_donor = false;
    for (JobIndex j = 0; j < num_jobs_; ++j) {
        if (spd[j] < worst) {
            worst = spd[j];
            receiver = j;
            found_receiver = true;
        }
    }
    for (JobIndex j = 0; j < num_jobs_; ++j) {
        if (j == receiver || current_.units(r, j) <= 1)
            continue;
        const auto it = blocked_until_.find({j, receiver});
        if (it != blocked_until_.end() && it->second > iteration_)
            continue;
        if (spd[j] > best) {
            best = spd[j];
            donor = j;
            found_donor = true;
        }
    }
    if (!found_receiver || !found_donor)
        return current_;

    pre_trial_config_ = current_;
    pre_trial_ips_ = observed;
    if (current_.transferUnit(r, donor, receiver)) {
        trial_pending_ = true;
        trial_from_ = donor;
        trial_to_ = receiver;
    }
    return current_;
}

void
DCatPolicy::reset()
{
    current_ = Configuration::equalPartition(platform_, num_jobs_);
    trial_pending_ = false;
    blocked_until_.clear();
    iteration_ = 0;
    acc_ips_.clear();
    acc_iso_.clear();
    acc_n_ = 0;
}

} // namespace policies
} // namespace satori
