#include "satori/policies/copart_policy.hpp"

#include "satori/common/logging.hpp"
#include "satori/common/math.hpp"
#include "satori/metrics/metrics.hpp"

namespace satori {
namespace policies {

namespace {

/** Relative slowdown margin that triggers TAKE/GIVE. */
constexpr double kHysteresis = 0.03;

/**
 * Controller intervals per FSM epoch: the published CoPart evaluates
 * its FSMs about once per second.
 */
constexpr int kPeriodIntervals = 10;

} // namespace

CoPartPolicy::CoPartPolicy(const PlatformSpec& platform,
                           std::size_t num_jobs)
    : platform_(platform), num_jobs_(num_jobs),
      current_(Configuration::equalPartition(platform, num_jobs))
{
    const int llc = platform.indexOf(ResourceKind::LlcWays);
    const int mb = platform.indexOf(ResourceKind::MemBandwidth);
    if (llc >= 0)
        managed_.push_back(static_cast<ResourceIndex>(llc));
    if (mb >= 0)
        managed_.push_back(static_cast<ResourceIndex>(mb));
    if (managed_.empty())
        SATORI_FATAL("CoPart requires an LLC-ways or memory-bandwidth "
                     "resource");
}

void
CoPartPolicy::stepFsm(ResourceIndex r, const std::vector<double>& speedup)
{
    const double avg = mean(speedup);
    // Classify: jobs suffering disproportionately take, jobs doing
    // disproportionately well give. Hysteresis avoids oscillation.
    JobIndex take = 0, give = 0;
    double worst = 2.0, best = -1.0;
    bool has_take = false, has_give = false;
    for (JobIndex j = 0; j < num_jobs_; ++j) {
        const State s =
            speedup[j] < avg * (1.0 - kHysteresis) ? State::Take
            : speedup[j] > avg * (1.0 + kHysteresis)
                ? State::Give
                : State::Hold;
        if (s == State::Take && speedup[j] < worst) {
            worst = speedup[j];
            take = j;
            has_take = true;
        }
        if (s == State::Give && speedup[j] > best &&
            current_.units(r, j) > 1) {
            best = speedup[j];
            give = j;
            has_give = true;
        }
    }
    if (has_take && has_give)
        current_.transferUnit(r, give, take);
}

Configuration
CoPartPolicy::decide(const sim::IntervalObservation& obs)
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

    const std::vector<double> spd = speedups(avg_ips, avg_iso);
    // The two FSMs act on alternating epochs, staying aware of each
    // other's latest allocation without acting jointly.
    stepFsm(managed_[turn_ % managed_.size()], spd);
    ++turn_;
    return current_;
}

void
CoPartPolicy::reset()
{
    current_ = Configuration::equalPartition(platform_, num_jobs_);
    turn_ = 0;
    acc_ips_.clear();
    acc_iso_.clear();
    acc_n_ = 0;
}

} // namespace policies
} // namespace satori
