#include "satori/policies/parties_policy.hpp"

#include "satori/common/logging.hpp"
#include "satori/common/math.hpp"
#include "satori/metrics/metrics.hpp"

namespace satori {
namespace policies {

namespace {

/** Minimum objective gain to accept a move. */
constexpr double kAcceptEpsilon = 0.001;

/** Weights on throughput and fairness in the modified objective. */
constexpr double kWeightT = 0.5;
constexpr double kWeightF = 0.5;

/**
 * Controller intervals per adjustment step: PARTIES monitors a
 * ~500 ms window before judging each one-resource adjustment.
 */
constexpr int kPeriodIntervals = 5;

} // namespace

PartiesPolicy::PartiesPolicy(const PlatformSpec& platform,
                             std::size_t num_jobs)
    : platform_(platform), num_jobs_(num_jobs),
      current_(Configuration::equalPartition(platform, num_jobs))
{
}

Configuration
PartiesPolicy::decide(const sim::IntervalObservation& obs)
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

    const double observed =
        kWeightT * normalizedThroughput(ThroughputMetric::SumIps,
                                        avg_ips, avg_iso) +
        kWeightF * normalizedFairness(FairnessMetric::JainIndex,
                                      speedups(avg_ips, avg_iso));

    if (trial_pending_) {
        trial_pending_ = false;
        if (observed < pre_trial_objective_ + kAcceptEpsilon) {
            // Move did not help: undo it and count a failure in this
            // dimension; after enough failures rotate to the next
            // resource (the gradient-descent "one dimension at a
            // time" sweep).
            current_ = pre_trial_config_;
            if (++failures_in_dimension_ >= 2) {
                failures_in_dimension_ = 0;
                dimension_ = (dimension_ + 1) % platform_.numResources();
            }
            return current_;
        }
        failures_in_dimension_ = 0;
        // Accepted: keep walking this dimension from the new point.
    }

    // PARTIES iterates per-application FSMs: each adjustment step
    // considers the next application in round-robin order. An app
    // performing below the mean is upsized in the current dimension
    // (taking from the best-performing app); one above the mean is
    // downsized (giving to the worst-performing app). The measured
    // accept test below keeps only moves that improve the combined
    // objective.
    const std::vector<double> spd = speedups(avg_ips, avg_iso);
    const double avg = mean(spd);
    const JobIndex subject = next_app_ % num_jobs_;
    ++next_app_;
    JobIndex target, donor;
    if (spd[subject] <= avg) {
        target = subject;
        donor = subject;
        double best = -1.0;
        for (JobIndex j = 0; j < num_jobs_; ++j) {
            if (j == subject || current_.units(dimension_, j) <= 1)
                continue;
            if (spd[j] > best) {
                best = spd[j];
                donor = j;
            }
        }
    } else {
        donor = subject;
        target = subject;
        double worst = 2.0;
        for (JobIndex j = 0; j < num_jobs_; ++j) {
            if (j == subject)
                continue;
            if (spd[j] < worst) {
                worst = spd[j];
                target = j;
            }
        }
        if (current_.units(dimension_, donor) <= 1)
            target = donor; // nothing to give
    }
    const bool has_donor = donor != target;
    if (!has_donor) {
        // Dimension exhausted for this direction; rotate.
        dimension_ = (dimension_ + 1) % platform_.numResources();
        return current_;
    }

    pre_trial_config_ = current_;
    pre_trial_objective_ = observed;
    if (current_.transferUnit(dimension_, donor, target))
        trial_pending_ = true;
    return current_;
}

void
PartiesPolicy::reset()
{
    current_ = Configuration::equalPartition(platform_, num_jobs_);
    trial_pending_ = false;
    dimension_ = 0;
    failures_in_dimension_ = 0;
    next_app_ = 0;
    acc_ips_.clear();
    acc_iso_.clear();
    acc_n_ = 0;
}

} // namespace policies
} // namespace satori
