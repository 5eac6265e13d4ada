#include "satori/core/telemetry_guard.hpp"

#include <algorithm>
#include <cmath>

#include "satori/common/logging.hpp"
#include "satori/common/stats.hpp"
#include "satori/obs/obs.hpp"
#include "satori/persist/codec.hpp"
#include "satori/persist/state.hpp"

namespace satori {
namespace core {
namespace {

/** Consistent gaussian sigma estimate from a MAD (the 1.4826 factor). */
constexpr double kMadToSigma = 1.4826;

/**
 * Hampel gate: reject a sample whose deviation from the rolling
 * median exceeds this many scaled-MAD sigmas. 4.0 keeps the
 * false-positive rate per clean gaussian sample below 1e-4.
 */
constexpr double kHampelThreshold = 4.0;

/** Rolling window length backing the median/MAD estimates. */
constexpr std::size_t kHampelWindow = 11;

/** Identical consecutive reads that mark a counter frozen. */
constexpr std::size_t kFreezeRun = 3;

double
medianOf(std::vector<double> v)
{
    SATORI_ASSERT(!v.empty());
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    double m = v[mid];
    if (v.size() % 2 == 0) {
        const double lo =
            *std::max_element(v.begin(), v.begin() + mid);
        m = 0.5 * (m + lo);
    }
    return m;
}

} // namespace

TelemetryGuard::TelemetryGuard(std::size_t num_jobs, bool enabled)
    : num_jobs_(num_jobs), enabled_(enabled), jobs_(num_jobs)
{
    SATORI_ASSERT(num_jobs_ >= 1);
}

void
TelemetryGuard::accept(JobHistory& h, double value)
{
    if (h.window.size() < kHampelWindow) {
        h.window.push_back(value);
    } else {
        h.window[h.next] = value;
        h.next = (h.next + 1) % kHampelWindow;
    }
    h.last_good = value;
    h.has_last_good = true;
    h.bad_streak = 0;
}

SampleHealth
TelemetryGuard::filter(IntervalObservation& obs)
{
    if (!enabled_)
        return SampleHealth::Healthy;
    ++stats_.intervals;

    // A wrong-shape observation cannot be attributed to jobs at all:
    // reject it wholesale and, when possible, stand in the last good
    // vectors so downstream size invariants hold.
    if (obs.ips.size() != num_jobs_ ||
        obs.isolation_ips.size() != num_jobs_) {
        ++stats_.size_mismatches;
        ++stats_.unusable_intervals;
        obs.ips.assign(num_jobs_, 0.0);
        for (std::size_t j = 0; j < num_jobs_; ++j)
            obs.ips[j] = jobs_[j].has_last_good ? jobs_[j].last_good : 1.0;
        if (last_good_iso_.size() == num_jobs_)
            obs.isolation_ips = last_good_iso_;
        else
            obs.isolation_ips.assign(num_jobs_, 1.0);
        SATORI_OBS_METRIC(guard_unusable.inc());
        return SampleHealth::Unusable;
    }

    // The isolation baseline is refreshed rarely; any positive finite
    // snapshot is kept as the fallback for mismatched intervals.
    bool iso_ok = true;
    for (const double v : obs.isolation_ips)
        if (!std::isfinite(v) || v <= 0.0)
            iso_ok = false;
    if (iso_ok)
        last_good_iso_ = obs.isolation_ips;
    else if (last_good_iso_.size() == num_jobs_)
        obs.isolation_ips = last_good_iso_;

    bool any_repair = false;
    bool any_unusable = !iso_ok && last_good_iso_.size() != num_jobs_;

    // A reconfiguration legitimately moves every job's IPS level; the
    // Hampel gate only judges samples taken under the same allocation
    // as the previous interval. (Finite/freeze checks always apply.)
    const bool config_stable =
        has_last_config_ && obs.config == last_config_;
    last_config_ = obs.config;
    has_last_config_ = true;

    for (std::size_t j = 0; j < num_jobs_; ++j) {
        JobHistory& h = jobs_[j];
        const double raw = obs.ips[j];

        // Stale-counter detection: noisy hardware counters never
        // repeat bit-identically; a run of equal reads means the
        // source froze and the value carries no new information.
        bool frozen = false;
        // Exact repeat is the point: freeze detection wants bitwise
        // equality, not closeness. satori-analyzer: allow(num-float-eq)
        if (h.has_last_raw && raw == h.last_raw) {
            if (++h.freeze_count + 1 >= kFreezeRun) {
                frozen = true;
                ++stats_.frozen_detected;
            }
        } else {
            h.freeze_count = 0;
        }
        h.last_raw = raw;
        h.has_last_raw = true;

        const bool finite_ok = std::isfinite(raw) && raw > 0.0;
        if (!finite_ok)
            ++stats_.non_finite;

        // Hampel gate against the rolling window of accepted values.
        bool outlier = false;
        if (finite_ok && !frozen && config_stable &&
            h.window.size() >= std::max<std::size_t>(5, kHampelWindow / 2)) {
            const double med = medianOf(h.window);
            std::vector<double> dev;
            dev.reserve(h.window.size());
            for (const double v : h.window)
                dev.push_back(std::abs(v - med));
            const double mad = medianOf(std::move(dev));
            // Floor the scale so a quiet window cannot turn ordinary
            // noise into outliers.
            const double sigma =
                std::max(kMadToSigma * mad, 1e-3 * std::abs(med));
            if (std::abs(raw - med) > kHampelThreshold * sigma) {
                outlier = true;
                ++stats_.outliers_gated;
            }
        }

        if (finite_ok && !frozen && !outlier) {
            accept(h, raw);
            continue;
        }

        // Bad sample: substitute the last good value while the
        // staleness budget lasts.
        ++h.bad_streak;
        if (h.bad_streak <= kStalenessBudget &&
            h.has_last_good) {
            obs.ips[j] = h.last_good;
            ++stats_.repaired_values;
            any_repair = true;
            continue;
        }

        // Budget exhausted. A finite value that kept deviating is a
        // regime shift - accept it and reseed the window so the gate
        // tracks the new level. A frozen stream is not a shift (real
        // counters never repeat exactly), and a non-finite one has no
        // information at all: both leave the interval unusable.
        if (finite_ok && !frozen) {
            h.window.clear();
            h.next = 0;
            accept(h, raw);
            ++stats_.regime_accepts;
            any_repair = true;
        } else {
            if (h.has_last_good)
                obs.ips[j] = h.last_good; // keep the vector finite
            else
                obs.ips[j] = 1.0;
            any_unusable = true;
        }
    }

    if (any_unusable) {
        ++stats_.unusable_intervals;
        SATORI_OBS_METRIC(guard_unusable.inc());
        return SampleHealth::Unusable;
    }
    if (any_repair) {
        SATORI_OBS_METRIC(guard_repaired.inc());
        return SampleHealth::Repaired;
    }
    SATORI_OBS_METRIC(guard_healthy.inc());
    return SampleHealth::Healthy;
}

void
TelemetryGuard::reset()
{
    jobs_.assign(num_jobs_, JobHistory{});
    last_good_iso_.clear();
    has_last_config_ = false;
    stats_ = TelemetryGuardStats{};
}

void
TelemetryGuard::saveState(persist::StateWriter& w) const
{
    w.putSize(num_jobs_);
    for (const JobHistory& h : jobs_) {
        w.putDoubleVec(h.window);
        w.putSize(h.next);
        w.putDouble(h.last_good);
        w.putBool(h.has_last_good);
        w.putDouble(h.last_raw);
        w.putBool(h.has_last_raw);
        w.putSize(h.freeze_count);
        w.putSize(h.bad_streak);
    }
    w.putDoubleVec(last_good_iso_);
    persist::putConfiguration(w, last_config_);
    w.putBool(has_last_config_);
    w.putSize(stats_.intervals);
    w.putSize(stats_.repaired_values);
    w.putSize(stats_.outliers_gated);
    w.putSize(stats_.frozen_detected);
    w.putSize(stats_.non_finite);
    w.putSize(stats_.size_mismatches);
    w.putSize(stats_.unusable_intervals);
    w.putSize(stats_.regime_accepts);
}

void
TelemetryGuard::restoreState(persist::StateReader& r)
{
    const std::size_t saved_jobs = r.getSize();
    if (saved_jobs != num_jobs_)
        SATORI_FATAL("telemetry-guard state has " +
                     std::to_string(saved_jobs) +
                     " jobs, this guard tracks " +
                     std::to_string(num_jobs_));
    for (JobHistory& h : jobs_) {
        h.window = r.getDoubleVec();
        h.next = r.getSize();
        h.last_good = r.getDouble();
        h.has_last_good = r.getBool();
        h.last_raw = r.getDouble();
        h.has_last_raw = r.getBool();
        h.freeze_count = r.getSize();
        h.bad_streak = r.getSize();
    }
    last_good_iso_ = r.getDoubleVec();
    last_config_ = persist::getConfiguration(r);
    has_last_config_ = r.getBool();
    stats_.intervals = r.getSize();
    stats_.repaired_values = r.getSize();
    stats_.outliers_gated = r.getSize();
    stats_.frozen_detected = r.getSize();
    stats_.non_finite = r.getSize();
    stats_.size_mismatches = r.getSize();
    stats_.unusable_intervals = r.getSize();
    stats_.regime_accepts = r.getSize();
}

} // namespace core
} // namespace satori
