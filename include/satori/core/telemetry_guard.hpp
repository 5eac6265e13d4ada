/**
 * @file
 * Telemetry validation in front of the controller: a guard layer that
 * sanitizes one IntervalObservation before any of its values reach
 * the goal recorder or the GP.
 *
 * A real deployment's pqos counters drop reads, return NaN, freeze,
 * and spike; a controller that feeds such samples into its proxy
 * model learns garbage. The guard applies, per job:
 *
 *   - rejection of non-finite or non-positive IPS values;
 *   - stale-counter detection (a noisy counter never repeats exactly;
 *     3 identical reads in a row mark the stream stale);
 *   - a Hampel outlier gate (deviation from the median of the last 11
 *     accepted values beyond 4 scaled-MAD sigmas);
 *   - last-good-sample substitution, bounded by a staleness budget so
 *     a genuine regime shift is eventually accepted instead of being
 *     filtered forever.
 *
 * The thresholds are constants in telemetry_guard.cpp.
 *
 * Size-mismatched observations (wrong job count) are rejected
 * outright. The guard reports each interval as Healthy, Repaired
 * (some values substituted), or Unusable (the controller should not
 * learn from it at all).
 */

#ifndef SATORI_CORE_TELEMETRY_GUARD_HPP
#define SATORI_CORE_TELEMETRY_GUARD_HPP

#include <cstddef>
#include <vector>

#include "satori/common/types.hpp"
#include "satori/config/observation.hpp"

namespace satori {
namespace persist {
class StateWriter;
class StateReader;
} // namespace persist
} // namespace satori

namespace satori {
namespace core {

/** Per-interval verdict of the guard. */
enum class SampleHealth
{
    Healthy,  ///< Delivered as measured.
    Repaired, ///< Some values were substituted; usable for learning.
    Unusable, ///< Do not learn from this interval.
};

/** Cumulative guard activity (diagnostics and tests). */
struct TelemetryGuardStats
{
    std::size_t intervals = 0;         ///< Observations filtered.
    std::size_t repaired_values = 0;   ///< Individual substitutions.
    std::size_t outliers_gated = 0;    ///< Hampel rejections.
    std::size_t frozen_detected = 0;   ///< Stale-counter rejections.
    std::size_t non_finite = 0;        ///< NaN/inf/<=0 rejections.
    std::size_t size_mismatches = 0;   ///< Wrong-shape observations.
    std::size_t unusable_intervals = 0;///< Verdicts of Unusable.
    std::size_t regime_accepts = 0;    ///< Budget-exhausted accepts.
};

/** Validates and repairs observations for one controller instance. */
class TelemetryGuard
{
  public:
    /**
     * Consecutive bad samples of one job repaired by last-good
     * substitution before the guard stops repairing: a finite value
     * is then accepted as a regime shift, a non-finite one marks the
     * interval unusable.
     */
    static constexpr std::size_t kStalenessBudget = 5;

    /** @param enabled false reproduces the unguarded (vanilla) path. */
    explicit TelemetryGuard(std::size_t num_jobs, bool enabled = true);

    /**
     * Validate @p obs in place. Bad per-job IPS values are replaced
     * with the job's last good value while the staleness budget
     * lasts. With the guard disabled, always returns Healthy and
     * leaves @p obs untouched.
     */
    SampleHealth filter(IntervalObservation& obs);

    /** Cumulative activity counters. */
    [[nodiscard]] const TelemetryGuardStats& stats() const { return stats_; }

    /** Forget all history (controller reset). */
    void reset();

    /** Serialize all per-job history and counters. */
    void saveState(persist::StateWriter& w) const;

    /** Restore state saved by saveState (same job count required). */
    void restoreState(persist::StateReader& r);

  private:
    /** Rolling per-job sample history for the Hampel gate. */
    struct JobHistory
    {
        std::vector<double> window;  ///< Accepted values, ring order.
        std::size_t next = 0;        ///< Ring insertion cursor.
        double last_good = 0.0;      ///< Most recent accepted value.
        bool has_last_good = false;
        double last_raw = 0.0;       ///< Previous delivered raw value.
        bool has_last_raw = false;
        std::size_t freeze_count = 0;///< Identical raw reads in a row.
        std::size_t bad_streak = 0;  ///< Consecutive repaired reads.
    };

    void accept(JobHistory& h, double value);

    std::size_t num_jobs_;
    bool enabled_;
    std::vector<JobHistory> jobs_;
    std::vector<Ips> last_good_iso_;
    /** Config of the previous interval: an allocation change moves
     *  every job's true IPS level, so the outlier gate stands down. */
    Configuration last_config_;
    bool has_last_config_ = false;
    TelemetryGuardStats stats_;
};

} // namespace core
} // namespace satori

#endif // SATORI_CORE_TELEMETRY_GUARD_HPP
