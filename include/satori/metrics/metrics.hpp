/**
 * @file
 * System-throughput and fairness metrics (Sec. II).
 *
 * Throughput can be expressed as sum of IPS, geometric mean of
 * speedups, or harmonic mean of speedups; fairness as Jain's index
 * (1 / (1 + CoV^2)) or 1 - CoV of the speedups relative to isolated
 * execution. The paper's defaults are sum-of-IPS and Jain's index.
 */

#ifndef SATORI_METRICS_METRICS_HPP
#define SATORI_METRICS_METRICS_HPP

#include <vector>

#include "satori/common/types.hpp"

namespace satori {

/** Throughput metric selector. */
enum class ThroughputMetric
{
    SumIps,            ///< Sum of instructions per second (default).
    GeomeanSpeedup,    ///< Geometric mean of per-job speedups.
    HarmonicSpeedup,   ///< Harmonic mean of per-job speedups.
};

/** Fairness metric selector. */
enum class FairnessMetric
{
    JainIndex,   ///< 1 / (1 + CoV^2), in (0, 1] (default).
    OneMinusCov, ///< 1 - CoV; 1 at perfect fairness, can be negative.
};

/**
 * Per-job speedups relative to isolated execution: ips[i] / iso[i].
 * @pre equal sizes; iso[i] > 0.
 */
[[nodiscard]] std::vector<double> speedups(const std::vector<Ips>& ips,
                             const std::vector<Ips>& isolation_ips);

/** Jain's fairness index of the given speedups: 1 / (1 + CoV^2). */
[[nodiscard]] double jainFairnessIndex(const std::vector<double>& speedup);

/** The 1 - CoV fairness metric of the given speedups. */
[[nodiscard]] double oneMinusCovFairness(const std::vector<double>& speedup);

/** Fairness under the selected metric. */
[[nodiscard]] double fairness(FairnessMetric metric, const std::vector<double>& speedup);

/**
 * Raw throughput under the selected metric (sum of IPS for SumIps;
 * a speedup statistic otherwise).
 */
[[nodiscard]] double throughput(ThroughputMetric metric, const std::vector<Ips>& ips,
                  const std::vector<Ips>& isolation_ips);

/**
 * Scale that maps achievable co-located throughput onto [0, 1]
 * (Sec. III-B requires both goals to occupy the same range): with M
 * jobs sharing one machine, the attainable sum-of-speedups fraction
 * is roughly 2/M + 0.2 under good partitioning, so dividing by this
 * scale stretches the throughput goal across the full unit range the
 * fairness index already occupies.
 */
[[nodiscard]] double colocationThroughputScale(std::size_t num_jobs);

/**
 * Throughput normalized to [0, 1] so it is comparable with fairness
 * in the combined objective (Sec. III-B): sum-of-IPS is divided by
 * the sum of isolation IPS and by colocationThroughputScale();
 * speedup statistics are already relative and are clamped to [0, 1].
 */
[[nodiscard]] double normalizedThroughput(ThroughputMetric metric,
                            const std::vector<Ips>& ips,
                            const std::vector<Ips>& isolation_ips);

/**
 * normalizedThroughput() of a speedup metric (GeomeanSpeedup or
 * HarmonicSpeedup) from precomputed per-job speedups, for callers
 * that already hold them; normalizedThroughput() computes them with
 * speedups() and calls this.
 * @pre metric != ThroughputMetric::SumIps.
 */
[[nodiscard]] double normalizedSpeedupThroughput(
    ThroughputMetric metric, const std::vector<double>& speedup);

/**
 * Normalize a fairness value to [0, 1]: Jain's index already is;
 * 1 - CoV is clamped from below at 0 (Sec. III-B notes it has no
 * lower bound).
 */
[[nodiscard]] double normalizedFairness(FairnessMetric metric,
                          const std::vector<double>& speedup);

} // namespace satori

#endif // SATORI_METRICS_METRICS_HPP
