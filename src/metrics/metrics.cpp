#include "satori/metrics/metrics.hpp"

#include <numeric>

#include "satori/common/logging.hpp"
#include "satori/common/math.hpp"

namespace satori {

namespace {

/** Raw throughput of a speedup metric from per-job speedups. */
double
speedupThroughput(ThroughputMetric metric, const std::vector<double>& speedup)
{
    switch (metric) {
      case ThroughputMetric::GeomeanSpeedup:
        return geomean(speedup);
      case ThroughputMetric::HarmonicSpeedup:
        return harmonicMean(speedup);
      case ThroughputMetric::SumIps:
        break;
    }
    SATORI_PANIC("speedupThroughput needs a speedup metric");
}

} // namespace

std::vector<double>
speedups(const std::vector<Ips>& ips, const std::vector<Ips>& isolation_ips)
{
    SATORI_ASSERT(ips.size() == isolation_ips.size());
    std::vector<double> out(ips.size());
    for (std::size_t i = 0; i < ips.size(); ++i) {
        SATORI_ASSERT(isolation_ips[i] > 0.0);
        out[i] = ips[i] / isolation_ips[i];
    }
    return out;
}

double
jainFairnessIndex(const std::vector<double>& speedup)
{
    if (speedup.size() < 2)
        return 1.0; // a single job is trivially treated fairly
    const double cov = coefficientOfVariation(speedup);
    return 1.0 / (1.0 + cov * cov);
}

double
oneMinusCovFairness(const std::vector<double>& speedup)
{
    if (speedup.size() < 2)
        return 1.0;
    return 1.0 - coefficientOfVariation(speedup);
}

double
fairness(FairnessMetric metric, const std::vector<double>& speedup)
{
    switch (metric) {
      case FairnessMetric::JainIndex:
        return jainFairnessIndex(speedup);
      case FairnessMetric::OneMinusCov:
        return oneMinusCovFairness(speedup);
    }
    SATORI_PANIC("unknown FairnessMetric");
}

double
throughput(ThroughputMetric metric, const std::vector<Ips>& ips,
           const std::vector<Ips>& isolation_ips)
{
    switch (metric) {
      case ThroughputMetric::SumIps:
        return std::accumulate(ips.begin(), ips.end(), 0.0);
      case ThroughputMetric::GeomeanSpeedup:
      case ThroughputMetric::HarmonicSpeedup:
        return speedupThroughput(metric, speedups(ips, isolation_ips));
    }
    SATORI_PANIC("unknown ThroughputMetric");
}

double
colocationThroughputScale(std::size_t num_jobs)
{
    SATORI_ASSERT(num_jobs >= 1);
    return std::min(1.0, 2.0 / static_cast<double>(num_jobs) + 0.2);
}

double
normalizedThroughput(ThroughputMetric metric, const std::vector<Ips>& ips,
                     const std::vector<Ips>& isolation_ips)
{
    switch (metric) {
      case ThroughputMetric::SumIps: {
        const double total = std::accumulate(ips.begin(), ips.end(), 0.0);
        const double iso_total = std::accumulate(isolation_ips.begin(),
                                                 isolation_ips.end(), 0.0);
        SATORI_ASSERT(iso_total > 0.0);
        const double scale = colocationThroughputScale(ips.size());
        return clamp(total / iso_total / scale, 0.0, 1.0);
      }
      case ThroughputMetric::GeomeanSpeedup:
      case ThroughputMetric::HarmonicSpeedup:
        return normalizedSpeedupThroughput(metric,
                                           speedups(ips, isolation_ips));
    }
    SATORI_PANIC("unknown ThroughputMetric");
}

double
normalizedSpeedupThroughput(ThroughputMetric metric,
                            const std::vector<double>& speedup)
{
    const double scale = colocationThroughputScale(speedup.size());
    return clamp(speedupThroughput(metric, speedup) / scale, 0.0, 1.0);
}

double
normalizedFairness(FairnessMetric metric, const std::vector<double>& speedup)
{
    return clamp(fairness(metric, speedup), 0.0, 1.0);
}

} // namespace satori
