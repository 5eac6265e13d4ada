#include "satori/sim/offline_eval.hpp"

#include <algorithm>
#include <cmath>

#include "satori/common/logging.hpp"
#include "satori/obs/obs.hpp"

namespace satori {
namespace sim {

struct OfflineEvaluator::IpsTables
{
    /** ips[j][flat unit index] with flat = sum_r (u_r - 1) * stride_r. */
    std::vector<std::vector<double>> ips;
    std::vector<std::size_t> strides; ///< Per-resource flat strides.
    std::vector<Ips> isolation;       ///< Isolation IPS at this signature.
    double isolation_sum = 0.0;
};

OfflineEvaluator::OfflineEvaluator(const SimulatedServer& server,
                                   OfflineEvalOptions options)
    : server_(server), options_(options),
      space_(server.platform(), server.numJobs())
{
    if (options_.max_evals == 0)
        SATORI_FATAL("OfflineEvalOptions::max_evals must be at least 1");
}

OfflineEvaluator::IpsTables
OfflineEvaluator::buildTables(
    const std::vector<std::size_t>& phase_signature) const
{
    const PlatformSpec& platform = server_.platform();
    const std::size_t num_jobs = server_.numJobs();
    const std::size_t num_res = platform.numResources();

    IpsTables t;
    // A job can hold at most U_r - (M - 1) units of resource r (every
    // other job keeps at least one).
    std::vector<int> dims(num_res);
    t.strides.assign(num_res, 0);
    std::size_t table_size = 1;
    for (std::size_t r = 0; r < num_res; ++r) {
        dims[r] = platform.units(r) - static_cast<int>(num_jobs) + 1;
        SATORI_ASSERT(dims[r] >= 1);
        t.strides[r] = table_size;
        table_size *= static_cast<std::size_t>(dims[r]);
    }

    t.ips.assign(num_jobs, std::vector<double>(table_size, 0.0));
    Configuration scratch(num_jobs, std::vector<int>(num_res * num_jobs, 1));
    for (std::size_t j = 0; j < num_jobs; ++j) {
        // Enumerate this job's possible unit vectors with an odometer
        // over resources; other jobs' units are irrelevant to job j's
        // model, so a dummy-but-valid configuration is unnecessary -
        // we call the model through the server's allocation view on a
        // scratch configuration carrying only job j's true units.
        std::vector<int> units(num_res, 1);
        for (std::size_t flat = 0; flat < table_size; ++flat) {
            for (std::size_t r = 0; r < num_res; ++r)
                scratch.units(r, j) = units[r];
            const auto view = server_.allocationView(scratch, j);
            const auto& phase =
                server_.job(j).profile().phases.at(phase_signature[j]);
            t.ips[j][flat] =
                perfmodel::evaluatePhase(phase, server_.machine(), view)
                    .ips;
            // Advance the odometer.
            for (std::size_t r = 0; r < num_res; ++r) {
                if (units[r] < dims[r]) {
                    ++units[r];
                    break;
                }
                units[r] = 1;
            }
        }
        for (std::size_t r = 0; r < num_res; ++r)
            scratch.units(r, j) = 1;
    }

    t.isolation.resize(num_jobs);
    for (std::size_t j = 0; j < num_jobs; ++j) {
        t.isolation[j] =
            server_.isolationIpsAt(j, phase_signature[j]);
        t.isolation_sum += t.isolation[j];
    }
    return t;
}

std::pair<double, double>
OfflineEvaluator::metricsFor(
    const Configuration& config,
    const std::vector<std::size_t>& phase_signature) const
{
    const std::vector<Ips> ips =
        server_.evaluateIps(config, phase_signature);
    std::vector<Ips> iso(server_.numJobs());
    for (std::size_t j = 0; j < server_.numJobs(); ++j)
        iso[j] = server_.isolationIpsAt(j, phase_signature[j]);
    const double t = normalizedThroughput(options_.tmetric, ips, iso);
    const double f =
        normalizedFairness(options_.fmetric, speedups(ips, iso));
    return {t, f};
}

const OracleResult&
OfflineEvaluator::bestFor(const std::vector<std::size_t>& phase_signature,
                          double w_t, double w_f)
{
    const MemoKey key{phase_signature,
                      {static_cast<std::int64_t>(std::llround(w_t * 1e6)),
                       static_cast<std::int64_t>(std::llround(w_f * 1e6))}};
    const auto hit = memo_.find(key);
    if (hit != memo_.end())
        return hit->second;

    ++searches_;
    SATORI_OBS_SPAN("oracle.search");
    const IpsTables tables = buildTables(phase_signature);
    const PlatformSpec& platform = server_.platform();
    const std::size_t num_jobs = server_.numJobs();
    const std::size_t num_res = platform.numResources();

    const std::uint64_t total = space_.size();
    const std::uint64_t stride =
        total <= options_.max_evals
            ? 1
            : (total + options_.max_evals - 1) / options_.max_evals;
    SATORI_OBS_METRIC(oracle_searches.inc());
    SATORI_OBS_METRIC(
        oracle_configs_scored.inc((total + stride - 1) / stride));

    // The space is the mixed-radix product of one composition set per
    // resource (space_.at() order: resource 0 most significant). List
    // each set once, lexicographically, as per-job IPS-table offsets:
    // offsets[r][c * num_jobs + j] = (u_j - 1) * stride_r.
    std::vector<std::uint64_t> radix(num_res);
    std::vector<std::vector<std::size_t>> offsets(num_res);
    std::vector<int> parts(num_jobs);
    for (std::size_t r = 0; r < num_res; ++r) {
        const CompositionSpace comps(platform.units(r),
                                     static_cast<int>(num_jobs));
        radix[r] = comps.size();
        offsets[r].resize(radix[r] * num_jobs);
        for (std::uint64_t c = 0; c < radix[r]; ++c) {
            comps.at(c, parts);
            for (std::size_t j = 0; j < num_jobs; ++j) {
                offsets[r][c * num_jobs + j] =
                    static_cast<std::size_t>(parts[j] - 1) *
                    tables.strides[r];
            }
        }
    }

    // Odometer over the composition indices. `outer` holds each job's
    // summed offsets over every resource but the last (fastest) one
    // and is recomputed only when an outer digit moves.
    const std::size_t last = num_res - 1;
    std::vector<std::uint64_t> digit(num_res, 0);
    std::vector<std::size_t> outer(num_jobs);
    const auto refresh_outer = [&] {
        std::fill(outer.begin(), outer.end(), 0);
        for (std::size_t r = 0; r < last; ++r) {
            const std::size_t* row = &offsets[r][digit[r] * num_jobs];
            for (std::size_t j = 0; j < num_jobs; ++j)
                outer[j] += row[j];
        }
    };
    refresh_outer();

    OracleResult best;
    best.objective = -1.0;
    best.exhaustive = (stride == 1);
    std::uint64_t best_idx = 0;

    const bool fast_metrics =
        options_.tmetric == ThroughputMetric::SumIps &&
        options_.fmetric == FairnessMetric::JainIndex;

    // Raw table pointers: the inner loop is ~5% faster than indexing
    // through tables.ips on every lookup.
    std::vector<const double*> ips_table(num_jobs);
    for (std::size_t j = 0; j < num_jobs; ++j)
        ips_table[j] = tables.ips[j].data();
    std::vector<double> spd(num_jobs);
    std::vector<Ips> ips_vec(num_jobs);
    for (std::uint64_t idx = 0; idx < total; idx += stride) {
        const std::size_t* inner = &offsets[last][digit[last] * num_jobs];
        double sum_ips = 0.0;
        for (std::size_t j = 0; j < num_jobs; ++j) {
            const double ips = ips_table[j][outer[j] + inner[j]];
            ips_vec[j] = ips;
            sum_ips += ips;
            spd[j] = ips / tables.isolation[j];
        }
        double thr, fair;
        if (fast_metrics) {
            // Inlined sum-IPS throughput + Jain index for speed.
            double m = 0.0;
            for (double s : spd)
                m += s;
            m /= static_cast<double>(num_jobs);
            double ss = 0.0;
            for (double s : spd)
                ss += (s - m) * (s - m);
            const double var = ss / static_cast<double>(num_jobs);
            const double cov2 = m > 0.0 ? var / (m * m) : 0.0;
            fair = 1.0 / (1.0 + cov2);
            thr = std::min(sum_ips / tables.isolation_sum /
                               colocationThroughputScale(num_jobs),
                           1.0);
        } else {
            thr = normalizedThroughput(options_.tmetric, ips_vec,
                                       tables.isolation);
            fair = normalizedFairness(options_.fmetric, spd);
        }

        const double objective = w_t * thr + w_f * fair;
        if (objective > best.objective) {
            best.objective = objective;
            best.throughput = thr;
            best.fairness = fair;
            best_idx = idx;
        }

        // Advance by `stride`, carrying into the outer digits.
        digit[last] += stride;
        if (digit[last] >= radix[last]) {
            for (std::size_t r = last; r > 0 && digit[r] >= radix[r]; --r) {
                digit[r - 1] += digit[r] / radix[r];
                digit[r] %= radix[r];
            }
            if (digit[0] < radix[0])
                refresh_outer();
        }
    }
    best.config = space_.at(best_idx);
    SATORI_ASSERT(best.objective >= 0.0);
    return memo_.emplace(key, std::move(best)).first->second;
}

} // namespace sim
} // namespace satori
