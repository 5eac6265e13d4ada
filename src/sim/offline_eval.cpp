#include "satori/sim/offline_eval.hpp"

#include <algorithm>
#include <bit>

#include "satori/common/logging.hpp"
#include "satori/linalg/simd.hpp"
#include "satori/obs/obs.hpp"

namespace satori {
namespace sim {

struct OfflineEvaluator::IpsTables
{
    /** ips[j][flat unit index] with flat = sum_r (u_r - 1) * stride_r. */
    std::vector<std::vector<double>> ips;
    /** spd[j][flat] = ips[j][flat] / isolation[j], job j's speedup. */
    std::vector<std::vector<double>> spd;
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
    t.spd = t.ips;
    for (std::size_t j = 0; j < num_jobs; ++j) {
        for (double& s : t.spd[j])
            s /= t.isolation[j];
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
                      {std::bit_cast<std::uint64_t>(w_t),
                       std::bit_cast<std::uint64_t>(w_f)}};
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

    // Row tables: job j's IPS and speedup over the last resource's
    // compositions, one row per sum `o` of the outer resources'
    // offsets (o < stride_last): row_ips[j][o * row_len + c] =
    // ips[j][o + offsets[last][c * num_jobs + j]]. A row of the scan
    // below is then one slice of each. On the paper testbed with 5
    // jobs that is 42 x 126 entries per job and table.
    const std::size_t last = num_res - 1;
    const std::size_t row_len = radix[last];
    const std::size_t outer_count = tables.strides[last];
    std::vector<std::vector<double>> row_ips(
        num_jobs, std::vector<double>(outer_count * row_len));
    std::vector<std::vector<double>> row_spd(
        num_jobs, std::vector<double>(outer_count * row_len));
    for (std::size_t j = 0; j < num_jobs; ++j) {
        for (std::size_t o = 0; o < outer_count; ++o) {
            for (std::size_t c = 0; c < row_len; ++c) {
                const std::size_t flat =
                    o + offsets[last][c * num_jobs + j];
                row_ips[j][o * row_len + c] = tables.ips[j][flat];
                row_spd[j][o * row_len + c] = tables.spd[j][flat];
            }
        }
    }

    // Odometer over the composition indices, one row at a time: a row
    // is every visited configuration that shares the outer digits, the
    // last digit running from digit[last] to radix[last] by `stride`.
    // `outer` holds each job's summed offsets over every resource but
    // the last and is recomputed when the row ends and the outer
    // digits carry.
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
    const double scale = colocationThroughputScale(num_jobs);

    // A row's per-job IPS and speedups (SoA, one pointer per job). An
    // exhaustive row is scored in place in the row tables; a strided
    // one is gathered into job j's [j * row_cap, (j + 1) * row_cap)
    // of the buffers first. A row starting at digit 0 is the longest.
    const std::size_t row_cap = (row_len + stride - 1) / stride;
    std::vector<double> ips_buf(num_jobs * row_cap);
    std::vector<double> spd_buf(num_jobs * row_cap);
    std::vector<const double*> ips_rows(num_jobs);
    std::vector<const double*> spd_rows(num_jobs);
    std::vector<double> thr(row_cap);
    std::vector<double> fair(row_cap);
    std::vector<Ips> ips_vec(num_jobs);
    std::vector<double> spd_vec(num_jobs);
    // The speedup tables hold ips / isolation already, so a speedup
    // metric scores spd_vec instead of recomputing it: the same values
    // as normalizedThroughput(), bit for bit.
    const bool speedup_thr = options_.tmetric != ThroughputMetric::SumIps;

    for (std::uint64_t row_idx = 0; row_idx < total;) {
        const std::uint64_t first = digit[last];
        const std::size_t n = (row_len - first + stride - 1) / stride;
        for (std::size_t j = 0; j < num_jobs; ++j) {
            const std::size_t at = outer[j] * row_len + first;
            const double* ips_src = &row_ips[j][at];
            const double* spd_src = &row_spd[j][at];
            if (stride > 1) {
                double* ips_out = &ips_buf[j * row_cap];
                double* spd_out = &spd_buf[j * row_cap];
                for (std::size_t k = 0; k < n; ++k) {
                    ips_out[k] = ips_src[k * stride];
                    spd_out[k] = spd_src[k * stride];
                }
                ips_src = ips_out;
                spd_src = spd_out;
            }
            ips_rows[j] = ips_src;
            spd_rows[j] = spd_src;
        }
        if (fast_metrics) {
            linalg::simd::sumIpsJainInto(thr.data(), fair.data(),
                                         ips_rows.data(), spd_rows.data(),
                                         num_jobs, n, tables.isolation_sum,
                                         scale);
        } else {
            for (std::size_t k = 0; k < n; ++k) {
                for (std::size_t j = 0; j < num_jobs; ++j) {
                    ips_vec[j] = ips_rows[j][k];
                    spd_vec[j] = spd_rows[j][k];
                }
                thr[k] = speedup_thr
                             ? normalizedSpeedupThroughput(options_.tmetric,
                                                           spd_vec)
                             : normalizedThroughput(options_.tmetric,
                                                    ips_vec,
                                                    tables.isolation);
                fair[k] = normalizedFairness(options_.fmetric, spd_vec);
            }
        }

        for (std::size_t k = 0; k < n; ++k) {
            const double objective = w_t * thr[k] + w_f * fair[k];
            if (objective > best.objective) {
                best.objective = objective;
                best.throughput = thr[k];
                best.fairness = fair[k];
                best_idx = row_idx + k * stride;
            }
        }

        // Step past the row and carry into the outer digits.
        row_idx += n * stride;
        digit[last] = first + n * stride;
        for (std::size_t r = last; r > 0 && digit[r] >= radix[r]; --r) {
            digit[r - 1] += digit[r] / radix[r];
            digit[r] %= radix[r];
        }
        if (digit[0] < radix[0])
            refresh_outer();
    }
    best.config = space_.at(best_idx);
    SATORI_ASSERT(best.objective >= 0.0);
    return memo_.emplace(key, std::move(best)).first->second;
}

} // namespace sim
} // namespace satori
