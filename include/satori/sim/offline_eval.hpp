/**
 * @file
 * Offline exhaustive evaluation against the analytic model: the
 * substrate for the paper's brute-force Oracle (Sec. IV). Because
 * the simulator's true objective is computable, the Oracle here is
 * exact (the paper needed hours of offline search per mix).
 *
 * A search builds per-job IPS and speedup (IPS / isolation IPS)
 * lookup tables over per-resource unit counts, lists each resource's
 * compositions once as table offsets, and walks the configuration
 * space as an odometer over those lists (resource 0 most significant,
 * the ConfigurationSpace::at() order) one row at a time: a row is
 * every visited configuration that shares the outer resources'
 * compositions. Per-job row tables over (outer offset, last
 * resource's composition) make an exhaustive row one contiguous slice
 * per job (a strided row is gathered into SoA buffers); one
 * lane-parallel linalg::simd call scores it under the default metrics,
 * and an argmax runs over it in index order. Nothing is unranked or
 * allocated per configuration, and only the argmax is materialized.
 * A cold 3.3M-configuration search takes about 26 ms (bench_overhead's
 * BM_OracleSearchCold). Results are memoized per phase signature and
 * exact weights since the model is deterministic given the phases.
 */

#ifndef SATORI_SIM_OFFLINE_EVAL_HPP
#define SATORI_SIM_OFFLINE_EVAL_HPP

#include <cstdint>
#include <map>
#include <vector>

#include "satori/config/enumeration.hpp"
#include "satori/metrics/metrics.hpp"
#include "satori/sim/server.hpp"

namespace satori {
namespace sim {

/** Result of an exhaustive search for one phase signature. */
struct OracleResult
{
    Configuration config;     ///< The argmax configuration.
    double objective = 0.0;   ///< w_t * T + w_f * F at the argmax.
    double throughput = 0.0;  ///< Normalized throughput at the argmax.
    double fairness = 0.0;    ///< Fairness at the argmax.
    bool exhaustive = true;   ///< False if the search was strided.
};

/** Offline-search knobs. */
struct OfflineEvalOptions
{
    /**
     * Maximum configurations evaluated per search; spaces larger
     * than this are sampled with a uniform stride (the result is
     * flagged non-exhaustive). Must be at least 1.
     */
    std::uint64_t max_evals = 30'000'000;

    ThroughputMetric tmetric = ThroughputMetric::SumIps;
    FairnessMetric fmetric = FairnessMetric::JainIndex;
};

/**
 * Evaluates configurations offline with the noiseless model and
 * finds per-phase-signature optima.
 */
class OfflineEvaluator
{
  public:
    /**
     * Attach to a server (read-only; never mutates it). Fatal if
     * @p options.max_evals is 0.
     */
    explicit OfflineEvaluator(const SimulatedServer& server,
                              OfflineEvalOptions options = {});

    /**
     * Normalized (throughput, fairness) of @p config with jobs pinned
     * at @p phase_signature.
     */
    [[nodiscard]] std::pair<double, double> metricsFor(
        const Configuration& config,
        const std::vector<std::size_t>& phase_signature) const;

    /**
     * Exhaustive (or strided) argmax of w_t * T + w_f * F over the
     * whole configuration space at @p phase_signature; memoized.
     */
    const OracleResult& bestFor(
        const std::vector<std::size_t>& phase_signature, double w_t,
        double w_f);

    /** The configuration space being searched. */
    [[nodiscard]] const ConfigurationSpace& space() const { return space_; }

    /** Number of distinct searches performed (memo misses). */
    [[nodiscard]] std::size_t searchesPerformed() const { return searches_; }

  private:
    /** Per-job IPS and speedup lookup tables for one phase signature. */
    struct IpsTables;

    [[nodiscard]] IpsTables buildTables(
        const std::vector<std::size_t>& phase_signature) const;

    const SimulatedServer& server_;
    OfflineEvalOptions options_;
    ConfigurationSpace space_;

    /** Phase signature and the weights' exact bit patterns. */
    using MemoKey = std::pair<std::vector<std::size_t>,
                              std::pair<std::uint64_t, std::uint64_t>>;
    std::map<MemoKey, OracleResult> memo_;
    std::size_t searches_ = 0;
};

} // namespace sim

} // namespace satori

#endif // SATORI_SIM_OFFLINE_EVAL_HPP
