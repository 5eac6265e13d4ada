/**
 * @file
 * Comparison reporting: runs a set of policies plus the Balanced
 * Oracle on identical copies of a scenario and expresses results as
 * "% of Balanced Oracle" - the normalization every evaluation figure
 * in the paper uses (Sec. IV).
 */

#ifndef SATORI_HARNESS_REPORT_HPP
#define SATORI_HARNESS_REPORT_HPP

#include <string>
#include <vector>

#include "satori/core/controller.hpp"
#include "satori/harness/experiment.hpp"
#include "satori/workloads/mixes.hpp"

namespace satori {
namespace harness {

/** One policy's outcome on one mix, normalized to the oracle. */
struct PolicyScore
{
    std::string policy;
    ExperimentResult result;
    double throughput_pct = 0.0; ///< mean T / oracle mean T.
    double fairness_pct = 0.0;   ///< mean F / oracle mean F.
    double worst_job_pct = 0.0;  ///< worst-job speedup / oracle's.
};

/** A full comparison on one mix. */
struct MixComparison
{
    std::string mix_label;
    ExperimentResult oracle; ///< The Balanced Oracle run.
    std::vector<PolicyScore> scores;

    /** Score for @p policy; throws if absent. */
    [[nodiscard]] const PolicyScore& score(const std::string& policy) const;
};

/**
 * Run every policy in @p policy_names and the Balanced Oracle on
 * identical fresh servers (same platform, mix, seed, noise stream)
 * and normalize against the oracle.
 *
 * @param satori_options Applied to SATORI-variant policies; its
 *        objective's metrics are the ones the Oracle maximizes.
 * @throws FatalError if @p options scores with a different
 *         throughput/fairness metric pair than that objective.
 */
MixComparison comparePolicies(const PlatformSpec& platform,
                              const workloads::JobMix& mix,
                              const std::vector<std::string>& policy_names,
                              const ExperimentOptions& options,
                              std::uint64_t seed = 42,
                              core::SatoriOptions satori_options = {});

/** Mean of a member across comparisons (aggregate-figure helper). */
[[nodiscard]] double meanThroughputPct(const std::vector<MixComparison>& comps,
                         const std::string& policy);

/** Mean fairness %-of-oracle across comparisons. */
[[nodiscard]] double meanFairnessPct(const std::vector<MixComparison>& comps,
                       const std::string& policy);

/** Mean worst-job %-of-oracle across comparisons. */
[[nodiscard]] double meanWorstJobPct(const std::vector<MixComparison>& comps,
                       const std::string& policy);

} // namespace harness
} // namespace satori

#endif // SATORI_HARNESS_REPORT_HPP
