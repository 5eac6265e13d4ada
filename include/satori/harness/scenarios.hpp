/**
 * @file
 * Standard experiment scenarios: server construction and a policy
 * factory covering every technique in the paper's evaluation
 * (Sec. IV: Random, dCAT, CoPart, PARTIES, the three Oracles, and
 * the SATORI variants).
 */

#ifndef SATORI_HARNESS_SCENARIOS_HPP
#define SATORI_HARNESS_SCENARIOS_HPP

#include <memory>
#include <string>
#include <vector>

#include "satori/core/controller.hpp"
#include "satori/policies/policy.hpp"
#include "satori/sim/server.hpp"
#include "satori/workloads/mixes.hpp"

namespace satori {
namespace harness {

/** Build a server for a mix on a platform with a deterministic seed. */
[[nodiscard]] sim::SimulatedServer makeServer(const PlatformSpec& platform,
                                const workloads::JobMix& mix,
                                std::uint64_t seed = 42,
                                double noise_sigma = 0.04);

/**
 * Construct a policy by name. Recognized names:
 * "Equal", "Random", "dCAT", "CoPart", "PARTIES", "CLITE",
 * "SATORI", "SATORI-vanilla" (resilience layer off),
 * "SATORI-static", "Throughput-SATORI", "Fairness-SATORI",
 * "Balanced-Oracle", "Throughput-Oracle", "Fairness-Oracle".
 *
 * @param server Needed by oracle policies (privileged model access);
 *        must outlive the returned policy. Non-oracle policies only
 *        use its platform/job count.
 * @param satori_options Used for the SATORI variants (mode overridden
 *        to match the requested variant); the Oracles maximize with
 *        the metrics of its objective.
 */
std::unique_ptr<policies::PartitioningPolicy> makePolicy(
    const std::string& name, const sim::SimulatedServer& server,
    core::SatoriOptions satori_options = {});

/** The paper's Fig. 7 comparison set, ordered as plotted. */
[[nodiscard]] std::vector<std::string> comparisonPolicyNames();

/** All SATORI variants. */
[[nodiscard]] std::vector<std::string> satoriVariantNames();

} // namespace harness
} // namespace satori

#endif // SATORI_HARNESS_SCENARIOS_HPP
