#include "satori/harness/report.hpp"

#include "satori/common/logging.hpp"
#include "satori/harness/scenarios.hpp"

namespace satori {
namespace harness {

const PolicyScore&
MixComparison::score(const std::string& policy) const
{
    for (const auto& s : scores)
        if (s.policy == policy)
            return s;
    SATORI_FATAL("no score recorded for policy: " + policy);
}

MixComparison
comparePolicies(const PlatformSpec& platform, const workloads::JobMix& mix,
                const std::vector<std::string>& policy_names,
                const ExperimentOptions& options, std::uint64_t seed,
                core::SatoriOptions satori_options)
{
    // Every score is divided by the Balanced Oracle, which maximizes
    // the objective's metrics: the runner must score with the same
    // pair or the percentages compare two different quantities.
    if (options.tmetric != satori_options.objective.throughputMetric() ||
        options.fmetric != satori_options.objective.fairnessMetric())
        SATORI_FATAL("comparePolicies: the experiment scores with a "
                     "different throughput/fairness metric pair than "
                     "the Oracle's objective maximizes");
    const ExperimentRunner runner(options);
    MixComparison comp;
    comp.mix_label = mix.label;

    // The oracle reference run.
    {
        sim::SimulatedServer server = makeServer(platform, mix, seed);
        auto oracle = makePolicy("Balanced-Oracle", server, satori_options);
        comp.oracle = runner.run(server, *oracle, mix.label);
    }

    for (const auto& name : policy_names) {
        sim::SimulatedServer server = makeServer(platform, mix, seed);
        auto policy = makePolicy(name, server, satori_options);
        PolicyScore score;
        score.policy = name;
        score.result = runner.run(server, *policy, mix.label);
        score.throughput_pct =
            comp.oracle.mean_throughput > 0.0
                ? score.result.mean_throughput /
                      comp.oracle.mean_throughput
                : 0.0;
        score.fairness_pct =
            comp.oracle.mean_fairness > 0.0
                ? score.result.mean_fairness / comp.oracle.mean_fairness
                : 0.0;
        score.worst_job_pct =
            comp.oracle.worst_job_speedup > 0.0
                ? score.result.worst_job_speedup /
                      comp.oracle.worst_job_speedup
                : 0.0;
        comp.scores.push_back(std::move(score));
    }
    return comp;
}

namespace {

double
meanOf(const std::vector<MixComparison>& comps, const std::string& policy,
       double PolicyScore::*member)
{
    SATORI_ASSERT(!comps.empty());
    double sum = 0.0;
    for (const auto& c : comps)
        sum += c.score(policy).*member;
    return sum / static_cast<double>(comps.size());
}

} // namespace

double
meanThroughputPct(const std::vector<MixComparison>& comps,
                  const std::string& policy)
{
    return meanOf(comps, policy, &PolicyScore::throughput_pct);
}

double
meanFairnessPct(const std::vector<MixComparison>& comps,
                const std::string& policy)
{
    return meanOf(comps, policy, &PolicyScore::fairness_pct);
}

double
meanWorstJobPct(const std::vector<MixComparison>& comps,
                const std::string& policy)
{
    return meanOf(comps, policy, &PolicyScore::worst_job_pct);
}

} // namespace harness
} // namespace satori
