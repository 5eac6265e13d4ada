#include "satori/sim/server.hpp"

#include <algorithm>

#include "satori/analysis/invariants.hpp"
#include "satori/common/logging.hpp"
#include "satori/obs/obs.hpp"
#include "satori/persist/codec.hpp"
#include "satori/persist/state.hpp"

namespace satori {
namespace sim {

namespace {

/**
 * Transient IPS loss per unit of allocation change, by resource kind:
 * re-pinning threads evicts private-cache state, CAT way remaps must
 * re-warm the LLC, MBA reprogramming is just an MSR write.
 */
constexpr double kReconfigCostCores = 0.06;
constexpr double kReconfigCostWays = 0.03;
constexpr double kReconfigCostBw = 0.005;
static_assert(kReconfigCostCores > kReconfigCostWays &&
              kReconfigCostWays > kReconfigCostBw);

/** Cap on the per-interval transient loss fraction. */
constexpr double kReconfigCostCap = 0.35;

/** Geometric per-interval decay of the transient. */
constexpr double kReconfigDecay = 0.35;
static_assert(kReconfigDecay > 0.0 && kReconfigDecay < 1.0);

} // namespace

SimulatedServer::SimulatedServer(PlatformSpec platform,
                                 perfmodel::MachineParams machine,
                                 std::vector<workloads::WorkloadProfile> mix,
                                 ServerOptions options)
    : platform_(std::move(platform)), machine_(machine),
      options_(options), rng_(options.seed)
{
    if (mix.empty())
        SATORI_FATAL("a server needs at least one job");
    if (platform_.numResources() == 0)
        SATORI_FATAL("a server needs at least one partitionable resource");
    for (auto& profile : mix)
        jobs_.emplace_back(std::move(profile));
    config_ = Configuration::equalPartition(platform_, jobs_.size());
    reconfig_penalty_.assign(jobs_.size(), 0.0);
}

void
SimulatedServer::setConfiguration(const Configuration& config)
{
    // Audits every policy decision applied to the server: per-resource
    // sums must equal capacity, every job >= 1 unit of everything.
    SATORI_AUDIT_HOOK(analysis::globalAuditor().checkAllocation(
        platform_, jobs_.size(), config, __FILE__, __LINE__));
    if (config.numResources() != platform_.numResources())
        SATORI_FATAL("configuration has " +
                     std::to_string(config.numResources()) +
                     " resources, platform has " +
                     std::to_string(platform_.numResources()));
    if (config.numJobs() != jobs_.size())
        SATORI_FATAL("configuration has " +
                     std::to_string(config.numJobs()) +
                     " jobs, server runs " +
                     std::to_string(jobs_.size()));
    // Name the offending resource: an over-committed total is the
    // error a buggy policy actually produces, and "invalid
    // configuration" gives no lead on which actuator to inspect.
    for (std::size_t r = 0; r < platform_.numResources(); ++r) {
        const int total = config.totalUnits(r);
        const int capacity = platform_.units(r);
        if (total != capacity)
            SATORI_FATAL(
                "resource " +
                resourceKindName(platform_.resource(r).kind) + ": " +
                std::to_string(total) + " units configured, platform " +
                (total > capacity ? "capacity is only "
                                  : "requires exactly ") +
                std::to_string(capacity) + " in " + config.toString());
        for (std::size_t j = 0; j < jobs_.size(); ++j)
            if (config.units(r, j) < 1)
                SATORI_FATAL(
                    "resource " +
                    resourceKindName(platform_.resource(r).kind) +
                    ": job " + std::to_string(j) +
                    " received < 1 unit in " + config.toString());
    }
    // Accrue the reconfiguration transient for every job whose
    // allocation changed (cache re-warming, thread migration).
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
        double cost = 0.0;
        for (std::size_t r = 0; r < platform_.numResources(); ++r) {
            const int delta =
                std::abs(config.units(r, j) - config_.units(r, j));
            if (delta == 0)
                continue;
            switch (platform_.resource(r).kind) {
              case ResourceKind::Cores:
                cost += kReconfigCostCores * delta;
                break;
              case ResourceKind::LlcWays:
                cost += kReconfigCostWays * delta;
                break;
              case ResourceKind::MemBandwidth:
              case ResourceKind::PowerCap:
                cost += kReconfigCostBw * delta;
                break;
            }
        }
        reconfig_penalty_[j] =
            std::min(reconfig_penalty_[j] + cost, kReconfigCostCap);
    }
    config_ = config;
}

perfmodel::AllocationView
SimulatedServer::allocationView(const Configuration& config,
                                JobIndex j) const
{
    perfmodel::AllocationView view;
    view.cores = 1;
    view.llc_ways = 1;
    view.bw_fraction = 1.0;
    view.power_fraction = 1.0;
    for (std::size_t r = 0; r < platform_.numResources(); ++r) {
        const int units = config.units(r, j);
        const double total = static_cast<double>(platform_.units(r));
        switch (platform_.resource(r).kind) {
          case ResourceKind::Cores:
            view.cores = units;
            break;
          case ResourceKind::LlcWays:
            view.llc_ways = units;
            break;
          case ResourceKind::MemBandwidth:
            view.bw_fraction = static_cast<double>(units) / total;
            break;
          case ResourceKind::PowerCap:
            // Normalize to the fair share: units/total * numJobs == 1
            // at the equal partition.
            view.power_fraction = static_cast<double>(units) / total *
                                  static_cast<double>(jobs_.size());
            break;
        }
    }
    return view;
}

std::vector<Ips>
SimulatedServer::step(Seconds dt)
{
    SATORI_OBS_SPAN("sim.step");
    SATORI_OBS_METRIC(sim_steps.inc());
    SATORI_ASSERT(dt > 0.0);
    std::vector<Ips> measured(jobs_.size());
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
        const auto view = allocationView(config_, j);
        const auto perf = perfmodel::evaluatePhase(
            jobs_[j].currentPhase(), machine_, view);
        // Multiplicative measurement/interference noise, floored so a
        // job never appears stopped.
        const double noise =
            std::max(0.5, rng_.gaussian(1.0, options_.noise_sigma));
        // Outstanding reconfiguration transient, decaying per interval.
        const double transient = 1.0 - reconfig_penalty_[j];
        reconfig_penalty_[j] *= kReconfigDecay;
        const double throttle =
            external_throttle_.empty() ? 1.0 : external_throttle_[j];
        const Ips ips = perf.ips * noise * transient * throttle;
        jobs_[j].retire(ips * dt);
        measured[j] = ips;
    }
    now_ += dt;
    SATORI_AUDIT_HOOK(analysis::globalAuditor().checkMeasuredIps(
        measured, __FILE__, __LINE__));
    return measured;
}

std::vector<Ips>
SimulatedServer::isolationIpsNow() const
{
    std::vector<Ips> out(jobs_.size());
    for (std::size_t j = 0; j < jobs_.size(); ++j)
        out[j] = isolationIpsAt(j, jobs_[j].currentPhaseIndex());
    return out;
}

std::vector<std::size_t>
SimulatedServer::phaseSignature() const
{
    std::vector<std::size_t> sig(jobs_.size());
    for (std::size_t j = 0; j < jobs_.size(); ++j)
        sig[j] = jobs_[j].currentPhaseIndex();
    return sig;
}

const Job&
SimulatedServer::job(std::size_t j) const
{
    SATORI_ASSERT(j < jobs_.size());
    return jobs_[j];
}

Job&
SimulatedServer::job(std::size_t j)
{
    SATORI_ASSERT(j < jobs_.size());
    return jobs_[j];
}

void
SimulatedServer::replaceJob(std::size_t j,
                            workloads::WorkloadProfile profile)
{
    if (j >= jobs_.size())
        SATORI_FATAL("replaceJob: job index " + std::to_string(j) +
                     " out of range (" + std::to_string(jobs_.size()) +
                     " jobs)");
    if (profile.phases.empty())
        SATORI_FATAL("replaceJob: workload '" + profile.name +
                     "' has no phases");
    jobs_[j] = Job(std::move(profile));
    reconfig_penalty_[j] = 0.0;
    // Churn must leave per-job bookkeeping consistent: one transient
    // slot per job, configuration shape unchanged.
    SATORI_ASSERT(reconfig_penalty_.size() == jobs_.size());
    SATORI_ASSERT(config_.numJobs() == jobs_.size());
}

void
SimulatedServer::setExternalThrottle(std::vector<double> factors)
{
    if (factors.empty()) {
        external_throttle_.clear();
        return;
    }
    if (factors.size() != jobs_.size())
        SATORI_FATAL("external throttle has " +
                     std::to_string(factors.size()) +
                     " entries, server runs " +
                     std::to_string(jobs_.size()) + " jobs");
    for (std::size_t j = 0; j < factors.size(); ++j)
        if (!(factors[j] > 0.0) || factors[j] > 1.0)
            SATORI_FATAL("external throttle for job " +
                         std::to_string(j) + " must be in (0, 1], got " +
                         std::to_string(factors[j]));
    external_throttle_ = std::move(factors);
}

std::vector<Ips>
SimulatedServer::evaluateIps(
    const Configuration& config,
    const std::vector<std::size_t>& phase_signature) const
{
    SATORI_ASSERT(phase_signature.size() == jobs_.size());
    SATORI_ASSERT(config.isValidFor(platform_, jobs_.size()));
    std::vector<Ips> out(jobs_.size());
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
        const auto& phase =
            jobs_[j].profile().phases.at(phase_signature[j]);
        const auto view = allocationView(config, j);
        out[j] = perfmodel::evaluatePhase(phase, machine_, view).ips;
    }
    return out;
}

Ips
SimulatedServer::isolationIpsAt(std::size_t j,
                                std::size_t phase_index) const
{
    SATORI_ASSERT(j < jobs_.size());
    const auto& phase = jobs_[j].profile().phases.at(phase_index);
    perfmodel::AllocationView view;
    view.bw_fraction = 1.0;
    view.power_fraction = 1.0;
    view.cores = 1;
    view.llc_ways = 1;
    for (std::size_t r = 0; r < platform_.numResources(); ++r) {
        switch (platform_.resource(r).kind) {
          case ResourceKind::Cores:
            view.cores = platform_.units(r);
            break;
          case ResourceKind::LlcWays:
            view.llc_ways = platform_.units(r);
            break;
          case ResourceKind::MemBandwidth:
          case ResourceKind::PowerCap:
            break; // full fractions already set
        }
    }
    return perfmodel::evaluatePhase(phase, machine_, view).ips;
}

void
SimulatedServer::saveState(persist::StateWriter& w) const
{
    w.putSize(jobs_.size());
    for (const Job& job : jobs_)
        job.saveState(w);
    persist::putConfiguration(w, config_);
    rng_.saveState(w);
    w.putDouble(now_);
    w.putDoubleVec(reconfig_penalty_);
    w.putDoubleVec(external_throttle_);
}

void
SimulatedServer::restoreState(persist::StateReader& r)
{
    const std::size_t saved_jobs = r.getSize();
    if (saved_jobs != jobs_.size())
        SATORI_FATAL("server state has " + std::to_string(saved_jobs) +
                     " jobs, this server runs " +
                     std::to_string(jobs_.size()));
    for (Job& job : jobs_)
        job.restoreState(r);
    Configuration config = persist::getConfiguration(r);
    if (!config.isValidFor(platform_, jobs_.size()))
        SATORI_FATAL("server state configuration " + config.toString() +
                     " is invalid for this platform");
    config_ = std::move(config);
    rng_.restoreState(r);
    now_ = r.getDouble();
    reconfig_penalty_ = r.getDoubleVec();
    if (reconfig_penalty_.size() != jobs_.size())
        SATORI_FATAL("server state reconfiguration transients do not "
                     "match the job count");
    external_throttle_ = r.getDoubleVec();
    if (!external_throttle_.empty() &&
        external_throttle_.size() != jobs_.size())
        SATORI_FATAL("server state external throttle does not match "
                     "the job count");
}

} // namespace sim
} // namespace satori
