/**
 * @file
 * Layer microbenches at the shape the shipped controller runs: the
 * 5-job PARSEC space on the paper testbed (15 dims, 3,333,960
 * configurations), BO training sets of n = 16/32/64 whose targets come
 * from the noiseless model, scored over real CandidateGenerator output.
 * Each timing is the median of many repetitions.
 */

#include <chrono>

#include "perfbench.hpp"

namespace perfbench {

using namespace satori;

namespace {

using Clock = std::chrono::steady_clock;

double
microsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
}

/** Median microseconds of @p reps calls of @p fn. */
template <typename Fn>
double
medianMicros(std::size_t reps, Fn&& fn)
{
    std::vector<double> us;
    us.reserve(reps);
    for (std::size_t i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        fn(i);
        us.push_back(microsSince(t0));
    }
    return quantile(std::move(us), 0.5);
}

std::vector<RealVec>
toVectors(const std::vector<Configuration>& configs)
{
    std::vector<RealVec> out;
    out.reserve(configs.size());
    for (const Configuration& c : configs)
        out.push_back(c.normalizedVector());
    return out;
}

} // namespace

void
runMicrobenches(std::uint64_t seed, MetricList& metrics,
                std::vector<std::string>& errors)
{
    const PlatformSpec platform = PlatformSpec::paperTestbed();
    const workloads::JobMix mix =
        workloads::allMixes(workloads::parsecSuite(), 5).front();
    const sim::SimulatedServer server =
        harness::makeServer(platform, mix, seed, 0.04);
    const std::vector<std::size_t> sig = server.phaseSignature();
    const sim::OfflineEvaluator model(server);
    const ConfigurationSpace& space = model.space();
    const core::SatoriOptions defaults;
    const bo::CandidateGenerator generator(space, defaults.candidates);
    Rng rng(seed);

    // Candidate generation around a random incumbent, as one BO round.
    constexpr std::size_t kRounds = 8;
    std::vector<std::vector<RealVec>> rounds;
    std::size_t candidates = 0;
    const double generate_us = medianMicros(200, [&](std::size_t) {
        const Configuration incumbent = space.sample(rng);
        std::vector<Configuration> round = generator.generate(incumbent, rng);
        candidates = round.size();
        if (rounds.size() < kRounds)
            rounds.push_back(toVectors(round));
    });
    metrics.push_back({"bo.candidates.generate_us", generate_us, "us"});
    if (candidates == 0)
        errors.push_back("CandidateGenerator produced no candidates");

    // Training pool: distinct random configurations with targets from
    // the balanced objective of the model at the current phases.
    std::vector<RealVec> inputs;
    std::vector<double> targets;
    for (std::size_t i = 0; i < 64; ++i) {
        const Configuration c = space.sample(rng);
        const auto [t, f] = model.metricsFor(c, sig);
        inputs.push_back(c.normalizedVector());
        targets.push_back(0.5 * t + 0.5 * f);
    }

    std::vector<RealVec> probes;
    for (std::size_t i = 0; i < defaults.num_probes; ++i)
        probes.push_back(space.sample(rng).normalizedVector());

    for (const std::size_t n : {16, 32, 64}) {
        const std::vector<RealVec> x(inputs.begin(),
                                     inputs.begin() + static_cast<long>(n));
        const std::vector<double> y(targets.begin(),
                                    targets.begin() + static_cast<long>(n));
        const double fit_us = medianMicros(100, [&](std::size_t) {
            bo::BoEngine engine(defaults.engine);
            engine.setSamples(x, y);
        });
        bo::BoEngine engine(defaults.engine);
        engine.setSamples(x, y);
        const double suggest_us = medianMicros(200, [&](std::size_t i) {
            const std::vector<RealVec>& cands = rounds[i % rounds.size()];
            if (engine.suggestIndex(cands) >= cands.size())
                errors.push_back("suggestIndex returned an invalid index");
        });
        const std::string tag = ".n" + std::to_string(n);
        metrics.push_back({"bo.fit_us" + tag, fit_us, "us"});
        metrics.push_back({"bo.suggest_us" + tag, suggest_us, "us"});
        if (n == 64) {
            const double probe_us = medianMicros(200, [&](std::size_t) {
                if (engine.probeMeans(probes).size() != probes.size())
                    errors.push_back("probeMeans returned a short vector");
            });
            metrics.push_back({"bo.probe_us.n64", probe_us, "us"});
        }
    }

    // Unranking: ConfigurationSpace::at on random indices.
    {
        constexpr std::size_t kCalls = 200'000;
        std::vector<std::uint64_t> idx(kCalls);
        for (auto& i : idx)
            i = rng.uniformInt(space.size());
        long checksum = 0;
        const auto t0 = Clock::now();
        for (const std::uint64_t i : idx)
            checksum += space.at(i).units(0, 0);
        const double ns = microsSince(t0) * 1e3 / kCalls;
        metrics.push_back({"config.unrank_ns", ns, "ns"});
        if (checksum < static_cast<long>(kCalls))
            errors.push_back("unranked configurations gave a job no core");
    }

    // One simulator step at the equal partition.
    {
        sim::SimulatedServer stepper =
            harness::makeServer(platform, mix, seed, 0.04);
        stepper.setConfiguration(
            Configuration::equalPartition(platform, mix.jobs.size()));
        constexpr std::size_t kSteps = 5000;
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < kSteps; ++i)
            if (stepper.step(kDefaultIntervalSeconds).size() !=
                mix.jobs.size())
                errors.push_back("SimulatedServer::step lost a job");
        metrics.push_back(
            {"sim.step_us.micro", microsSince(t0) / kSteps, "us"});
    }

    // One cold exhaustive Balanced-Oracle search.
    {
        sim::OfflineEvaluator cold(server);
        const auto t0 = Clock::now();
        const sim::OracleResult& best = cold.bestFor(sig, 0.5, 0.5);
        const double ms = microsSince(t0) * 1e-3;
        metrics.push_back({"oracle.cold_search_ms.micro", ms, "ms"});
        if (cold.searchesPerformed() != 1 || !best.exhaustive)
            errors.push_back("cold Oracle search was not one exhaustive "
                             "search");
    }
}

} // namespace perfbench
