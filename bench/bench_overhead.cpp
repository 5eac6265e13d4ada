/**
 * @file
 * Sec. V overhead characterization (google-benchmark): the paper
 * measures all BO-related tasks at ~1.2 ms per 100 ms interval. We
 * benchmark the GP refit, acquisition maximization over a realistic
 * candidate set, one full SATORI decide() iteration, and the
 * memoized/unmemoized oracle search.
 */

#include <benchmark/benchmark.h>

#include "satori/satori.hpp"

using namespace satori;

namespace {

/** Realistic training set: n share-normalized configs + objectives. */
std::pair<std::vector<RealVec>, std::vector<double>>
trainingSet(std::size_t n)
{
    const PlatformSpec platform = PlatformSpec::paperTestbed();
    ConfigurationSpace space(platform, 5);
    Rng rng(1);
    std::vector<RealVec> xs;
    std::vector<double> ys;
    for (std::size_t i = 0; i < n; ++i) {
        xs.push_back(space.sample(rng).normalizedVector());
        ys.push_back(rng.uniform(0.4, 0.8));
    }
    return {xs, ys};
}

void
BM_GpRefit(benchmark::State& state)
{
    const auto [xs, ys] =
        trainingSet(static_cast<std::size_t>(state.range(0)));
    bo::EngineOptions opt;
    opt.grid_refit_period = 0; // measure the plain refit
    bo::BoEngine engine(opt);
    for (auto _ : state) {
        engine.setSamples(xs, ys);
        benchmark::DoNotOptimize(engine.bestObserved());
    }
}
BENCHMARK(BM_GpRefit)->Arg(40)->Arg(80)->Arg(120);

void
BM_AcquisitionOverCandidates(benchmark::State& state)
{
    const auto [xs, ys] = trainingSet(120);
    bo::BoEngine engine;
    engine.setSamples(xs, ys);
    const PlatformSpec platform = PlatformSpec::paperTestbed();
    ConfigurationSpace space(platform, 5);
    Rng rng(2);
    std::vector<RealVec> candidates;
    for (int i = 0; i < state.range(0); ++i)
        candidates.push_back(space.sample(rng).normalizedVector());
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.suggestIndex(candidates));
}
BENCHMARK(BM_AcquisitionOverCandidates)->Arg(128)->Arg(256);

void
BM_SatoriDecideIteration(benchmark::State& state)
{
    const PlatformSpec platform = PlatformSpec::paperTestbed();
    const auto mix =
        workloads::mixOf({"blackscholes", "canneal", "fluidanimate",
                          "freqmine", "streamcluster"});
    sim::SimulatedServer server = harness::makeServer(platform, mix);
    core::SatoriOptions opt;
    opt.stall_intervals = 0; // keep exploring: worst-case iteration
    core::SatoriController satori(platform, server.numJobs(), opt);
    sim::PerfMonitor monitor(server);
    for (auto _ : state) {
        const auto obs = monitor.observe(0.1);
        server.setConfiguration(satori.decide(obs));
    }
    state.counters["budget_pct_of_100ms_interval"] = benchmark::Counter(
        1e-4, benchmark::Counter::kIsIterationInvariantRate |
                  benchmark::Counter::kInvert);
}
BENCHMARK(BM_SatoriDecideIteration)->Unit(benchmark::kMillisecond);

void
BM_OracleSearchCold(benchmark::State& state)
{
    const PlatformSpec platform = PlatformSpec::paperTestbed();
    const auto mix =
        workloads::mixOf({"blackscholes", "canneal", "fluidanimate",
                          "freqmine", "streamcluster"});
    sim::SimulatedServer server = harness::makeServer(platform, mix);
    std::vector<std::size_t> sig(server.numJobs(), 0);
    std::uint64_t salt = 0;
    for (auto _ : state) {
        // Fresh evaluator each time: the full ~3.3M-config sweep.
        sim::OfflineEvaluator eval(server);
        const double w = 0.5 + 1e-9 * static_cast<double>(++salt);
        benchmark::DoNotOptimize(eval.bestFor(sig, w, 1.0 - w));
    }
}
BENCHMARK(BM_OracleSearchCold)->Unit(benchmark::kMillisecond);

void
BM_OracleSearchMemoized(benchmark::State& state)
{
    const PlatformSpec platform = PlatformSpec::paperTestbed();
    const auto mix =
        workloads::mixOf({"blackscholes", "canneal", "fluidanimate",
                          "freqmine", "streamcluster"});
    sim::SimulatedServer server = harness::makeServer(platform, mix);
    sim::OfflineEvaluator eval(server);
    std::vector<std::size_t> sig(server.numJobs(), 0);
    eval.bestFor(sig, 0.5, 0.5); // warm the memo
    for (auto _ : state)
        benchmark::DoNotOptimize(eval.bestFor(sig, 0.5, 0.5));
}
BENCHMARK(BM_OracleSearchMemoized);

void
BM_PerfModelEvaluation(benchmark::State& state)
{
    const auto phase = workloads::workloadByName("canneal").phases[0];
    const perfmodel::MachineParams m =
        perfmodel::MachineParams::paperLike();
    perfmodel::AllocationView a{3, 4, 0.3, 1.0};
    for (auto _ : state)
        benchmark::DoNotOptimize(perfmodel::evaluatePhase(phase, m, a));
}
BENCHMARK(BM_PerfModelEvaluation);

} // namespace
