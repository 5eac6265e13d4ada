/**
 * @file
 * Fig. 15: (a) the configurations SATORI sets are the closest to the
 * Balanced Oracle's (competitors at >= 1.3x SATORI's distance);
 * (b) SATORI tracks the oracle through phase changes better than
 * PARTIES.
 */

#include <cstdio>

#include "bench_util.hpp"

using namespace satori;

namespace {

/** Mean Euclidean distance of a policy's configs from the oracle's. */
double
meanOracleDistance(const PlatformSpec& platform,
                   const workloads::JobMix& mix,
                   const std::string& policy_name, Seconds duration,
                   std::uint64_t seed, TimeSeries* series = nullptr)
{
    sim::SimulatedServer server =
        harness::makeServer(platform, mix, seed);
    sim::OfflineEvaluator eval(server);
    auto policy = harness::makePolicy(policy_name, server);
    sim::PerfMonitor monitor(server);
    OnlineStats dist;
    const auto steps = static_cast<int>(duration / 0.1);
    for (int i = 0; i < steps; ++i) {
        const auto obs = monitor.observe(0.1);
        const auto& best =
            eval.bestFor(server.phaseSignature(), 0.5, 0.5);
        const double d =
            Configuration::distance(obs.config, best.config);
        dist.add(d);
        if (series)
            series->add(obs.time, d);
        server.setConfiguration(policy->decide(obs));
        if (i % 100 == 99)
            monitor.resetBaseline();
    }
    return dist.mean();
}

} // namespace

int
main(int argc, char** argv)
{
    const auto opt = bench::parseArgs(argc, argv);
    bench::banner(
        "Fig. 15: configuration distance from the Balanced Oracle",
        "Paper: SATORI is closest; every other technique is at least "
        "1.3x SATORI's distance (max possible distance ~13).",
        opt);

    const PlatformSpec platform = PlatformSpec::paperTestbed();
    const auto mixes =
        workloads::allMixes(workloads::parsecSuite(), 5);
    const Seconds duration = opt.full ? 40.0 : 20.0;
    const std::size_t stride = opt.full ? 3 : 7;

    // --- (a) Mean distance per technique, averaged over mixes --------
    const std::vector<std::string> policies{"SATORI", "PARTIES",
                                            "CoPart", "dCAT", "Random"};
    TablePrinter table({"technique", "mean distance", "x SATORI"});
    std::vector<double> means;
    for (const auto& name : policies) {
        OnlineStats acc;
        for (std::size_t m = 0; m < mixes.size(); m += stride) {
            acc.add(meanOracleDistance(platform, mixes[m], name,
                                       duration, 42 + m));
        }
        means.push_back(acc.mean());
    }
    for (std::size_t i = 0; i < policies.size(); ++i) {
        table.addRow({policies[i], TablePrinter::num(means[i], 2),
                      TablePrinter::num(means[i] / means[0], 2)});
    }
    table.print();

    // --- (b) Distance over time through phase changes ----------------
    std::printf("\nDistance trajectory on %s (SATORI vs PARTIES):\n",
                bench::canonicalParsecMix().label.c_str());
    TimeSeries satori_series, parties_series;
    meanOracleDistance(platform, bench::canonicalParsecMix(), "SATORI",
                       opt.full ? 60.0 : 30.0, 42, &satori_series);
    meanOracleDistance(platform, bench::canonicalParsecMix(), "PARTIES",
                       opt.full ? 60.0 : 30.0, 42, &parties_series);
    TablePrinter traj({"t (s)", "SATORI dist", "PARTIES dist"});
    for (std::size_t i = 0; i < satori_series.size(); i += 25) {
        traj.addRow(
            {TablePrinter::num(satori_series.times()[i], 1),
             TablePrinter::num(satori_series.values()[i], 2),
             TablePrinter::num(parties_series.values()[i], 2)});
    }
    traj.print();
    std::printf("\nTime-averaged: SATORI %.2f vs PARTIES %.2f\n",
                satori_series.mean(), parties_series.mean());
    return 0;
}
