/**
 * @file
 * Fig. 2 + the Sec. II "average config" / "time split" experiments:
 * throughput-optimal and fairness-optimal configurations differ
 * substantially (paper: throughput-opt achieves only 67% of optimal
 * fairness; fairness-opt only 59% of optimal throughput), and neither
 * averaging the two optima nor alternating between them recovers the
 * balanced optimum (59%/72% and 72%/81% of oracle respectively).
 */

#include <cstdio>

#include "bench_util.hpp"

using namespace satori;

namespace {

/** Average two configurations unit-wise and repair validity. */
Configuration
averageConfigs(const PlatformSpec& platform, const Configuration& a,
               const Configuration& b)
{
    const std::size_t jobs = a.numJobs();
    Configuration out = a;
    for (std::size_t r = 0; r < platform.numResources(); ++r) {
        const std::span<int> row = out.resourceRow(r);
        int assigned = 0;
        for (std::size_t j = 0; j < jobs; ++j) {
            row[j] = std::max(1, (a.units(r, j) + b.units(r, j)) / 2);
            assigned += row[j];
        }
        // Repair rounding: hand leftovers to (or take overdraft from)
        // jobs round-robin, respecting the >=1 floor.
        int excess = platform.units(r) - assigned;
        std::size_t k = 0;
        while (excess != 0) {
            if (excess > 0) {
                row[k] += 1;
                --excess;
            } else if (row[k] > 1) {
                row[k] -= 1;
                ++excess;
            }
            k = (k + 1) % jobs;
        }
    }
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    const auto opt = bench::parseArgs(argc, argv);
    bench::banner(
        "Fig. 2 + Sec. II: conflicting optimal configurations",
        "Paper: T-opt gets 67% of optimal fairness; F-opt gets 59% of "
        "optimal throughput; average config 59%/72%; 50-50 time split "
        "72%/81% of oracle.",
        opt);

    const PlatformSpec platform = PlatformSpec::paperTestbed();
    const auto mix = bench::canonicalParsecMix();

    // --- Instantaneous conflict at several phase signatures ---------
    sim::SimulatedServer probe = harness::makeServer(platform, mix);
    sim::OfflineEvaluator eval(probe);

    TablePrinter conflict({"phase sig", "T-opt: T", "T-opt: F/F*",
                           "F-opt: F", "F-opt: T/T*", "config dist"});
    const int snapshots = opt.full ? 6 : 3;
    for (int s = 0; s < snapshots; ++s) {
        const auto sig = probe.phaseSignature();
        const auto& t_opt = eval.bestFor(sig, 1.0, 0.0);
        const auto& f_opt = eval.bestFor(sig, 0.0, 1.0);
        std::string sig_str;
        for (std::size_t v : sig)
            sig_str += std::to_string(v);
        conflict.addRow(
            {sig_str, TablePrinter::num(t_opt.throughput, 3),
             bench::pct(t_opt.fairness / f_opt.fairness),
             TablePrinter::num(f_opt.fairness, 3),
             bench::pct(f_opt.throughput / t_opt.throughput),
             TablePrinter::num(
                 Configuration::distance(t_opt.config, f_opt.config),
                 1)});
        // Advance until the phase signature actually changes (or a
        // generous timeout), so successive snapshots show different
        // program-phase combinations.
        const auto start_sig = probe.phaseSignature();
        for (int i = 0; i < 600 && probe.phaseSignature() == start_sig;
             ++i)
            probe.step(0.1);
    }
    conflict.print();

    // --- "Average of optima" and "50-50 time split" strategies ------
    const Seconds duration = opt.full ? 60.0 : 30.0;
    harness::ExperimentOptions eopt;
    eopt.duration = duration;
    const harness::ExperimentRunner runner(eopt);

    // Reference: the Balanced Oracle.
    sim::SimulatedServer s_oracle = harness::makeServer(platform, mix);
    auto oracle = harness::makePolicy("Balanced-Oracle", s_oracle);
    const auto oracle_result = runner.run(s_oracle, *oracle, mix.label);

    // Strategy A: run the (oracle-derived) average configuration.
    class AverageOptima final : public policies::PartitioningPolicy
    {
      public:
        AverageOptima(const sim::SimulatedServer& server,
                      const PlatformSpec& platform)
            : server_(server), platform_(platform), eval_(server)
        {
        }
        std::string name() const override { return "Average-Optima"; }
        Configuration decide(const sim::IntervalObservation&) override
        {
            const auto sig = server_.phaseSignature();
            return averageConfigs(platform_,
                                  eval_.bestFor(sig, 1.0, 0.0).config,
                                  eval_.bestFor(sig, 0.0, 1.0).config);
        }

      private:
        const sim::SimulatedServer& server_;
        const PlatformSpec& platform_;
        sim::OfflineEvaluator eval_;
    };

    sim::SimulatedServer s_avg = harness::makeServer(platform, mix);
    AverageOptima avg_policy(s_avg, platform);
    const auto avg_result = runner.run(s_avg, avg_policy, mix.label);

    // Strategy B: alternate the two optima every second.
    class TimeSplit final : public policies::PartitioningPolicy
    {
      public:
        explicit TimeSplit(const sim::SimulatedServer& server)
            : server_(server), eval_(server)
        {
        }
        std::string name() const override { return "Time-Split"; }
        Configuration decide(const sim::IntervalObservation&) override
        {
            const auto sig = server_.phaseSignature();
            const bool throughput_turn = (step_++ / 10) % 2 == 0;
            return throughput_turn
                       ? eval_.bestFor(sig, 1.0, 0.0).config
                       : eval_.bestFor(sig, 0.0, 1.0).config;
        }

      private:
        const sim::SimulatedServer& server_;
        sim::OfflineEvaluator eval_;
        std::size_t step_ = 0;
    };

    sim::SimulatedServer s_split = harness::makeServer(platform, mix);
    TimeSplit split_policy(s_split);
    const auto split_result = runner.run(s_split, split_policy, mix.label);

    TablePrinter table({"strategy", "throughput (% of oracle)",
                        "fairness (% of oracle)", "paper"});
    table.addRow({"Balanced Oracle", "100.0%", "100.0%", "100/100"});
    table.addRow({"Average of optima",
                  bench::pct(avg_result.mean_throughput /
                             oracle_result.mean_throughput),
                  bench::pct(avg_result.mean_fairness /
                             oracle_result.mean_fairness),
                  "59/72"});
    table.addRow({"50-50 time split",
                  bench::pct(split_result.mean_throughput /
                             oracle_result.mean_throughput),
                  bench::pct(split_result.mean_fairness /
                             oracle_result.mean_fairness),
                  "72/81"});
    std::printf("\n");
    table.print();
    return 0;
}
