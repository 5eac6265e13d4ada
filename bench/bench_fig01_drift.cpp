/**
 * @file
 * Fig. 1: the throughput-optimal configuration changes significantly
 * and frequently over time for all shared resources (the paper
 * observes >20% drift for a five-job PARSEC mix).
 *
 * We track the exhaustive throughput-optimal configuration of the
 * canonical five-job mix at one-second granularity and report the
 * per-resource allocation trajectory plus the maximum drift.
 */

#include <algorithm>
#include <cstdio>
#include <optional>

#include "bench_util.hpp"

using namespace satori;

int
main(int argc, char** argv)
{
    const auto opt = bench::parseArgs(argc, argv);
    bench::banner(
        "Fig. 1: optimal-throughput configuration drift over time",
        "Paper: the optimal configuration changes by more than 20% "
        "during the run, for every resource.",
        opt);

    const PlatformSpec platform = PlatformSpec::paperTestbed();
    const auto mix = bench::canonicalParsecMix();
    const Seconds duration = opt.full ? 120.0 : 60.0;

    sim::SimulatedServer server = harness::makeServer(platform, mix);
    sim::OfflineEvaluator eval(server);

    TablePrinter table({"t (s)", "cores (per job)", "llc ways",
                        "mem bw", "drift vs t=0"});
    std::vector<std::string> csv_rows;

    Configuration first;
    double max_drift = 0.0;
    const int total_units = 10 + 11 + 10;

    auto row_of = [](const Configuration& c, ResourceIndex r) {
        std::string s;
        for (std::size_t j = 0; j < c.numJobs(); ++j) {
            if (j)
                s += ",";
            s += std::to_string(c.units(r, j));
        }
        return s;
    };

    std::optional<CsvWriter> csv_file;
    CsvWriter* csv = nullptr;
    if (opt.csv) {
        csv_file.emplace("bench_fig01_drift.csv",
                         std::vector<std::string>{"t", "cores", "ways",
                                                  "bw", "drift_pct"});
        csv = &*csv_file;
    }

    for (Seconds t = 0.0; t < duration; t += 1.0) {
        const auto& best =
            eval.bestFor(server.phaseSignature(), 1.0, 0.0);
        // t is loop-carried from exactly 0.0; first-iteration test.
        // satori-analyzer: allow(num-float-eq)
        if (t == 0.0)
            first = best.config;
        // Drift: fraction of all units allocated differently vs t=0.
        const double drift =
            static_cast<double>(
                Configuration::l1Distance(first, best.config)) /
            (2.0 * total_units);
        max_drift = std::max(max_drift, drift);
        if (static_cast<int>(t) % 5 == 0) {
            table.addRow({TablePrinter::num(t, 0),
                          row_of(best.config, 0), row_of(best.config, 1),
                          row_of(best.config, 2), bench::pct(drift)});
        }
        if (csv) {
            csv->addRow({TablePrinter::num(t, 1), row_of(best.config, 0),
                         row_of(best.config, 1), row_of(best.config, 2),
                         TablePrinter::num(drift * 100.0, 2)});
        }
        // Advance one second of co-located execution under the
        // throughput-optimal configuration (as the paper's offline
        // trace does).
        server.setConfiguration(best.config);
        for (int i = 0; i < 10; ++i)
            server.step(0.1);
    }
    table.print();
    std::printf("\nMax configuration drift vs t=0: %s "
                "(paper: >20%%)\n",
                bench::pct(max_drift).c_str());
    std::printf("Distinct optimal configurations searched: %zu\n",
                eval.searchesPerformed());
    return 0;
}
