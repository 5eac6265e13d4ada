/**
 * @file
 * Observability overhead: the Fig. 7-style SATORI run timed with the
 * obs layer off, with metrics only, and with full span tracing plus
 * the decision-audit channel. The controller's 100 ms decision loop
 * must not notice its own instrumentation: the run fails (non-zero
 * exit) if full observability costs more than 5% wall-clock over the
 * uninstrumented run.
 *
 * Timing uses obs::steadyNowNs() - the steady-clock read lives in the
 * allowlisted obs layer, not here.
 */

#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"

using namespace satori;

namespace {

enum class ObsMode
{
    Off,
    MetricsOnly,
    Full,
};

const char*
modeName(ObsMode mode)
{
    switch (mode) {
      case ObsMode::Off:
        return "obs off";
      case ObsMode::MetricsOnly:
        return "metrics only";
      case ObsMode::Full:
        return "full (spans+metrics+audit)";
    }
    return "?";
}

/** One timed SATORI run over the canonical mix; returns seconds. */
double
runOnce(ObsMode mode, Seconds duration)
{
    obs::Observability& o = obs::observability();
    o.resetAll();
    if (mode != ObsMode::Off)
        o.setMetricsEnabled(true);
    if (mode == ObsMode::Full) {
        o.tracer().setEnabled(true);
        o.audit().setEnabled(true);
    }

    const PlatformSpec platform = PlatformSpec::paperTestbed();
    const workloads::JobMix mix = bench::canonicalParsecMix();
    sim::SimulatedServer server = harness::makeServer(platform, mix, 42);
    auto policy = harness::makePolicy("SATORI", server);
    harness::ExperimentOptions opt;
    opt.duration = duration;

    const std::uint64_t t0 = obs::steadyNowNs();
    (void)harness::ExperimentRunner(opt).run(server, *policy, mix.label);
    const std::uint64_t t1 = obs::steadyNowNs();
    o.resetAll();
    return static_cast<double>(t1 - t0) / 1e9;
}

/** Best-of-N wall time, the usual noise-robust estimator. */
double
bestOf(ObsMode mode, Seconds duration, int repeats)
{
    double best = runOnce(mode, duration);
    for (int r = 1; r < repeats; ++r)
        best = std::min(best, runOnce(mode, duration));
    return best;
}

} // namespace

int
main(int argc, char** argv)
{
    const auto opt = bench::parseArgs(argc, argv);
    bench::banner(
        "Observability overhead: SATORI run, obs off vs metrics vs full",
        "Gate: full obs < 5% wall-clock.",
        opt);

    const Seconds duration = opt.full ? 60.0 : 20.0;
    const int repeats = opt.full ? 5 : 3;
    // The harness decides every 100 ms of simulated time.
    const double intervals = duration / 0.1;

    const double t_off = bestOf(ObsMode::Off, duration, repeats);
    const double t_metrics =
        bestOf(ObsMode::MetricsOnly, duration, repeats);
    const double t_full = bestOf(ObsMode::Full, duration, repeats);

    auto pct_over = [&](double t) {
        return 100.0 * (t - t_off) / t_off;
    };
    auto ms_per_interval = [&](double t) {
        return 1e3 * (t - t_off) / intervals;
    };

    TablePrinter table(
        {"mode", "best wall s", "overhead %", "ms/interval"});
    table.addRow({modeName(ObsMode::Off),
                  TablePrinter::num(t_off, 4), "-", "-"});
    table.addRow({modeName(ObsMode::MetricsOnly),
                  TablePrinter::num(t_metrics, 4),
                  TablePrinter::num(pct_over(t_metrics), 2),
                  TablePrinter::num(ms_per_interval(t_metrics), 4)});
    table.addRow({modeName(ObsMode::Full),
                  TablePrinter::num(t_full, 4),
                  TablePrinter::num(pct_over(t_full), 2),
                  TablePrinter::num(ms_per_interval(t_full), 4)});
    table.print();

    const double overhead_pct = pct_over(t_full);
    if (overhead_pct >= 5.0) {
        std::printf("\nFAIL: full observability overhead %.2f%% >= "
                    "5%% budget\n",
                    overhead_pct);
        return 1;
    }
    std::printf("\nOK: full observability overhead %.2f%% < 5%% "
                "budget\n",
                overhead_pct);
    return 0;
}
