/**
 * @file
 * The repository benchmark driver.
 *
 *   satori_perfbench --workload W --seed N --seconds S --trace 0|1
 *                    --scratch DIR
 *
 * --trace 0 sets the workload up repeatedly, then runs whole passes
 * over its cells, closed loop on one thread, until S seconds have been
 * measured (at least two passes), and reports the end-to-end metrics. --trace 1 runs one
 * untraced and one traced pass plus the layer microbenches and reports
 * the per-layer metrics. Either way the last line of standard output
 * is one JSON object {correct, attempted, failed, metrics}; a human
 * summary goes to standard error. See README.md beside this file.
 */

#include <sys/resource.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <stdexcept>

#include "perfbench.hpp"

namespace {

using namespace perfbench;

struct Args
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    std::string scratch;
};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "satori_perfbench: %s\n"
                 "usage: satori_perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 --scratch DIR\n"
                 "workloads:",
                 why);
    for (const std::string& w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), nullptr);
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--scratch") {
            a.scratch = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload || a.scratch.empty())
        usage("--workload and --scratch are required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/**
 * Cells of @p other that do not repeat @p ref exactly (decision
 * digest, goal means, cold-search count). Observability is one-way and
 * every cell is deterministic for its seeds, so any difference is a
 * failure.
 */
std::size_t
countDivergent(const PassOutcome& ref, const PassOutcome& other,
               const char* what)
{
    std::size_t bad = 0;
    for (std::size_t i = 0; i < ref.cells.size(); ++i) {
        const CellOutcome& a = ref.cells[i];
        const CellOutcome& b = other.cells[i];
        if (!a.error.empty() || !b.error.empty())
            continue; // already counted as failed
        if (a.digest != b.digest || !sameBits(a.throughput, b.throughput) ||
            !sameBits(a.fairness, b.fairness) ||
            !sameBits(a.worst_job, b.worst_job) ||
            a.cold_searches != b.cold_searches) {
            std::fprintf(stderr, "FAIL %s: %s differs from the first run\n",
                         a.label.c_str(), what);
            ++bad;
        }
    }
    return bad;
}

void
reportCellErrors(const PassOutcome& pass)
{
    for (const CellOutcome& c : pass.cells)
        if (!c.error.empty())
            std::fprintf(stderr, "FAIL %s: %s\n", c.label.c_str(),
                         c.error.c_str());
}

std::vector<double>
allDecides(const PassOutcome& pass)
{
    std::vector<double> out;
    for (const CellOutcome& c : pass.cells)
        out.insert(out.end(), c.decide_us.begin(), c.decide_us.end());
    return out;
}

double
usPerInterval(const PassOutcome& pass)
{
    return ratio(pass.run_s * 1e6, static_cast<double>(pass.intervals));
}

void
printJson(bool correct, std::size_t attempted, std::size_t failed,
          const MetricList& metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        // Non-finite values cannot be written as JSON numbers.
        std::snprintf(buf, sizeof(buf), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

void
printMetrics(const MetricList& metrics)
{
    for (const Metric& m : metrics)
        std::fprintf(stderr, "  %-40s %14.6g %s\n", m.name.c_str(), m.value,
                     m.unit.c_str());
}

/** End-to-end run: set-up samples, then timed passes. */
int
runEndToEnd(const Args& args, const WorkloadSpec& spec)
{
    HostSpeedSampler speed;
    speed.sample();

    // Set-up takes about a millisecond today: repeat it for a quarter
    // second (at least five times) and keep the median.
    std::vector<double> setup;
    double setup_total = 0.0;
    while (setup.size() < 5 || setup_total < 0.25) {
        setup.push_back(timeSetup(args.workload, args.seed, args.scratch));
        setup_total += setup.back();
        speed.maybeSample();
    }

    // At least two passes, so every run checks that a pass repeats.
    // Peak RSS is read after the first: later passes only add the
    // benchmark's own per-decide samples.
    std::vector<PassOutcome> passes;
    double peak_rss_mb = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    do {
        passes.push_back(runPass(spec, &speed, args.scratch));
        if (passes.size() == 1)
            peak_rss_mb = peakRssMb();
    } while (passes.size() < 2 ||
             std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                     .count() < args.seconds);

    std::size_t failed = 0;
    std::vector<double> host_us;
    std::vector<double> decides;
    for (const PassOutcome& p : passes) {
        reportCellErrors(p);
        failed += p.failed();
        host_us.push_back(usPerInterval(p));
        const std::vector<double> d = allDecides(p);
        decides.insert(decides.end(), d.begin(), d.end());
    }
    for (std::size_t i = 1; i < passes.size(); ++i)
        failed += countDivergent(passes[0], passes[i], "a repeated pass");

    double t = 0.0;
    double f = 0.0;
    double worst = 0.0;
    for (const CellOutcome& c : passes[0].cells) {
        t += c.throughput;
        f += c.fairness;
        worst += c.worst_job;
    }
    const auto n = static_cast<double>(passes[0].cells.size());

    const double scale = speed.scale();
    MetricList m;
    m.push_back({"setup_s", median(setup) * scale, "s"});
    m.push_back({"host_us_per_interval", median(host_us) * scale, "us"});
    m.push_back({"decide_us_p99", quantile(decides, 0.99) * scale, "us"});
    m.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
    m.push_back({"throughput_norm", t / n, "fraction"});
    m.push_back({"fairness_jain", f / n, "fraction"});
    m.push_back({"worst_job_speedup", worst / n, "fraction"});

    const std::size_t attempted = passes.size() * spec.cells.size();
    std::fprintf(stderr,
                 "%s seed %llu: %zu passes x %zu cells, %zu intervals "
                 "and %zu decides per pass; failed_ratio %zu/%zu\n",
                 spec.name.c_str(),
                 static_cast<unsigned long long>(args.seed), passes.size(),
                 spec.cells.size(), passes[0].intervals,
                 decides.size() / passes.size(), failed, attempted);
    std::fprintf(stderr,
                 "  %zu set-up samples; decide p99 over %zu samples "
                 "(%zu above it)\n"
                 "  host speed: reference kernel %.4f ms over %zu samples, "
                 "scale %.4f; unscaled: host_us_per_interval %.4f, "
                 "decide_us_p50 %.4f, decide_us_p99 %.4f\n",
                 setup.size(), decides.size(), decides.size() / 100,
                 kReferenceKernelS / scale * 1e3, speed.samples(), scale,
                 median(host_us), quantile(decides, 0.5),
                 quantile(decides, 0.99));
    printMetrics(m);
    printJson(failed == 0, attempted, failed, m);
    return 0;
}

/** Traced run: per-layer metrics from one untraced + one traced pass. */
int
runTraced(const Args& args, const WorkloadSpec& spec)
{
    HostSpeedSampler speed;
    const PassOutcome plain = runPass(spec, &speed, args.scratch);
    const PassOutcome traced = runPass(spec, nullptr, args.scratch);
    reportCellErrors(plain);
    reportCellErrors(traced);
    std::size_t failed = plain.failed() + traced.failed() +
                         countDivergent(plain, traced, "the traced run");

    std::vector<double> explore;
    std::vector<double> settled;
    std::vector<double> search_ms;
    std::size_t oracle_decides = 0;
    std::size_t cold = 0;
    std::uint64_t space = 0;
    std::size_t injected = 0;
    GuardScore g;
    for (const CellOutcome& c : traced.cells) {
        explore.insert(explore.end(), c.explore_us.begin(),
                       c.explore_us.end());
        settled.insert(settled.end(), c.settled_us.begin(),
                       c.settled_us.end());
        search_ms.insert(search_ms.end(), c.search_ms.begin(),
                         c.search_ms.end());
        oracle_decides += c.oracle_decides;
        cold += c.cold_searches;
        space = std::max(space, c.space_size);
        injected += c.faults_injected;
        g.add(c.guard);
    }
    double plain_decide_s = 0.0;
    for (const CellOutcome& c : plain.cells)
        plain_decide_s +=
            std::accumulate(c.decide_us.begin(), c.decide_us.end(), 0.0) *
            1e-6;

    const auto span = [&traced](const char* name) -> const SpanStats& {
        static const SpanStats none;
        const auto it = traced.spans.find(name);
        return it == traced.spans.end() ? none : it->second;
    };
    const auto p50 = [&span](const char* name) {
        return quantile(span(name).durations_us, 0.5);
    };
    const CounterSnapshot& k = traced.counters;
    const auto count = [](auto v) { return static_cast<double>(v); };
    const double satori_decides = count(explore.size() + settled.size());
    const double intervals = count(traced.intervals);

    const std::vector<double> plain_decides = allDecides(plain);
    MetricList m;
    // Decide latency of the untraced pass, as measured. The median
    // stays out of the end-to-end set: on the Oracle workload it is a
    // ~0.2 us memo lookup whose time doubles when the shared host is
    // busy, more than the host-speed scale can correct.
    m.push_back({"decide_us_p50", quantile(plain_decides, 0.5), "us"});
    m.push_back({"decide.samples", count(plain_decides.size()), "count"});
    // core: controller
    m.push_back({"controller.explore_decide_us_p50", quantile(explore, 0.5),
                 "us"});
    m.push_back({"controller.settled_decide_us_p50", quantile(settled, 0.5),
                 "us"});
    m.push_back({"controller.explore_fraction",
                 ratio(count(explore.size()), satori_decides), "fraction"});
    m.push_back({"controller.settles", count(k.controller_settles), "count"});
    m.push_back({"controller.decide_unattributed_share",
                 ratio(count(span("controller.decide").self_ns),
                       count(span("controller.decide").total_ns)),
                 "fraction"});
    // bo
    m.push_back({"bo.fits", count(k.bo_fits), "count"});
    m.push_back({"bo.suggests", count(k.bo_suggests), "count"});
    m.push_back({"bo.fit_us_p50", p50("bo.fit"), "us"});
    m.push_back({"bo.acquisition_us_p50", p50("bo.acquisition"), "us"});
    m.push_back({"bo.probe_us_p50", p50("bo.probe"), "us"});
    m.push_back({"bo.candidates_per_suggest",
                 ratio(k.bo_candidates_sum, count(k.bo_candidates_count)),
                 "count"});
    m.push_back({"bo.screen_prune_ratio",
                 ratio(count(k.bo_screen_pruned),
                       count(k.bo_screen_kept + k.bo_screen_pruned)),
                 "fraction"});
    m.push_back({"gp.incremental_ratio",
                 ratio(count(k.gp_incremental + k.gp_refresh),
                       count(k.gp_fits + k.gp_incremental + k.gp_refresh)),
                 "fraction"});
    // core: telemetry guard
    m.push_back({"guard.repaired_ratio",
                 ratio(count(g.repaired), count(g.verdicts)), "fraction"});
    m.push_back({"guard.unusable_ratio",
                 ratio(count(g.unusable), count(g.verdicts)), "fraction"});
    m.push_back({"guard.false_alarm_ratio",
                 ratio(count(g.clean_alarms), count(g.clean)), "fraction"});
    m.push_back({"guard.miss_ratio",
                 ratio(count(g.perturbed_missed), count(g.perturbed)),
                 "fraction"});
    // policies / sim::OfflineEvaluator / config
    m.push_back({"oracle.searches", count(cold), "count"});
    m.push_back({"oracle.memo_hit_ratio",
                 ratio(count(oracle_decides - cold), count(oracle_decides)),
                 "fraction"});
    m.push_back({"oracle.search_ms_p50", quantile(search_ms, 0.5), "ms"});
    m.push_back({"oracle.ns_per_config",
                 ratio(quantile(search_ms, 0.5) * 1e6, count(space)), "ns"});
    // sim / harness
    m.push_back({"sim.step_us_p50", p50("sim.step"), "us"});
    m.push_back({"sim.observe_us_p50", p50("sim.observe"), "us"});
    m.push_back({"harness.non_decide_us_per_interval",
                 ratio((plain.run_s - plain_decide_s) * 1e6,
                       count(plain.intervals)),
                 "us"});
    // persist / faults
    m.push_back({"persist.wal_append_us_p50", p50("persist.wal.append"),
                 "us"});
    m.push_back({"persist.snapshot_us_p50", p50("persist.snapshot"), "us"});
    m.push_back({"persist.snapshot_bytes",
                 ratio(count(k.persist_snapshot_bytes),
                       count(k.persist_snapshots)),
                 "bytes"});
    m.push_back({"faults.injected", count(injected), "count"});
    // host: the untraced pass as measured, and the host-speed sample
    m.push_back({"host.unscaled_us_per_interval", usPerInterval(plain),
                 "us"});
    m.push_back({"host.reference_kernel_ms",
                 kReferenceKernelS / speed.scale() * 1e3, "ms"});
    // obs
    m.push_back({"obs.trace_overhead_pct",
                 (ratio(usPerInterval(traced), usPerInterval(plain)) - 1.0) *
                     100.0,
                 "%"});
    const double traced_wall_ns = (traced.setup_s + traced.run_s) * 1e9;
    const double coverage = ratio(count(traced.span_root_ns), traced_wall_ns);
    m.push_back({"trace.self_time_coverage", coverage, "fraction"});
    if (!(coverage >= 0.95 && coverage <= 1.05)) {
        std::fprintf(stderr, "FAIL span self times cover %.3f of the "
                             "traced wall time\n",
                     coverage);
        ++failed;
    }

    // Self time per interval of every layer's span.
    static const char* const kLayers[] = {
        "bench.setup",       "bench.cell",         "harness.interval",
        "sim.observe",       "sim.step",           "bench.decide",
        "controller.decide", "bo.fit",             "gp.fit",
        "gp.fit.incremental", "gp.fit.refresh",    "gp.fit.window_slide",
        "bo.acquisition",    "bo.probe",           "harness.actuate",
        "persist.wal.append", "persist.snapshot"};
    std::uint64_t listed_ns = 0;
    for (const char* name : kLayers) {
        listed_ns += span(name).self_ns;
        m.push_back({std::string("self_us.") + name,
                     ratio(count(span(name).self_ns) * 1e-3, intervals),
                     "us"});
    }
    std::uint64_t all_ns = 0;
    for (const auto& [name, s] : traced.spans)
        all_ns += s.self_ns;
    m.push_back({"self_us.other", ratio(count(all_ns - listed_ns) * 1e-3,
                                        intervals),
                 "us"});

    std::vector<std::string> errors;
    runMicrobenches(args.seed, m, errors);
    for (const std::string& e : errors)
        std::fprintf(stderr, "FAIL microbench: %s\n", e.c_str());
    failed += errors.empty() ? 0 : 1;

    std::fprintf(stderr, "%s seed %llu (traced): %zu cells, %zu intervals, "
                         "%zu decides (%zu ran a BO suggest)\n",
                 spec.name.c_str(),
                 static_cast<unsigned long long>(args.seed),
                 spec.cells.size(), traced.intervals, plain_decides.size(),
                 explore.size());
    std::fprintf(stderr, "  span self times (%% of traced wall):\n");
    for (const auto& [name, s] : traced.spans)
        std::fprintf(stderr, "    %-22s %9zu spans %10.1f ms self %6.2f%%\n",
                     name.c_str(), s.count, count(s.self_ns) * 1e-6,
                     100.0 * ratio(count(s.self_ns), traced_wall_ns));
    printMetrics(m);
    // Both passes' cells, the span-coverage check, the microbenches.
    const std::size_t attempted = 2 * spec.cells.size() + 2;
    printJson(failed == 0, attempted, failed, m);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    WorkloadSpec spec;
    try {
        spec = makeWorkload(args.workload, args.seed);
    } catch (const std::invalid_argument& e) {
        usage(e.what());
    }
    try {
        return args.trace ? runTraced(args, spec) : runEndToEnd(args, spec);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "satori_perfbench: %s\n", e.what());
        return 1;
    }
}
