/**
 * @file
 * satori_sim: the command-line driver for the SATORI co-location
 * simulator. Compose a workload mix, pick a partitioning policy,
 * run it on the (paper-shaped or custom) simulated server, and get
 * aggregate metrics - optionally with a per-interval trace for
 * offline analysis.
 *
 * Examples:
 *   satori_sim --mix canneal,streamcluster,vips --policy SATORI
 *   satori_sim --mix minife,swfft --policy PARTIES --duration 60
 *   satori_sim --suite parsec --jobs 5 --mix-index 20 \
 *              --policy SATORI --trace run.jsonl --trace-format jsonl
 *   satori_sim --list-workloads
 */

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "satori/satori.hpp"
#include "satori/obs/http_exporter.hpp"
#include "satori/persist/checkpoint.hpp"
#include "satori/persist/io.hpp"

using namespace satori;

namespace {

struct CliArgs
{
    std::vector<std::string> mix_names;
    std::string suite;
    std::size_t jobs = 0;
    int mix_index = -1;
    std::string policy = "SATORI";
    double duration = 30.0;
    std::uint64_t seed = 42;
    double noise = 0.04;
    int cores = 10;
    int ways = 11;
    int bw = 10;
    int power = 0; ///< 0 = no power-cap resource.
    std::string workload_file;
    std::string trace_path;
    std::string trace_format = "csv";
    std::string metrics_out;
    std::string metrics_format = "prom";
    std::string trace_out;
    std::string audit_out;
    int serve_metrics = -1; ///< -1 = off; 0 = ephemeral port.
    int pace_ms = 0;        ///< Wall-clock ms slept per interval.
    std::size_t history_capacity = 4096;
    double history_age = 0.0;    ///< Seconds; 0 = unlimited.
    std::size_t history_bytes = 0; ///< 0 = unlimited.
    std::string history_out;
    std::string slo_spec_file;
    bool slo_fatal = false;
    std::size_t audit_capacity = 0; ///< 0 = keep the default.
    std::string fault_plan_file;
    std::string fault_preset;
    std::uint64_t fault_seed = 0xFA17;
    std::string checkpoint_dir;
    std::size_t checkpoint_every = 50;
    bool resume = false;
    std::size_t kill_at = persist::CheckpointOptions::kNoKill;
    bool kill_torn = false;
    bool vanilla = false;
    bool compare_oracle = false;
    bool list_workloads = false;
    bool help = false;
};

void
printUsage()
{
    std::printf(
        "satori_sim - SATORI co-location simulator\n\n"
        "workload selection (choose one):\n"
        "  --mix a,b,c           comma-separated workload names\n"
        "  --suite S --jobs K [--mix-index I]\n"
        "                        the I-th K-job mix of suite S\n"
        "                        (parsec | cloudsuite | ecp; default I=0)\n"
        "  --workload-file FILE  also load custom workload definitions\n"
        "  --list-workloads      print every available workload and exit\n\n"
        "policy and run control:\n"
        "  --policy P            Equal | Random | dCAT | CoPart | PARTIES |\n"
        "                        CLITE | SATORI | SATORI-static |\n"
        "                        Throughput-SATORI | Fairness-SATORI |\n"
        "                        Balanced-Oracle | Throughput-Oracle |\n"
        "                        Fairness-Oracle   (default SATORI)\n"
        "  --duration SECONDS    simulated time (default 30)\n"
        "  --seed N              RNG seed (default 42)\n"
        "  --noise SIGMA         measurement-noise sigma (default 0.04)\n"
        "  --compare-oracle      also run the Balanced Oracle and report %%\n\n"
        "fault injection (deterministic, seeded):\n"
        "  --fault-plan FILE     load a fault script (see GUIDE.md)\n"
        "  --fault-preset P      built-in plan: escalating\n"
        "  --fault-seed N        injector RNG seed (default 0xFA17)\n"
        "  --vanilla             disable the SATORI resilience layer\n"
        "                        (telemetry guard, retry, degraded mode)\n\n"
        "platform (default: the paper's 10 cores / 11 ways / 10 MBA):\n"
        "  --cores N --ways N --bw N [--power N]\n\n"
        "output:\n"
        "  --trace FILE          write a per-interval trace\n"
        "  --trace-format F      csv | jsonl (default csv)\n\n"
        "durability (GUIDE.md sec. 14):\n"
        "  --checkpoint-dir DIR  persist controller state: an interval\n"
        "                        WAL plus periodic snapshots in DIR\n"
        "  --checkpoint-every N  intervals between snapshots "
        "(default 50)\n"
        "  --resume              resume a killed run from DIR; the\n"
        "                        finished trace is byte-identical to an\n"
        "                        uninterrupted run's\n"
        "  --kill-at N           crash-test hook: die with exit 137\n"
        "                        right after interval N's WAL append\n"
        "  --kill-torn           with --kill-at: die mid-append,\n"
        "                        leaving a torn WAL tail\n\n"
        "observability (GUIDE.md sec. 11; needs SATORI_OBS=ON builds):\n"
        "  --metrics-out FILE    write the end-of-run metrics snapshot\n"
        "  --metrics-format F    prom | jsonl (default prom)\n"
        "  --trace-out FILE      write Chrome trace_event JSON spans\n"
        "                        (open in chrome://tracing or Perfetto)\n"
        "  --audit-out FILE      write per-decision audit records "
        "(JSONL)\n"
        "  --audit-capacity N    bound the in-memory audit ring "
        "(default 65536)\n\n"
        "live telemetry plane (GUIDE.md sec. 15):\n"
        "  --serve-metrics PORT  embedded HTTP exporter on loopback\n"
        "                        (0 = ephemeral; the bound port is\n"
        "                        printed before the run starts)\n"
        "  --history-capacity N  retained history snapshots "
        "(default 4096)\n"
        "  --history-age S       drop history older than S seconds\n"
        "  --history-bytes B     approximate history byte budget\n"
        "  --history-out FILE    dump the retained history as JSON\n"
        "  --slo-spec FILE       SLO watchdog rules, one per line:\n"
        "                        <metric> <op> <threshold> for <k>\n"
        "  --slo-fatal           exit nonzero on any SLO breach\n"
        "  --pace MS             sleep MS wall-clock ms per interval\n"
        "                        (lets scrapers observe a live run)\n");
}

/** The values a numeric flag accepts. */
enum class Bound
{
    Positive,    ///< > 0: durations, job and resource counts.
    NonNegative, ///< >= 0: seeds, ports, indices, 0-means-off knobs.
};

/**
 * Parse @p token as a whole base-10 number (finite, for reals) within
 * @p bound into @p out; otherwise print "invalid value for <flag>:
 * <token>" and leave @p out unchanged.
 */
template <typename T>
bool
parseNumber(const std::string& flag, const char* token, Bound bound, T& out)
{
    const char* end = token + std::strlen(token);
    T value{};
    const auto [ptr, ec] = std::from_chars(token, end, value);
    bool ok = ec == std::errc() && ptr == end &&
              (value > T{} || (bound == Bound::NonNegative && value == T{}));
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(value);
    if (!ok) {
        std::fprintf(stderr, "invalid value for %s: %s\n", flag.c_str(),
                     token);
        return false;
    }
    out = value;
    return true;
}

std::optional<CliArgs>
parse(int argc, char** argv)
{
    CliArgs args;
    auto need_value = [&](int& i) -> const char* {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", argv[i]);
            return nullptr;
        }
        return argv[++i];
    };
    // The value after a numeric flag, checked against its bound.
    auto number = [&](int& i, Bound bound, auto& out) {
        const std::string flag = argv[i];
        const char* v = need_value(i);
        return v != nullptr && parseNumber(flag, v, bound, out);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const char* v = nullptr;
        if (flag == "--help" || flag == "-h") {
            args.help = true;
        } else if (flag == "--list-workloads") {
            args.list_workloads = true;
        } else if (flag == "--compare-oracle") {
            args.compare_oracle = true;
        } else if (flag == "--mix") {
            if (!(v = need_value(i)))
                return std::nullopt;
            std::stringstream ss(v);
            std::string name;
            while (std::getline(ss, name, ','))
                if (!name.empty())
                    args.mix_names.push_back(name);
        } else if (flag == "--suite") {
            if (!(v = need_value(i)))
                return std::nullopt;
            args.suite = v;
        } else if (flag == "--jobs") {
            if (!number(i, Bound::Positive, args.jobs))
                return std::nullopt;
        } else if (flag == "--mix-index") {
            if (!number(i, Bound::NonNegative, args.mix_index))
                return std::nullopt;
        } else if (flag == "--policy") {
            if (!(v = need_value(i)))
                return std::nullopt;
            args.policy = v;
        } else if (flag == "--duration") {
            if (!number(i, Bound::Positive, args.duration))
                return std::nullopt;
        } else if (flag == "--seed") {
            if (!number(i, Bound::NonNegative, args.seed))
                return std::nullopt;
        } else if (flag == "--noise") {
            if (!number(i, Bound::NonNegative, args.noise))
                return std::nullopt;
        } else if (flag == "--cores") {
            if (!number(i, Bound::Positive, args.cores))
                return std::nullopt;
        } else if (flag == "--ways") {
            if (!number(i, Bound::Positive, args.ways))
                return std::nullopt;
        } else if (flag == "--bw") {
            if (!number(i, Bound::Positive, args.bw))
                return std::nullopt;
        } else if (flag == "--power") {
            if (!number(i, Bound::NonNegative, args.power))
                return std::nullopt;
        } else if (flag == "--fault-plan") {
            if (!(v = need_value(i)))
                return std::nullopt;
            args.fault_plan_file = v;
        } else if (flag == "--fault-preset") {
            if (!(v = need_value(i)))
                return std::nullopt;
            args.fault_preset = v;
        } else if (flag == "--fault-seed") {
            if (!number(i, Bound::NonNegative, args.fault_seed))
                return std::nullopt;
        } else if (flag == "--checkpoint-dir") {
            if (!(v = need_value(i)))
                return std::nullopt;
            args.checkpoint_dir = v;
        } else if (flag == "--checkpoint-every") {
            if (!number(i, Bound::NonNegative, args.checkpoint_every))
                return std::nullopt;
        } else if (flag == "--resume") {
            args.resume = true;
        } else if (flag == "--kill-at") {
            if (!number(i, Bound::NonNegative, args.kill_at))
                return std::nullopt;
        } else if (flag == "--kill-torn") {
            args.kill_torn = true;
        } else if (flag == "--vanilla") {
            args.vanilla = true;
        } else if (flag == "--workload-file") {
            if (!(v = need_value(i)))
                return std::nullopt;
            args.workload_file = v;
        } else if (flag == "--trace") {
            if (!(v = need_value(i)))
                return std::nullopt;
            args.trace_path = v;
        } else if (flag == "--trace-format") {
            if (!(v = need_value(i)))
                return std::nullopt;
            args.trace_format = v;
        } else if (flag == "--metrics-out") {
            if (!(v = need_value(i)))
                return std::nullopt;
            args.metrics_out = v;
        } else if (flag == "--metrics-format") {
            if (!(v = need_value(i)))
                return std::nullopt;
            args.metrics_format = v;
        } else if (flag == "--trace-out") {
            if (!(v = need_value(i)))
                return std::nullopt;
            args.trace_out = v;
        } else if (flag == "--audit-out") {
            if (!(v = need_value(i)))
                return std::nullopt;
            args.audit_out = v;
        } else if (flag == "--audit-capacity") {
            if (!number(i, Bound::NonNegative, args.audit_capacity))
                return std::nullopt;
        } else if (flag == "--serve-metrics") {
            if (!number(i, Bound::NonNegative, args.serve_metrics))
                return std::nullopt;
        } else if (flag == "--pace") {
            if (!number(i, Bound::NonNegative, args.pace_ms))
                return std::nullopt;
        } else if (flag == "--history-capacity") {
            if (!number(i, Bound::NonNegative, args.history_capacity))
                return std::nullopt;
        } else if (flag == "--history-age") {
            if (!number(i, Bound::NonNegative, args.history_age))
                return std::nullopt;
        } else if (flag == "--history-bytes") {
            if (!number(i, Bound::NonNegative, args.history_bytes))
                return std::nullopt;
        } else if (flag == "--history-out") {
            if (!(v = need_value(i)))
                return std::nullopt;
            args.history_out = v;
        } else if (flag == "--slo-spec") {
            if (!(v = need_value(i)))
                return std::nullopt;
            args.slo_spec_file = v;
        } else if (flag == "--slo-fatal") {
            args.slo_fatal = true;
        } else {
            std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
            return std::nullopt;
        }
    }
    return args;
}

void
listWorkloads()
{
    TablePrinter table({"name", "suite", "description"});
    for (const auto* suite : {"parsec", "cloudsuite", "ecp"})
        for (const auto& w : workloads::suiteByName(suite))
            table.addRow({w.name, w.suite, w.description});
    table.print();
}

} // namespace

int
main(int argc, char** argv)
{
    const auto parsed = parse(argc, argv);
    if (!parsed) {
        printUsage();
        return 2;
    }
    const CliArgs& args = *parsed;
    if (args.help) {
        printUsage();
        return 0;
    }
    if (args.list_workloads) {
        listWorkloads();
        return 0;
    }
    if (args.checkpoint_dir.empty() &&
        (args.resume ||
         args.kill_at != persist::CheckpointOptions::kNoKill ||
         args.kill_torn)) {
        std::fprintf(stderr, "--resume/--kill-at/--kill-torn require "
                             "--checkpoint-dir\n");
        return 2;
    }
    if (args.kill_torn &&
        args.kill_at == persist::CheckpointOptions::kNoKill) {
        std::fprintf(stderr, "--kill-torn requires --kill-at\n");
        return 2;
    }
    if (args.slo_fatal && args.slo_spec_file.empty()) {
        std::fprintf(stderr, "--slo-fatal requires --slo-spec\n");
        return 2;
    }
    if (args.serve_metrics > 65535) {
        std::fprintf(stderr, "--serve-metrics: port out of range\n");
        return 2;
    }
    if (!args.checkpoint_dir.empty() && args.compare_oracle) {
        // The oracle run would re-enter the same checkpoint directory
        // with a different policy's decision stream.
        std::fprintf(stderr,
                     "--compare-oracle cannot be combined with "
                     "--checkpoint-dir\n");
        return 2;
    }

    try {
        // Fail on unusable output paths before the experiment runs,
        // not 30 simulated seconds into it.
        if (!args.trace_path.empty())
            persist::validateOutputFile("--trace", args.trace_path);
        if (!args.metrics_out.empty())
            persist::validateOutputFile("--metrics-out",
                                        args.metrics_out);
        if (!args.trace_out.empty())
            persist::validateOutputFile("--trace-out", args.trace_out);
        if (!args.audit_out.empty())
            persist::validateOutputFile("--audit-out", args.audit_out);
        if (!args.history_out.empty())
            persist::validateOutputFile("--history-out",
                                        args.history_out);
        if (!args.checkpoint_dir.empty())
            persist::validateOutputDir("--checkpoint-dir",
                                       args.checkpoint_dir);

        // --- Resolve the mix ---------------------------------------
        std::vector<workloads::WorkloadProfile> custom;
        if (!args.workload_file.empty())
            custom = workloads::loadWorkloadFile(args.workload_file);
        workloads::JobMix mix;
        if (!args.mix_names.empty()) {
            // Custom workloads shadow built-ins of the same name.
            for (const auto& name : args.mix_names) {
                bool found = false;
                for (const auto& w : custom) {
                    if (w.name == name) {
                        if (!mix.label.empty())
                            mix.label += "+";
                        mix.label += name;
                        mix.jobs.push_back(w);
                        found = true;
                        break;
                    }
                }
                if (!found) {
                    const auto w = workloads::workloadByName(name);
                    if (!mix.label.empty())
                        mix.label += "+";
                    mix.label += name;
                    mix.jobs.push_back(w);
                }
            }
        } else if (!args.suite.empty() && args.jobs > 0) {
            const auto mixes = workloads::allMixes(
                workloads::suiteByName(args.suite), args.jobs);
            const auto idx = static_cast<std::size_t>(
                args.mix_index < 0 ? 0 : args.mix_index);
            if (idx >= mixes.size()) {
                std::fprintf(stderr,
                             "mix index %zu out of range (%zu mixes)\n",
                             idx, mixes.size());
                return 2;
            }
            mix = mixes[idx];
        } else {
            std::fprintf(stderr, "no workloads selected\n\n");
            printUsage();
            return 2;
        }

        // --- Build the platform -------------------------------------
        PlatformSpec platform;
        platform.addResource(ResourceKind::Cores, args.cores);
        platform.addResource(ResourceKind::LlcWays, args.ways);
        platform.addResource(ResourceKind::MemBandwidth, args.bw);
        if (args.power > 0)
            platform.addResource(ResourceKind::PowerCap, args.power);

        sim::SimulatedServer server = harness::makeServer(
            platform, mix, args.seed, args.noise);
        std::string policy_name = args.policy;
        if (args.vanilla && policy_name == "SATORI")
            policy_name = "SATORI-vanilla";
        auto policy = harness::makePolicy(policy_name, server);

        harness::ExperimentOptions opt;
        opt.duration = args.duration;

        std::optional<faults::FaultInjector> injector;
        if (!args.fault_plan_file.empty() || !args.fault_preset.empty()) {
            faults::FaultPlan plan;
            if (!args.fault_plan_file.empty()) {
                plan = faults::FaultPlan::loadFile(args.fault_plan_file);
            } else if (args.fault_preset == "escalating") {
                const auto horizon = static_cast<std::size_t>(
                    args.duration / opt.dt);
                plan = faults::FaultPlan::escalating(mix.jobs.size(),
                                                     horizon);
            } else {
                std::fprintf(stderr, "unknown fault preset: %s\n",
                             args.fault_preset.c_str());
                return 2;
            }
            injector.emplace(plan, args.fault_seed);
            opt.faults = &*injector;
        }

        // --- Observability (spans / metrics / decision audit / live
        // telemetry plane) --------------------------------------------
        const bool live_wanted = args.serve_metrics >= 0 ||
                                 !args.history_out.empty() ||
                                 !args.slo_spec_file.empty();
        const bool obs_wanted = !args.metrics_out.empty() ||
                                !args.trace_out.empty() ||
                                !args.audit_out.empty() || live_wanted;
        if (obs_wanted) {
#if !(defined(SATORI_OBS_ENABLED) && SATORI_OBS_ENABLED)
            std::fprintf(stderr,
                         "warning: built with SATORI_OBS=OFF - "
                         "observability outputs will be empty\n");
#endif
            obs::Observability& o = obs::observability();
            if (!args.trace_out.empty())
                o.tracer().setEnabled(true);
            if (!args.metrics_out.empty())
                o.setMetricsEnabled(true);
            if (!args.audit_out.empty())
                o.audit().setEnabled(true);
            if (args.audit_capacity > 0)
                o.audit().setCapacity(args.audit_capacity);
            if (live_wanted) {
                // The live plane wants real counters in its history
                // rows and decision facts for /healthz, so metrics
                // and the per-interval hook both come on.
                o.setMetricsEnabled(true);
                o.setLiveEnabled(true);
                obs::StatsHistoryOptions hopt;
                hopt.capacity = args.history_capacity;
                hopt.max_age_seconds = args.history_age;
                hopt.max_bytes = args.history_bytes;
                o.history().configure(hopt);
                o.history().setEnabled(true);
                if (!args.slo_spec_file.empty()) {
                    o.watchdog().configure(
                        obs::SloSpec::loadFile(args.slo_spec_file));
                    o.watchdog().setFatalOnBreach(args.slo_fatal);
                }
                // Scrapers expect /audit/tail to have content.
                if (args.serve_metrics >= 0)
                    o.audit().setEnabled(true);
            }
        }

        // --- Embedded HTTP exporter ----------------------------------
        std::optional<obs::HttpExporter> exporter;
        if (args.serve_metrics >= 0) {
            exporter.emplace(obs::observability());
            obs::HttpExporterOptions eopt;
            eopt.port = static_cast<std::uint16_t>(args.serve_metrics);
            exporter->start(eopt);
            // Scripts parse this line to find an ephemeral port; it
            // must land before the run starts.
            std::printf("serving metrics on http://127.0.0.1:%u\n",
                        static_cast<unsigned>(exporter->port()));
            std::fflush(stdout);
        }

        // --- Pacing (wall-clock; lets live scrapers watch the run) ---
        if (args.pace_ms > 0)
            opt.on_interval = [pace = args.pace_ms](
                                  const sim::IntervalObservation&, double,
                                  double) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(pace));
            };

        std::optional<harness::TraceWriter> trace;
        if (!args.trace_path.empty()) {
            trace.emplace(args.trace_path,
                          args.trace_format == "jsonl"
                              ? harness::TraceFormat::JsonLines
                              : harness::TraceFormat::Csv);
            opt.trace = &*trace;
        }

        // --- Durability (snapshots + WAL; GUIDE.md sec. 14) ----------
        std::optional<persist::Checkpointer> checkpointer;
        if (!args.checkpoint_dir.empty()) {
            if (!policy->supportsPersistence()) {
                std::fprintf(stderr,
                             "--checkpoint-dir: policy %s does not "
                             "support checkpointing\n",
                             policy->name().c_str());
                return 2;
            }
            // Everything that shapes the deterministic decision
            // stream - but not the duration, so a resumed run may
            // extend a shorter one.
            std::ostringstream fp;
            fp << "mix=" << mix.label << " policy=" << policy_name
               << " seed=" << args.seed << " noise=" << args.noise
               << " cores=" << args.cores << " ways=" << args.ways
               << " bw=" << args.bw << " power=" << args.power
               << " fault-plan=" << args.fault_plan_file
               << " fault-preset=" << args.fault_preset
               << " fault-seed=" << args.fault_seed
               << " vanilla=" << (args.vanilla ? 1 : 0);
            persist::CheckpointOptions copt;
            copt.dir = args.checkpoint_dir;
            copt.every = args.checkpoint_every;
            copt.resume = args.resume;
            copt.kill_at = args.kill_at;
            copt.kill_torn = args.kill_torn;
            checkpointer.emplace(copt, fp.str());
            opt.checkpoint = &*checkpointer;
        }

        const harness::ExperimentRunner runner(opt);
        const auto result = runner.run(server, *policy, mix.label);

        std::printf("mix:       %s\n", mix.label.c_str());
        std::printf("policy:    %s\n", result.policy_name.c_str());
        std::printf("simulated: %.1f s (%.0f ms intervals)\n",
                    args.duration, opt.dt * 1e3);
        std::printf("\nthroughput (normalized): %.4f\n",
                    result.mean_throughput);
        std::printf("fairness (Jain):         %.4f\n",
                    result.mean_fairness);
        std::printf("worst-job speedup:       %.4f\n",
                    result.worst_job_speedup);
        std::printf("per-job mean speedups:  ");
        for (std::size_t j = 0; j < result.job_mean_speedups.size(); ++j)
            std::printf(" %s=%.3f", mix.jobs[j].name.c_str(),
                        result.job_mean_speedups[j]);
        std::printf("\n");

        if (args.compare_oracle) {
            sim::SimulatedServer oracle_server = harness::makeServer(
                platform, mix, args.seed, args.noise);
            auto oracle =
                harness::makePolicy("Balanced-Oracle", oracle_server);
            const auto oracle_result =
                runner.run(oracle_server, *oracle, mix.label);
            std::printf("\n%% of Balanced Oracle: throughput %s, "
                        "fairness %s\n",
                        TablePrinter::pct(result.mean_throughput /
                                          oracle_result.mean_throughput)
                            .c_str(),
                        TablePrinter::pct(result.mean_fairness /
                                          oracle_result.mean_fairness)
                            .c_str());
        }
        if (injector) {
            std::printf("\nfault injection (seed %llu):\n  %s\n",
                        static_cast<unsigned long long>(args.fault_seed),
                        injector->stats().toString().c_str());
            if (auto* satori_policy =
                    dynamic_cast<core::SatoriController*>(policy.get())) {
                const auto& d = satori_policy->diagnostics();
                std::printf(
                    "  controller: %zu unusable, %zu actuation "
                    "mismatches, %zu retries, %zu degraded entries\n",
                    d.unusable_intervals, d.actuation_mismatches,
                    d.actuation_retries, d.degraded_entries);
            }
        }
        if (trace) {
            trace->close();
            std::printf("\ntrace: %zu records -> %s\n", trace->count(),
                        args.trace_path.c_str());
        }

        // --- Observability exports + end-of-run summaries ------------
        if (!args.trace_out.empty()) {
            obs::Tracer& tracer = obs::observability().tracer();
            tracer.writeChromeTrace(args.trace_out);
            std::printf("\nspans: %zu events -> %s\n",
                        tracer.events().size(), args.trace_out.c_str());
            TablePrinter spans(
                {"span", "count", "total ms", "mean us", "max us"});
            for (const auto& agg : tracer.aggregate()) {
                const double mean_us =
                    agg.count > 0 ? static_cast<double>(agg.total_ns) /
                                        static_cast<double>(agg.count) /
                                        1e3
                                  : 0.0;
                char total_ms[32], mean[32], max_us[32];
                std::snprintf(total_ms, sizeof(total_ms), "%.3f",
                              static_cast<double>(agg.total_ns) / 1e6);
                std::snprintf(mean, sizeof(mean), "%.2f", mean_us);
                std::snprintf(max_us, sizeof(max_us), "%.2f",
                              static_cast<double>(agg.max_ns) / 1e3);
                spans.addRow({agg.name, std::to_string(agg.count),
                              total_ms, mean, max_us});
            }
            spans.print();
        }
        if (!args.metrics_out.empty()) {
            const obs::MetricsSnapshot snap =
                obs::observability().metrics().snapshot();
            persist::atomicWriteFile(args.metrics_out,
                                     args.metrics_format == "jsonl"
                                         ? snap.jsonLines()
                                         : snap.prometheusText());
            std::printf("\nmetrics: %zu instruments -> %s\n",
                        snap.counters.size() + snap.gauges.size() +
                            snap.histograms.size(),
                        args.metrics_out.c_str());
            TablePrinter counters({"counter", "value"});
            for (const auto& c : snap.counters)
                if (c.value > 0)
                    counters.addRow({c.name, std::to_string(c.value)});
            counters.print();
        }
        if (!args.audit_out.empty()) {
            const obs::DecisionAuditChannel& audit =
                obs::observability().audit();
            audit.writeJsonl(args.audit_out);
            std::printf("\naudit: %zu decision records -> %s\n",
                        audit.records().size(), args.audit_out.c_str());
            if (audit.dropped() > 0)
                std::printf("audit: %llu oldest records dropped by the "
                            "ring (--audit-capacity %zu)\n",
                            static_cast<unsigned long long>(
                                audit.dropped()),
                            audit.capacity());
        }
        if (!args.history_out.empty()) {
            obs::StatsHistory& history = obs::observability().history();
            persist::atomicWriteFile(args.history_out, history.toJson());
            std::printf(
                "\nhistory: %zu snapshots (%llu evicted) -> %s\n",
                history.snapshots(),
                static_cast<unsigned long long>(history.evicted()),
                args.history_out.c_str());
        }
        if (!args.slo_spec_file.empty()) {
            obs::Watchdog& watchdog = obs::observability().watchdog();
            std::printf("\nslo: %zu rules, %llu breach events, "
                        "%zu currently in breach\n",
                        watchdog.spec().rules().size(),
                        static_cast<unsigned long long>(
                            watchdog.breachCount()),
                        watchdog.breaching());
            if (watchdog.breachCount() > 0)
                std::fputs(watchdog.eventsJsonl().c_str(), stdout);
        }
        if (exporter) {
            exporter->stop();
            std::printf("exporter: %llu http requests served\n",
                        static_cast<unsigned long long>(
                            obs::observability()
                                .lib()
                                .http_requests.value()));
        }
        return 0;
    } catch (const FatalError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        // Flush-on-FATAL: an SLO abort (or any other fatal) must not
        // lose the decisions leading up to it.
        try {
            if (!args.audit_out.empty() &&
                obs::observability().audit().size() > 0)
                obs::observability().audit().writeJsonl(args.audit_out);
            if (!args.history_out.empty() &&
                obs::observability().history().snapshots() > 0)
                persist::atomicWriteFile(
                    args.history_out,
                    obs::observability().history().toJson());
        } catch (...) {
            // Best effort only; the original error wins.
        }
        return 1;
    }
}
