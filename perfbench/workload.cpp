/**
 * @file
 * Workload definitions and the pass runner: builds every cell of a
 * workload, drives it through harness::ExperimentRunner with a timing
 * decorator around decide(), checks its outputs, and (traced passes)
 * folds the tracer's spans into per-name self times.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "perfbench.hpp"
#include "satori/persist/checkpoint.hpp"

namespace perfbench {

using namespace satori;

namespace {

/** SplitMix64 finalizer: decorrelates seeds derived from one base. */
std::uint64_t
mixSeed(std::uint64_t base, std::uint64_t stream, std::uint64_t index)
{
    std::uint64_t z = base + 0x9E3779B97F4A7C15ULL * (stream * 1000003ULL +
                                                      index + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** FNV-1a over every unit count of @p config, folded into @p h. */
std::uint64_t
hashConfig(std::uint64_t h, const Configuration& config)
{
    for (std::size_t r = 0; r < config.numResources(); ++r)
        for (const int u : config.resourceRow(r)) {
            h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(u));
            h *= 0x100000001B3ULL;
        }
    h ^= 0xFF; // resource/interval separator
    h *= 0x100000001B3ULL;
    return h;
}

/** True when @p flags (FaultInjector::lastFlags) perturbed telemetry. */
bool
telemetryPerturbed(const std::string& flags)
{
    for (const char* token : {"drop(", "nan(", "freeze(", "spike("})
        if (flags.find(token) != std::string::npos)
            return true;
    return false;
}

/** Everything one cell needs to run; addresses stay fixed. */
struct LiveCell
{
    explicit LiveCell(sim::SimulatedServer s) : server(std::move(s)) {}

    sim::SimulatedServer server;
    std::unique_ptr<policies::PartitioningPolicy> policy;
    std::optional<faults::FaultInjector> injector;
    std::optional<persist::Checkpointer> checkpointer;
};

std::unique_ptr<LiveCell>
buildCell(const WorkloadSpec& spec, const CellSpec& cell,
          const std::string& checkpoint_dir)
{
    auto live = std::make_unique<LiveCell>(harness::makeServer(
        spec.platform, cell.mix, cell.server_seed, spec.noise));
    // Passed explicitly: GCC 12 warns falsely on the default temporary.
    const core::SatoriOptions satori_defaults;
    live->policy =
        harness::makePolicy(cell.policy, live->server, satori_defaults);
    if (cell.faults) {
        const auto horizon =
            static_cast<std::size_t>(std::llround(spec.duration /
                                                  kDefaultIntervalSeconds));
        live->injector.emplace(
            faults::FaultPlan::escalating(cell.mix.jobs.size(), horizon),
            cell.fault_seed);
    }
    if (cell.checkpoint) {
        persist::CheckpointOptions copt;
        copt.dir = checkpoint_dir;
        copt.every = 50;
        live->checkpointer.emplace(copt, "perfbench " + spec.name + " " +
                                             cell.label);
    }
    return live;
}

/**
 * Times every decide() of the wrapped policy and checks what it can
 * see from outside: the guard's verdict against the injector's flags
 * (SATORI) and each cold Oracle search against metricsFor.
 */
class TimedPolicy final : public policies::PartitioningPolicy
{
  public:
    TimedPolicy(policies::PartitioningPolicy& inner,
                const sim::SimulatedServer& server,
                const faults::FaultInjector* injector,
                HostSpeedSampler* sampler, CellOutcome& out)
        : inner_(inner), server_(server), injector_(injector),
          sampler_(sampler), out_(out),
          satori_(dynamic_cast<core::SatoriController*>(&inner)),
          oracle_(dynamic_cast<policies::OraclePolicy*>(&inner)),
          equal_(Configuration::equalPartition(server.platform(),
                                               server.numJobs()))
    {
        out_.digest = 0xCBF29CE484222325ULL;
        if (oracle_ != nullptr)
            out_.space_size = oracle_->evaluator().space().size();
    }

    [[nodiscard]] std::string name() const override
    {
        return inner_.name();
    }

    Configuration decide(const IntervalObservation& obs) override
    {
        obs::Observability& o = obs::observability();
        core::TelemetryGuardStats guard_before;
        if (satori_ != nullptr)
            guard_before = satori_->telemetryGuard().stats();
        const std::size_t searches_before =
            oracle_ != nullptr ? oracle_->evaluator().searchesPerformed()
                               : 0;
        const std::uint64_t suggests_before = o.lib().bo_suggests.value();

        Configuration next;
        const std::uint64_t t0 = obs::steadyNowNs();
        {
            obs::SpanGuard span(o.tracer(), "bench.decide");
            next = inner_.decide(obs);
        }
        const double us =
            static_cast<double>(obs::steadyNowNs() - t0) * 1e-3;

        out_.decide_us.push_back(us);
        out_.digest = hashConfig(out_.digest, next);
        if (satori_ != nullptr) {
            // The suggest counter only moves while metrics are on.
            if (o.metricsEnabled())
                (o.lib().bo_suggests.value() != suggests_before
                     ? out_.explore_us
                     : out_.settled_us)
                    .push_back(us);
            scoreGuard(guard_before);
        }
        if (oracle_ != nullptr)
            accountOracle(searches_before, us, next);
        if (sampler_ != nullptr)
            sampler_->maybeSample();
        return next;
    }

    void reset() override { inner_.reset(); }

    [[nodiscard]] bool supportsPersistence() const override
    {
        return inner_.supportsPersistence();
    }

    void saveState(persist::StateWriter& w) const override
    {
        inner_.saveState(w);
    }

    void restoreState(persist::StateReader& r) override
    {
        inner_.restoreState(r);
    }

  private:
    void fail(const std::string& what)
    {
        if (out_.error.empty())
            out_.error = what;
    }

    void scoreGuard(const core::TelemetryGuardStats& before)
    {
        const core::TelemetryGuardStats& now =
            satori_->telemetryGuard().stats();
        if (now.intervals == before.intervals)
            return; // guard disabled
        GuardScore& g = out_.guard;
        const bool unusable =
            now.unusable_intervals != before.unusable_intervals;
        const bool repaired =
            !unusable && (now.repaired_values != before.repaired_values ||
                          now.regime_accepts != before.regime_accepts);
        ++g.verdicts;
        g.unusable += unusable ? 1 : 0;
        g.repaired += repaired ? 1 : 0;
        const std::string flags =
            injector_ != nullptr ? injector_->lastFlags() : std::string();
        if (flags.empty()) {
            ++g.clean;
            g.clean_alarms += (unusable || repaired) ? 1 : 0;
        } else if (telemetryPerturbed(flags)) {
            ++g.perturbed;
            g.perturbed_missed += (unusable || repaired) ? 0 : 1;
        }
    }

    void accountOracle(std::size_t searches_before, double us,
                       const Configuration& next)
    {
        sim::OfflineEvaluator& ev = oracle_->evaluator();
        const std::size_t searches = ev.searchesPerformed();
        ++out_.oracle_decides;
        if (searches == searches_before)
            return;
        if (searches != searches_before + 1) {
            fail("one decide() ran more than one Oracle search");
            return;
        }
        ++out_.cold_searches;
        out_.search_ms.push_back(us * 1e-3);

        const double w_t = oracle_->weightThroughput();
        const double w_f = oracle_->weightFairness();
        const std::vector<std::size_t> sig = server_.phaseSignature();
        const sim::OracleResult& best = ev.bestFor(sig, w_t, w_f);
        if (ev.searchesPerformed() != searches)
            fail("Oracle re-query missed its memo");
        if (!best.exhaustive)
            fail("Oracle search was not exhaustive");
        if (!(best.config == next))
            fail("Oracle decided a configuration other than its argmax");
        const auto [t, f] = ev.metricsFor(best.config, sig);
        if (!(std::abs(w_t * t + w_f * f - best.objective) <= 1e-12))
            fail("Oracle objective does not match metricsFor");
        const auto [te, fe] = ev.metricsFor(equal_, sig);
        if (!(best.objective >= w_t * te + w_f * fe - 1e-12))
            fail("Oracle objective is below the equal partition's");
    }

    policies::PartitioningPolicy& inner_;
    const sim::SimulatedServer& server_;
    const faults::FaultInjector* injector_;
    HostSpeedSampler* sampler_;
    CellOutcome& out_;
    core::SatoriController* satori_;
    policies::OraclePolicy* oracle_;
    Configuration equal_;
};

bool
inUnitInterval(double v)
{
    return std::isfinite(v) && v > 0.0 && v <= 1.0;
}

/** Run one built cell through the harness and check its outputs. */
void
runCell(const WorkloadSpec& spec, LiveCell& live, HostSpeedSampler* sampler,
        CellOutcome& out)
{
    harness::ExperimentOptions opt;
    opt.duration = spec.duration;
    opt.faults = live.injector ? &*live.injector : nullptr;
    opt.checkpoint = live.checkpointer ? &*live.checkpointer : nullptr;
    opt.on_interval = [&out](const sim::IntervalObservation&, double t,
                             double f) {
        ++out.intervals;
        if (out.error.empty() && !(inUnitInterval(t) && inUnitInterval(f)))
            out.error = "interval throughput/fairness outside (0, 1]";
    };

    TimedPolicy timed(*live.policy, live.server, opt.faults, sampler, out);
    const harness::ExperimentRunner runner(opt);
    const harness::ExperimentResult result =
        runner.run(live.server, timed, out.label);

    out.throughput = result.mean_throughput;
    out.fairness = result.mean_fairness;
    out.worst_job = result.worst_job_speedup;
    if (live.injector)
        out.faults_injected = live.injector->stats().total();

    if (!(inUnitInterval(out.throughput) && inUnitInterval(out.fairness) &&
          inUnitInterval(out.worst_job)))
        out.error = "mean throughput/fairness/worst-job outside (0, 1]";
    const auto expected = static_cast<std::size_t>(
        std::llround(spec.duration / kDefaultIntervalSeconds));
    if (out.intervals != expected || out.decide_us.size() != expected)
        out.error = "ran " + std::to_string(out.intervals) +
                    " intervals and " +
                    std::to_string(out.decide_us.size()) +
                    " decides, expected " + std::to_string(expected);
}

/**
 * Fold the tracer's completed spans into per-name totals and self
 * times (a span's duration minus its direct children's).
 */
void
foldSpans(const std::vector<obs::TraceEvent>& events, PassOutcome& pass)
{
    std::vector<std::uint64_t> child_ns(events.size(), 0);
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const obs::TraceEvent& e = events[i];
        while (open.size() > e.depth)
            open.pop_back();
        if (open.empty())
            pass.span_root_ns += e.duration_ns;
        else
            child_ns[open.back()] += e.duration_ns;
        open.push_back(i);
    }
    for (std::size_t i = 0; i < events.size(); ++i) {
        const obs::TraceEvent& e = events[i];
        SpanStats& s = pass.spans[e.name];
        ++s.count;
        s.total_ns += e.duration_ns;
        s.self_ns += e.duration_ns - std::min(child_ns[i], e.duration_ns);
        s.durations_us.push_back(static_cast<double>(e.duration_ns) * 1e-3);
    }
}

/** Noise seeds each SATORI mix runs under in one pass. */
constexpr std::size_t kReplicas = 2;

std::string
cellDir(const std::string& scratch_dir, std::size_t index)
{
    return scratch_dir + "/cell" + std::to_string(index);
}

} // namespace

void
GuardScore::add(const GuardScore& o)
{
    verdicts += o.verdicts;
    repaired += o.repaired;
    unusable += o.unusable;
    clean += o.clean;
    clean_alarms += o.clean_alarms;
    perturbed += o.perturbed;
    perturbed_missed += o.perturbed_missed;
}

CounterSnapshot
CounterSnapshot::read()
{
    const obs::LibraryMetrics& m = obs::observability().lib();
    CounterSnapshot s;
    s.bo_fits = m.bo_fits.value();
    s.bo_suggests = m.bo_suggests.value();
    s.bo_screen_kept = m.bo_screen_kept.value();
    s.bo_screen_pruned = m.bo_screen_pruned.value();
    s.bo_candidates_count = m.bo_candidates.count();
    s.bo_candidates_sum = m.bo_candidates.sum();
    s.gp_fits = m.gp_fits.value();
    s.gp_incremental = m.gp_incremental_updates.value();
    s.gp_refresh = m.gp_refresh_solves.value();
    s.controller_settles = m.controller_settles.value();
    s.persist_snapshots = m.persist_snapshots.value();
    s.persist_snapshot_bytes = m.persist_snapshot_bytes.value();
    return s;
}

std::size_t
PassOutcome::failed() const
{
    std::size_t n = 0;
    for (const CellOutcome& c : cells)
        n += c.error.empty() ? 0 : 1;
    return n;
}

std::vector<std::string>
workloadNames()
{
    return {"parsec5-satori", "parsec5-oracle", "cloudsuite3-faults"};
}

WorkloadSpec
makeWorkload(const std::string& name, std::uint64_t seed)
{
    WorkloadSpec spec;
    spec.name = name;
    spec.platform = PlatformSpec::paperTestbed();
    if (name == "parsec5-satori") {
        // The shipped controller at its production shape: 15 dims,
        // 3,333,960 configurations. Host time is almost all decide().
        // Every mix runs under kReplicas noise seeds, because how much
        // SATORI explores, and so its host time, varies by seed.
        spec.duration = 300.0;
        const auto mixes = workloads::allMixes(workloads::parsecSuite(), 5);
        for (std::size_t r = 0; r < kReplicas; ++r)
            for (std::size_t i = 0; i < mixes.size(); ++i) {
                CellSpec c;
                c.mix = mixes[i];
                c.label = mixes[i].label + "/SATORI#" + std::to_string(r);
                c.policy = "SATORI";
                c.server_seed = mixSeed(seed, 1, r * mixes.size() + i);
                spec.cells.push_back(std::move(c));
            }
    } else if (name == "parsec5-oracle") {
        // Exhaustive Oracle search dominates the paper suite's wall
        // time; all three kinds per mix let a memo shared across
        // kinds show. Fig. 7's quick duration.
        spec.duration = 24.0;
        const auto mixes = workloads::allMixes(workloads::parsecSuite(), 5);
        for (const std::size_t i : {std::size_t{0}}) {
            for (const char* kind :
                 {"Throughput-Oracle", "Fairness-Oracle",
                  "Balanced-Oracle"}) {
                CellSpec c;
                c.mix = mixes[i];
                c.label = mixes[i].label + "/" + kind;
                c.policy = kind;
                c.server_seed = mixSeed(seed, 1, i);
                spec.cells.push_back(std::move(c));
            }
        }
    } else if (name == "cloudsuite3-faults") {
        // A second BO shape (9 dims, 58,320 configurations) under the
        // escalating fault plan with durability on: the one workload
        // where the guard, persist and faults layers do real work.
        spec.duration = 600.0;
        const auto mixes = workloads::allMixes(workloads::cloudSuite(), 3);
        for (std::size_t r = 0; r < kReplicas; ++r)
            for (std::size_t i = 0; i < mixes.size(); ++i) {
                const std::size_t k = r * mixes.size() + i;
                CellSpec c;
                c.mix = mixes[i];
                c.label = mixes[i].label + "/SATORI+faults#" +
                          std::to_string(r);
                c.policy = "SATORI";
                c.server_seed = mixSeed(seed, 1, k);
                c.fault_seed = mixSeed(seed, 2, k);
                c.faults = true;
                c.checkpoint = true;
                spec.cells.push_back(std::move(c));
            }
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return spec;
}

PassOutcome
runPass(const WorkloadSpec& spec, HostSpeedSampler* speed,
        const std::string& scratch_dir)
{
    // Traced passes leave the sampler out so every span covers library
    // or harness work.
    const bool traced = speed == nullptr;
    obs::Observability& o = obs::observability();
    o.resetAll();
    o.tracer().setEnabled(traced);
    o.setMetricsEnabled(traced);

    PassOutcome pass;
    pass.cells.resize(spec.cells.size());
    for (std::size_t i = 0; i < spec.cells.size(); ++i) {
        CellOutcome& out = pass.cells[i];
        out.label = spec.cells[i].label;
        if (speed != nullptr)
            speed->sample();
        const auto t0 = std::chrono::steady_clock::now();
        try {
            std::unique_ptr<LiveCell> live;
            {
                obs::SpanGuard span(o.tracer(), "bench.setup");
                live = buildCell(spec, spec.cells[i],
                                 cellDir(scratch_dir, i));
            }
            pass.setup_s += secondsSince(t0);
            const double sampled_before =
                speed != nullptr ? speed->spentSeconds() : 0.0;
            const auto t1 = std::chrono::steady_clock::now();
            {
                obs::SpanGuard span(o.tracer(), "bench.cell");
                runCell(spec, *live, speed, out);
            }
            out.wall_s = secondsSince(t1);
            if (speed != nullptr)
                out.wall_s -= speed->spentSeconds() - sampled_before;
        } catch (const std::exception& e) {
            out.error = std::string("threw: ") + e.what();
        }
        pass.run_s += out.wall_s;
        pass.intervals += out.intervals;
        if (traced) {
            // Folding happens between cells, outside every timed
            // region, so it costs the measured pass nothing.
            if (o.tracer().openSpans() != 0 && out.error.empty())
                out.error = "spans left open after the cell";
            foldSpans(o.tracer().events(), pass);
            o.tracer().clear();
        }
    }
    if (traced)
        pass.counters = CounterSnapshot::read();
    o.resetAll();
    return pass;
}

double
timeSetup(const std::string& workload, std::uint64_t seed,
          const std::string& scratch_dir)
{
    std::vector<std::unique_ptr<LiveCell>> cells;
    const auto t0 = std::chrono::steady_clock::now();
    const WorkloadSpec spec = makeWorkload(workload, seed);
    cells.reserve(spec.cells.size());
    for (std::size_t i = 0; i < spec.cells.size(); ++i)
        cells.push_back(
            buildCell(spec, spec.cells[i], cellDir(scratch_dir, i)));
    return secondsSince(t0);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

} // namespace perfbench
