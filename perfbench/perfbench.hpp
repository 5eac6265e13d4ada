/**
 * @file
 * Shared declarations of the repository benchmark: workload
 * definitions, the per-cell and per-pass outcomes the driver measures,
 * and the layer microbenches. Everything here reaches the library only
 * through its public headers; no span or counter is added inside it.
 */

#ifndef SATORI_PERFBENCH_PERFBENCH_HPP
#define SATORI_PERFBENCH_PERFBENCH_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "satori/satori.hpp"

namespace perfbench {

/** One reported metric: name, value as measured, unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

using MetricList = std::vector<Metric>;

/** One simulated run: a job mix under one policy. */
struct CellSpec
{
    std::string label;
    satori::workloads::JobMix mix;
    std::string policy;            ///< harness::makePolicy name.
    std::uint64_t server_seed = 0; ///< Noise seed of the server.
    std::uint64_t fault_seed = 0;  ///< Injector seed (faults only).
    bool faults = false;           ///< Run the escalating fault plan.
    bool checkpoint = false;       ///< WAL + snapshots into scratch.
};

/** A named set of cells run back to back, closed loop. */
struct WorkloadSpec
{
    std::string name;
    satori::PlatformSpec platform;
    satori::Seconds duration = 0.0; ///< Simulated seconds per cell.
    double noise = 0.04;
    std::vector<CellSpec> cells;
};

/** Names accepted by makeWorkload(), in the documented order. */
[[nodiscard]] std::vector<std::string> workloadNames();

/**
 * Build the cells of workload @p name. Only the server noise seeds and
 * the fault seeds derive from @p seed; the mixes themselves are fixed.
 * @throws std::invalid_argument for an unknown name.
 */
[[nodiscard]] WorkloadSpec makeWorkload(const std::string& name,
                                        std::uint64_t seed);

/** Telemetry-guard verdicts scored against the injector's truth. */
struct GuardScore
{
    std::size_t verdicts = 0;         ///< Decides with the guard on.
    std::size_t repaired = 0;         ///< Verdicts of Repaired.
    std::size_t unusable = 0;         ///< Verdicts of Unusable.
    std::size_t clean = 0;            ///< Intervals with no fault flag.
    std::size_t clean_alarms = 0;     ///< ... judged non-Healthy.
    std::size_t perturbed = 0;        ///< Telemetry faults injected.
    std::size_t perturbed_missed = 0; ///< ... judged Healthy.

    void add(const GuardScore& o);
};

/** What one cell run produced and whether it passed its checks. */
struct CellOutcome
{
    std::string label;
    std::string error; ///< Empty when every check passed.
    std::size_t intervals = 0;
    double wall_s = 0.0; ///< Host time of ExperimentRunner::run.
    std::vector<double> decide_us;
    std::vector<double> explore_us; ///< Decides that ran a BO suggest.
    std::vector<double> settled_us; ///< Decides that did not.
    std::uint64_t digest = 0;       ///< Of every decided configuration.
    double throughput = 0.0;
    double fairness = 0.0;
    double worst_job = 0.0;

    std::size_t oracle_decides = 0;
    std::size_t cold_searches = 0;
    std::vector<double> search_ms;
    std::uint64_t space_size = 0;

    GuardScore guard;
    std::size_t faults_injected = 0;
};

/** Self and total time of all spans sharing one name. */
struct SpanStats
{
    std::size_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    std::vector<double> durations_us;
};

/** Library counters read before and after a traced pass. */
struct CounterSnapshot
{
    std::uint64_t bo_fits = 0;
    std::uint64_t bo_suggests = 0;
    std::uint64_t bo_screen_kept = 0;
    std::uint64_t bo_screen_pruned = 0;
    std::uint64_t bo_candidates_count = 0;
    double bo_candidates_sum = 0.0;
    std::uint64_t gp_fits = 0;
    std::uint64_t gp_incremental = 0;
    std::uint64_t gp_refresh = 0;
    std::uint64_t controller_settles = 0;
    std::uint64_t persist_snapshots = 0;
    std::uint64_t persist_snapshot_bytes = 0;

    [[nodiscard]] static CounterSnapshot read();
};

/**
 * The reference kernel's time on a quiet host of the kind the first
 * numbers were recorded on. Reported host times are measured times
 * scaled by kReferenceKernelS / (mean kernel time during the run).
 */
inline constexpr double kReferenceKernelS = 4.0e-3;

/**
 * Samples the host's speed while a run is measured: times a fixed
 * reference kernel (GP-style distance and Cholesky arithmetic plus
 * small allocations) once per 100 ms of host time, between decides,
 * and keeps the time it spent so callers can exclude it from their
 * own. The kernel lives in the benchmark, so no change to the library
 * moves it; only the host's own speed does.
 */
class HostSpeedSampler
{
  public:
    /** Time the kernel @p reps times now. */
    void sample(int reps = 1);

    /** Time the kernel once per 100 ms passed since the last sample. */
    void maybeSample();

    /** kReferenceKernelS over the mean kernel time (1 if unsampled). */
    [[nodiscard]] double scale() const;

    [[nodiscard]] std::size_t samples() const { return kernel_s_.size(); }

    /** Host seconds spent sampling so far. */
    [[nodiscard]] double spentSeconds() const { return spent_s_; }

  private:
    std::vector<double> kernel_s_;
    double spent_s_ = 0.0;
    std::uint64_t last_ns_ = 0;
};

/** One pass: every cell of a workload, built and run once. */
struct PassOutcome
{
    std::vector<CellOutcome> cells;
    double setup_s = 0.0; ///< Cell construction inside the pass.
    double run_s = 0.0;   ///< Sum of the cells' wall_s.
    std::size_t intervals = 0;

    // Traced passes only.
    std::map<std::string, SpanStats> spans;
    CounterSnapshot counters;
    std::uint64_t span_root_ns = 0; ///< Sum of depth-0 span durations.

    [[nodiscard]] std::size_t failed() const;
};

/**
 * Build and run every cell of @p spec once. With @p speed (untraced
 * passes), the host's speed is sampled before each cell and every
 * 100 ms within it, and the sampling time is left out of the cells'
 * wall_s. Without it (traced passes), the span tracer and library
 * metrics are on for the pass and their aggregates land in the
 * outcome. Checkpoint files go to per-cell directories under
 * @p scratch_dir.
 */
[[nodiscard]] PassOutcome runPass(const WorkloadSpec& spec,
                                  HostSpeedSampler* speed,
                                  const std::string& scratch_dir);

/**
 * Host seconds to set a workload up once: generate its cells from
 * @p seed and construct every server, policy, injector and
 * checkpointer, as runPass does before each cell.
 */
[[nodiscard]] double timeSetup(const std::string& workload,
                               std::uint64_t seed,
                               const std::string& scratch_dir);

/**
 * Production-shape layer microbenches (15-dim BO at n = 16/32/64 on
 * real candidate sets, candidate generation, unranking, one simulator
 * step, one cold Oracle search). Appends to @p metrics; appends a
 * description of each failed check to @p errors.
 */
void runMicrobenches(std::uint64_t seed, MetricList& metrics,
                     std::vector<std::string>& errors);

/** Linear-interpolated quantile @p q in [0, 1] (0 for empty input). */
[[nodiscard]] double quantile(std::vector<double> values, double q);

} // namespace perfbench

#endif // SATORI_PERFBENCH_PERFBENCH_HPP
