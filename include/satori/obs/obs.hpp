/**
 * @file
 * The observability front door: a process-wide Observability context
 * owning the metrics registry, the span tracer, and the decision-audit
 * channel, plus the hook macros the rest of the library instruments
 * itself with.
 *
 * Instrumentation sites use two macros, both of which compile away to
 * nothing when the library is built with SATORI_OBS=OFF (the same
 * pattern as SATORI_AUDIT_HOOK in common/logging.hpp):
 *
 *   SATORI_OBS_SPAN("bo.fit");          // RAII span to scope exit
 *   SATORI_OBS_METRIC(bo_fits.inc());   // update a LibraryMetrics field
 *
 * Even when compiled in, everything is off by default: the tracer,
 * metrics, and audit channel each cost one branch per site until a
 * harness (satori_sim, tests, benches) enables them at runtime.
 *
 * Observability is one-way by design. The library writes spans,
 * metric updates, and audit records; nothing in the decision path
 * reads any of it back, so enabling observability can never change
 * what the controller decides - golden decision traces stay
 * byte-identical with obs on or off.
 */

#ifndef SATORI_OBS_OBS_HPP
#define SATORI_OBS_OBS_HPP

#include "satori/obs/audit.hpp"
#include "satori/obs/registry.hpp"
#include "satori/obs/tracer.hpp"

namespace satori {
namespace obs {

/**
 * Stable references to every instrument the library itself registers,
 * created once by the Observability context so hot-path macro sites
 * never pay a name lookup (and never trip the double-register fatal).
 */
struct LibraryMetrics
{
    /** Registers every library instrument in @p registry. */
    explicit LibraryMetrics(MetricsRegistry& registry);

    Counter& controller_decisions;   ///< decide() calls.
    Counter& controller_degraded;    ///< Intervals in degraded mode.
    Counter& controller_holds;       ///< Unusable-sample hold-course.
    Counter& controller_retries;     ///< Actuation-mismatch retries.
    Counter& controller_settles;     ///< Transitions into settled.
    Counter& bo_fits;                ///< Proxy-model refits.
    Counter& bo_grid_refits;         ///< Hyperparameter grid refits.
    Counter& bo_suggests;            ///< Acquisition maximizations.
    /**
     * Retired candidate-screening counters: still registered because
     * the benchmark harness (perfbench/) reads them, but nothing
     * increments them since screening was removed, so they stay 0.
     * They retire with the next benchmark change.
     */
    Counter& bo_screen_kept;
    Counter& bo_screen_pruned;       ///< See bo_screen_kept.
    Counter& gp_fits;                ///< GP Cholesky factorizations.
    Counter& gp_incremental_updates; ///< O(n^2) rank-1 GP appends.
    /**
     * Retired like bo_screen_kept: GaussianProcess::fitIncremental no
     * longer has a target-only refresh path, so this stays 0. It is
     * still registered because perfbench/ reads it.
     */
    Counter& gp_refresh_solves;
    Counter& guard_healthy;          ///< Telemetry samples passed.
    Counter& guard_repaired;         ///< Telemetry samples repaired.
    Counter& guard_unusable;         ///< Telemetry samples rejected.
    Counter& faults_injected;        ///< Fault activations flagged.
    Counter& oracle_searches;        ///< Cold (memo-miss) Oracle searches.
    Counter& oracle_configs_scored;  ///< Configurations those visited.
    Counter& sim_steps;              ///< Simulated server intervals.
    Counter& harness_intervals;      ///< Harness control intervals.
    Counter& persist_wal_records;    ///< WAL records appended.
    Counter& persist_snapshots;      ///< Snapshots installed.
    Counter& persist_snapshot_bytes; ///< Snapshot payload bytes.

    Gauge& bo_samples;               ///< Current training-set size.
    Gauge& controller_w_t;           ///< Throughput weight in force.
    Gauge& controller_w_f;           ///< Fairness weight in force.
    Gauge& controller_objective;     ///< Last combined objective.

    Histogram& bo_candidates;        ///< Candidates per suggest call.
    Histogram& gp_training_size;     ///< Training size per GP fit.
};

/**
 * Process-wide observability context. Reached through observability();
 * constructed lazily on first use with everything disabled.
 */
class Observability
{
  public:
    Observability(const Observability&) = delete;
    Observability& operator=(const Observability&) = delete;

    /** The process-wide instance. */
    static Observability& instance();

    /** The metrics registry (library + harness instruments). */
    [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }

    /** The span tracer. */
    [[nodiscard]] Tracer& tracer() { return tracer_; }

    /** The decision-audit channel. */
    [[nodiscard]] DecisionAuditChannel& audit() { return audit_; }

    /** Pre-registered handles for the library's own instruments. */
    [[nodiscard]] LibraryMetrics& lib() { return lib_; }

    /** Turn metric updates on or off (macro sites branch on this). */
    void setMetricsEnabled(bool enabled) { metrics_enabled_ = enabled; }

    /** True while SATORI_OBS_METRIC sites record. */
    [[nodiscard]] bool metricsEnabled() const { return metrics_enabled_; }

    /**
     * Return to the just-constructed state: metrics zeroed, spans and
     * audit records dropped, everything disabled. For tests and
     * benches that share the process-wide instance.
     */
    void resetAll();

  private:
    Observability();

    MetricsRegistry metrics_;
    Tracer tracer_;
    DecisionAuditChannel audit_;
    LibraryMetrics lib_;
    bool metrics_enabled_ = false;
};

/** Shorthand for Observability::instance(). */
[[nodiscard]] Observability& observability();

} // namespace obs
} // namespace satori

#if defined(SATORI_OBS_ENABLED) && SATORI_OBS_ENABLED

#define SATORI_OBS_CONCAT_INNER(a, b) a##b
#define SATORI_OBS_CONCAT(a, b) SATORI_OBS_CONCAT_INNER(a, b)

/**
 * Open an RAII span named @p name (a string literal) lasting until
 * scope exit. One branch when the tracer is disabled.
 */
#define SATORI_OBS_SPAN(name)                                            \
    ::satori::obs::SpanGuard SATORI_OBS_CONCAT(satori_obs_span_,         \
                                               __LINE__)(               \
        ::satori::obs::observability().tracer(), name)

/**
 * Update a LibraryMetrics field, e.g. SATORI_OBS_METRIC(bo_fits.inc())
 * or SATORI_OBS_METRIC(bo_samples.set(n)). One branch when metrics
 * are disabled.
 */
#define SATORI_OBS_METRIC(update)                                        \
    do {                                                                 \
        ::satori::obs::Observability& satori_obs_ctx =                   \
            ::satori::obs::observability();                              \
        if (satori_obs_ctx.metricsEnabled())                             \
            satori_obs_ctx.lib().update;                                 \
    } while (0)

#else // !SATORI_OBS_ENABLED

#define SATORI_OBS_SPAN(name)                                            \
    do {                                                                 \
    } while (0)
#define SATORI_OBS_METRIC(update)                                        \
    do {                                                                 \
    } while (0)

#endif // SATORI_OBS_ENABLED

#endif // SATORI_OBS_OBS_HPP
