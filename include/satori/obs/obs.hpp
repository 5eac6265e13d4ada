/**
 * @file
 * The observability front door: a process-wide Observability context
 * owning the metrics registry, the span tracer, and the decision-audit
 * channel, plus the hook macros the rest of the library instruments
 * itself with.
 *
 * Instrumentation sites use three macros, all of which compile away to
 * nothing when the library is built with SATORI_OBS=OFF (the same
 * pattern as SATORI_AUDIT_HOOK in common/logging.hpp):
 *
 *   SATORI_OBS_SPAN("bo.fit");          // RAII span to scope exit
 *   SATORI_OBS_METRIC(bo_fits.inc());   // update a LibraryMetrics field
 *   SATORI_OBS_HOOK(stmt);              // arbitrary obs-only statement
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

#include <cstdint>
#include <string>
#include <vector>

#include "satori/common/thread_annotations.hpp"
#include "satori/obs/audit.hpp"
#include "satori/obs/registry.hpp"
#include "satori/obs/stats_history.hpp"
#include "satori/obs/tracer.hpp"
#include "satori/obs/watchdog.hpp"

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
    Counter& slo_breaches;           ///< Watchdog breach events.
    Counter& http_requests;          ///< Exporter requests served.

    Gauge& bo_samples;               ///< Current training-set size.
    Gauge& controller_w_t;           ///< Throughput weight in force.
    Gauge& controller_w_f;           ///< Fairness weight in force.
    Gauge& controller_objective;     ///< Last combined objective.

    Histogram& bo_candidates;        ///< Candidates per suggest call.
    Histogram& gp_training_size;     ///< Training size per GP fit.
};

/**
 * Point-in-time liveness view served by the exporter's `/healthz`:
 * how far the run has progressed, the controller's last-known state,
 * and the watchdog/history health of the telemetry plane itself.
 */
struct HealthView
{
    std::uint64_t intervals = 0;     ///< Live intervals observed.
    std::uint64_t last_interval = 0; ///< Newest interval index.
    double time = 0.0;               ///< Newest simulated time.

    bool have_decision = false;      ///< A controller has reported.
    std::string guard_verdict;       ///< Last guard verdict ("" none).
    bool degraded = false;           ///< Equal-partition fallback on.
    bool settled = false;            ///< Exploration currently off.
    double objective = 0.0;          ///< Last combined objective.

    std::size_t slo_rules = 0;       ///< Rules installed.
    std::size_t slo_breaching = 0;   ///< Rules currently in breach.
    std::uint64_t slo_breaches = 0;  ///< Breach events so far.

    bool history_enabled = false;
    std::size_t history_snapshots = 0;
    std::uint64_t history_evicted = 0;

    /** "ok" | "degraded" | "breaching" (worst state wins). */
    [[nodiscard]] const char* status() const;

    /** True when status() is "ok" (exporter maps false to HTTP 503). */
    [[nodiscard]] bool ok() const;

    /** Deterministic single-line JSON rendering. */
    [[nodiscard]] std::string toJson() const;
};

/**
 * Process-wide observability context. Reached through observability();
 * constructed lazily on first use with everything disabled.
 *
 * The *live plane* (StatsHistory + Watchdog + the per-interval facts
 * behind /healthz) stays dormant until setLiveEnabled(true); the
 * harness hook then records one history row and runs the watchdog
 * once per control interval. Like every other obs surface it is
 * one-way: the decision path writes facts in, the exporter and
 * watchdog only read.
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

    /** The bounded stats history (live plane). */
    [[nodiscard]] StatsHistory& history() { return history_; }

    /** The SLO watchdog (live plane). */
    [[nodiscard]] Watchdog& watchdog() { return watchdog_; }

    /** Pre-registered handles for the library's own instruments. */
    [[nodiscard]] LibraryMetrics& lib() { return lib_; }

    /** Turn metric updates on or off (macro sites branch on this). */
    void setMetricsEnabled(bool enabled) { metrics_enabled_ = enabled; }

    /** True while SATORI_OBS_METRIC sites record. */
    [[nodiscard]] bool metricsEnabled() const { return metrics_enabled_; }

    /** Turn the live plane on or off (configure before the run). */
    void setLiveEnabled(bool enabled) { live_enabled_ = enabled; }

    /** True while the per-interval live hook records. */
    [[nodiscard]] bool liveEnabled() const { return live_enabled_; }

    /**
     * Controller callback: remember the newest decision's facts for
     * /healthz and the next history row. Called by the controller's
     * audit path whenever the live plane is enabled, independent of
     * whether the audit channel buffers records.
     */
    void noteDecision(const DecisionRecord& record);

    /**
     * Harness callback, once per control interval after the decision
     * and trace write: snapshot the registry plus interval facts into
     * the history and run the watchdog. @p throughput and
     * @p fairness are the interval's normalized goal values; @p ips
     * the observed per-job rates. No-op unless the live plane is
     * enabled. @throws FatalError on an SLO breach in fatal mode.
     */
    void onHarnessInterval(std::uint64_t interval, double time,
                           const std::vector<double>& ips,
                           double throughput, double fairness);

    /** The current /healthz liveness view. */
    [[nodiscard]] HealthView healthView() const;

    /**
     * Return to the just-constructed state: metrics zeroed, spans,
     * audit records, history, watchdog state, and live facts dropped,
     * everything disabled. For tests and benches that share the
     * process-wide instance.
     */
    void resetAll();

  private:
    Observability();

    MetricsRegistry metrics_;
    Tracer tracer_;
    DecisionAuditChannel audit_;
    StatsHistory history_;
    Watchdog watchdog_;
    LibraryMetrics lib_;
    bool metrics_enabled_ = false;
    bool live_enabled_ = false; ///< Configuration-time flag (pre-run).

    mutable common::Mutex live_mutex_; ///< Guards the live facts.
    std::uint64_t live_intervals_ SATORI_GUARDED_BY(live_mutex_) = 0;
    std::uint64_t live_last_interval_ SATORI_GUARDED_BY(live_mutex_) = 0;
    double live_time_ SATORI_GUARDED_BY(live_mutex_) = 0.0;
    bool have_decision_ SATORI_GUARDED_BY(live_mutex_) = false;
    DecisionRecord last_decision_ SATORI_GUARDED_BY(live_mutex_);
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

/** Execute an arbitrary observability-only statement. */
#define SATORI_OBS_HOOK(stmt)                                            \
    do {                                                                 \
        stmt;                                                            \
    } while (0)

#else // !SATORI_OBS_ENABLED

#define SATORI_OBS_SPAN(name)                                            \
    do {                                                                 \
    } while (0)
#define SATORI_OBS_METRIC(update)                                        \
    do {                                                                 \
    } while (0)
#define SATORI_OBS_HOOK(stmt)                                            \
    do {                                                                 \
    } while (0)

#endif // SATORI_OBS_ENABLED

#endif // SATORI_OBS_OBS_HPP
