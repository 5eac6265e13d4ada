#include "satori/obs/obs.hpp"

namespace satori {
namespace obs {

LibraryMetrics::LibraryMetrics(MetricsRegistry& registry)
    : controller_decisions(registry.counter(
          "satori.controller.decisions",
          "Total controller decide() invocations")),
      controller_degraded(registry.counter(
          "satori.controller.degraded_intervals",
          "Intervals spent in the equal-partition degraded fallback")),
      controller_holds(registry.counter(
          "satori.controller.holds",
          "Decisions held because the telemetry sample was unusable")),
      controller_retries(registry.counter(
          "satori.controller.actuation_retries",
          "Decisions that re-issued a config after an actuation "
          "mismatch")),
      controller_settles(registry.counter(
          "satori.controller.settles",
          "Transitions from exploration into the settled state")),
      bo_fits(registry.counter("satori.bo.fits",
                               "Proxy-model refits over the sample set")),
      bo_grid_refits(registry.counter(
          "satori.bo.grid_refits",
          "Proxy-model refits that re-ran the hyperparameter grid")),
      bo_suggests(registry.counter(
          "satori.bo.suggests",
          "Acquisition maximizations over a candidate set")),
      bo_screen_kept(registry.counter(
          "satori.bo.screen_kept",
          "Retired (candidate screening was removed); always 0")),
      bo_screen_pruned(registry.counter(
          "satori.bo.screen_pruned",
          "Retired (candidate screening was removed); always 0")),
      gp_fits(registry.counter(
          "satori.gp.fits",
          "Gaussian-process Cholesky factorizations")),
      gp_incremental_updates(registry.counter(
          "satori.gp.incremental_updates",
          "Rank-1 Cholesky appends that skipped the full refit")),
      gp_refresh_solves(registry.counter(
          "satori.gp.refresh_solves",
          "Retired (the target-only refresh was removed); always 0")),
      guard_healthy(registry.counter(
          "satori.guard.healthy",
          "Telemetry samples the guard passed through unchanged")),
      guard_repaired(registry.counter(
          "satori.guard.repaired",
          "Telemetry samples the guard repaired before use")),
      guard_unusable(registry.counter(
          "satori.guard.unusable",
          "Telemetry samples the guard rejected as unusable")),
      faults_injected(registry.counter(
          "satori.faults.injected",
          "Fault-injector activations flagged during runs")),
      oracle_searches(registry.counter(
          "satori.oracle.searches",
          "Cold exhaustive-Oracle searches (memo misses)")),
      oracle_configs_scored(registry.counter(
          "satori.oracle.configs_scored",
          "Configurations scored by cold Oracle searches")),
      sim_steps(registry.counter(
          "satori.sim.steps",
          "Simulated-server interval advances")),
      harness_intervals(registry.counter(
          "satori.harness.intervals",
          "Control intervals executed by the experiment harness")),
      persist_wal_records(registry.counter(
          "satori.persist.wal_records",
          "Interval records appended to the write-ahead log")),
      persist_snapshots(registry.counter(
          "satori.persist.snapshots",
          "Controller-state snapshots installed")),
      persist_snapshot_bytes(registry.counter(
          "satori.persist.snapshot_bytes",
          "Total snapshot payload bytes written")),
      bo_samples(registry.gauge(
          "satori.bo.samples",
          "Proxy-model training-set size after the last update")),
      controller_w_t(registry.gauge(
          "satori.controller.w_t",
          "Dynamic throughput weight used by the last decision")),
      controller_w_f(registry.gauge(
          "satori.controller.w_f",
          "Dynamic fairness weight used by the last decision")),
      controller_objective(registry.gauge(
          "satori.controller.objective",
          "Combined objective value of the last scored interval")),
      bo_candidates(registry.histogram(
          "satori.bo.candidates",
          "Candidate configurations evaluated per suggest call",
          {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0})),
      gp_training_size(registry.histogram(
          "satori.gp.training_size",
          "Training-set size at each GP fit",
          {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0}))
{
}

Observability::Observability() : lib_(metrics_)
{
}

Observability&
Observability::instance()
{
    // Meyers singleton; members guard their own state (see
    // include/satori/obs/registry.hpp).
    // satori-analyzer: allow(conc-global-mutable)
    static Observability ctx;
    return ctx;
}

void
Observability::resetAll()
{
    metrics_.reset();
    tracer_.clear();
    tracer_.setEnabled(false);
    audit_.clear();
    audit_.setEnabled(false);
    audit_.setCapacity(DecisionAuditChannel::kDefaultCapacity);
    metrics_enabled_ = false;
}

Observability&
observability()
{
    return Observability::instance();
}

} // namespace obs
} // namespace satori
