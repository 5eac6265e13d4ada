/**
 * @file
 * The decision-audit channel: one structured record per control
 * interval, answering "why did the controller pick this config" -
 * the observed IPS the decision was based on, the telemetry guard's
 * verdict, the BO proxy-model state, the objective/weight values in
 * force, the chosen configuration, and how the decision left the
 * controller (exploring, settled, holding, retrying actuation,
 * degraded).
 *
 * Records are buffered in a bounded in-memory ring and exported as
 * JSON Lines, so an auditable objective trajectory falls out of every
 * run without recompiling. The ring's capacity defaults high enough
 * that normal runs keep everything, but a long-lived daemon can never
 * grow the channel without limit: once full, the oldest record is
 * dropped for each new one and dropped() counts the loss. The newest
 * records also serve the exporter's `/audit/tail` endpoint. The
 * channel is observability only: the controller writes records, never
 * reads them back.
 */

#ifndef SATORI_OBS_AUDIT_HPP
#define SATORI_OBS_AUDIT_HPP

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "satori/common/thread_annotations.hpp"

namespace satori {
namespace obs {

/** Everything worth knowing about one control-interval decision. */
struct DecisionRecord
{
    std::size_t interval = 0;  ///< 0-based decide() invocation index.
    double time = 0.0;         ///< Simulated time of the observation.
    std::string policy;        ///< Deciding policy's name.

    std::vector<double> observed_ips; ///< Post-guard per-job IPS.
    std::string guard_verdict; ///< healthy | repaired | unusable | off.

    bool degraded = false;     ///< Equal-partition fallback active.
    bool settled = false;      ///< Exploration currently off.

    double throughput = 0.0;   ///< Normalized goal values in force.
    double fairness = 0.0;
    double w_t = 0.0;          ///< Dynamic weights in force.
    double w_f = 0.0;
    double objective = 0.0;    ///< w_t * T + w_f * F.

    std::size_t bo_samples = 0;     ///< Proxy-model training size.
    double proxy_change_pct = 0.0;  ///< Mean |d mean| % at the probes.

    std::string chosen_config; ///< Configuration::toString() form.

    /**
     * How the decision was produced: seed | explore | settled |
     * hold | retry-actuation | degraded.
     */
    std::string outcome;
};

/**
 * Buffers DecisionRecords in a bounded ring and exports them as JSON
 * Lines. Disabled by default; a disabled channel's emit() sites take
 * one branch.
 *
 * Thread-safety: emit(), jsonLines(), tailJsonLines(), size(),
 * dropped(), and clear() are serialized by an internal mutex so
 * concurrent controllers (one per simulated node) can share a channel
 * while the HTTP exporter tails it. setEnabled(), setCapacity(), and
 * the bulk records() accessor are configuration/post-run surfaces:
 * call them while no other thread is emitting.
 */
class DecisionAuditChannel
{
  public:
    /** Default ring capacity: generous (~1.8 h of 100 ms intervals). */
    static constexpr std::size_t kDefaultCapacity = 65536;

    DecisionAuditChannel() = default;
    DecisionAuditChannel(const DecisionAuditChannel&) = delete;
    DecisionAuditChannel& operator=(const DecisionAuditChannel&) = delete;

    /** Turn record buffering on or off (configure before the run). */
    void setEnabled(bool enabled) { enabled_ = enabled; }

    /** True while records are being buffered. */
    [[nodiscard]] bool enabled() const { return enabled_; }

    /**
     * Set the ring capacity (>= 1; values of 0 are clamped to 1) and
     * trim the oldest records if already over it.
     */
    void setCapacity(std::size_t capacity);

    /** The ring capacity in force. */
    [[nodiscard]] std::size_t capacity() const;

    /** Buffer one record, evicting the oldest when full (no-op while
     *  disabled). */
    void emit(DecisionRecord record);

    /** Records currently retained. */
    [[nodiscard]] std::size_t size() const;

    /** Oldest records evicted by the ring since the last clear(). */
    [[nodiscard]] std::uint64_t dropped() const;

    /**
     * Records buffered so far (oldest first). Returns a reference
     * into the ring: callers must be quiesced (no concurrent emit),
     * which is why this accessor is exempt from the lock analysis.
     */
    [[nodiscard]] const std::deque<DecisionRecord>& records() const
        SATORI_NO_THREAD_SAFETY_ANALYSIS
    {
        return records_;
    }

    /** All retained records as JSON Lines (one object per line). */
    [[nodiscard]] std::string jsonLines() const;

    /** The newest @p n records as JSON Lines (oldest of them first). */
    [[nodiscard]] std::string tailJsonLines(std::size_t n) const;

    /** Write jsonLines() to @p path. @throws FatalError. */
    void writeJsonl(const std::string& path) const;

    /** Drop all buffered records and the dropped() count. */
    void clear();

  private:
    bool enabled_ = false; ///< Configuration-time flag (pre-run).
    mutable common::Mutex mutex_; ///< Serializes the record ring.
    std::size_t capacity_ SATORI_GUARDED_BY(mutex_) = kDefaultCapacity;
    std::deque<DecisionRecord> records_ SATORI_GUARDED_BY(mutex_);
    std::uint64_t dropped_ SATORI_GUARDED_BY(mutex_) = 0;
};

} // namespace obs
} // namespace satori

#endif // SATORI_OBS_AUDIT_HPP
