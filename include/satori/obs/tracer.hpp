/**
 * @file
 * The structured event tracer: lightweight nested spans with
 * monotonic-clock durations, recorded into a preallocated in-memory
 * buffer and exported as Chrome `trace_event` JSON, so a full
 * controller run opens directly in chrome://tracing or Perfetto.
 *
 * Spans are opened with SATORI_OBS_SPAN("bo.fit") (see obs.hpp) and
 * close with scope exit. A disabled tracer costs one branch per span
 * site; an enabled one costs two clock reads plus a buffer append.
 * Span names must be string literals (the tracer stores the pointer,
 * not a copy - that is what keeps the hot path allocation-free).
 *
 * The tracer is observability only: nothing in the library may read
 * time back out of it, so enabling tracing can never change a
 * decision (the determinism analyzer allowlists wall-clock reads for
 * exactly this layer).
 *
 * Thread-safety: the tracer is deliberately single-threaded — span
 * begin/end must come from one thread while a sink is attached, so
 * parallelFor work must not run beside a tracer sink. Guarding the
 * buffer would put a lock on the one-branch disabled path, which the
 * cost contract above forbids; see GUIDE.md §13 for the annotation
 * policy that makes this the documented exception.
 */

#ifndef SATORI_OBS_TRACER_HPP
#define SATORI_OBS_TRACER_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace satori {
namespace obs {

/** Nanoseconds from the process-local monotonic steady clock. */
[[nodiscard]] std::uint64_t steadyNowNs();

/** One completed span. */
struct TraceEvent
{
    const char* name = "";        ///< Static string (macro literal).
    std::uint64_t start_ns = 0;   ///< Steady-clock start.
    std::uint64_t duration_ns = 0;
    std::uint32_t depth = 0;      ///< Nesting depth (0 = top level).
};

/** Aggregate of all spans sharing one name (profiling summaries). */
struct SpanAggregate
{
    std::string name;
    std::size_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
};

/**
 * Records nested spans. Disabled by default; when disabled, span
 * sites take one branch and record nothing.
 */
class Tracer
{
  public:
    /** Nanosecond clock source; injectable for deterministic tests. */
    using ClockFn = std::uint64_t (*)();

    explicit Tracer(ClockFn clock = &steadyNowNs);
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /** Turn span recording on or off. */
    void setEnabled(bool enabled) { enabled_ = enabled; }

    /** True while spans are being recorded. */
    [[nodiscard]] bool enabled() const { return enabled_; }

    /**
     * Open a span. @p name must outlive the tracer (pass a string
     * literal). Must be balanced by endSpan().
     */
    void beginSpan(const char* name);

    /** Close the innermost open span. @throws PanicError if none. */
    void endSpan();

    /** Completed spans so far (open spans are not included). */
    [[nodiscard]] const std::vector<TraceEvent>& events() const
    {
        return events_;
    }

    /** Number of currently open (unclosed) spans. */
    [[nodiscard]] std::size_t openSpans() const { return open_.size(); }

    /**
     * Chrome trace_event JSON ("X" complete events, microsecond
     * timestamps rebased to the first span). Loads in
     * chrome://tracing and Perfetto.
     */
    [[nodiscard]] std::string chromeTraceJson() const;

    /** Write chromeTraceJson() to @p path. @throws FatalError. */
    void writeChromeTrace(const std::string& path) const;

    /** Per-name aggregates, sorted by descending total time. */
    [[nodiscard]] std::vector<SpanAggregate> aggregate() const;

    /** Drop all completed and open spans. */
    void clear();

  private:
    /** An open span: its event slot plus the start timestamp. */
    struct OpenSpan
    {
        std::size_t event_index;
    };

    ClockFn clock_;
    bool enabled_ = false;
    std::vector<TraceEvent> events_;
    std::vector<OpenSpan> open_;
};

/**
 * RAII span: opens on construction when the tracer is enabled,
 * closes on destruction. Created by SATORI_OBS_SPAN.
 */
class SpanGuard
{
  public:
    SpanGuard(Tracer& tracer, const char* name) : tracer_(tracer)
    {
        if (tracer_.enabled()) {
            tracer_.beginSpan(name);
            active_ = true;
        }
    }

    ~SpanGuard()
    {
        if (active_)
            tracer_.endSpan();
    }

    SpanGuard(const SpanGuard&) = delete;
    SpanGuard& operator=(const SpanGuard&) = delete;

  private:
    Tracer& tracer_;
    bool active_ = false;
};

} // namespace obs
} // namespace satori

#endif // SATORI_OBS_TRACER_HPP
