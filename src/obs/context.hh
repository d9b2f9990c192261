/**
 * @file
 * Per-simulation observability contexts.
 *
 * An ObservabilityContext owns every piece of observability state that
 * used to be process-global: the event tracer (common/trace.hh), the
 * stats-detail gate, the lifecycle-trace configuration, the log sink,
 * and the host self-profiler. Each Simulation (and each Duo) holds
 * exactly one context, so N simulations in one process — e.g. the
 * parallel bench runner's workers — record independent traces and
 * stats with no shared rings, no serial-context asserts, and no
 * "tracing forces --jobs 1" clamps.
 *
 * Binding: a context attaches to the *thread* running its simulation
 * (bindToThread()); the CSD_TRACE fast path, statsDetailEnabled(), and
 * warn()/inform() then route through the bound context via
 * thread-locals. Simulation::step() re-binds lazily, so moving a
 * simulation between worker threads is safe as long as it runs on one
 * thread at a time.
 *
 * Configuration inheritance: a new context copies its trace mask, ring
 * capacity, stats-detail flag, lifecycle config, and profiler
 * enablement from the context bound to the constructing thread
 * (ultimately from the process-default context, which reads CSD_TRACE,
 * CSD_TRACE_CAPACITY, CSD_LIFECYCLE*, CSD_STATS_DETAIL, and
 * CSD_HOST_PROFILE). Environment-driven workflows therefore keep
 * working unchanged — every simulation a process creates observes the
 * same env knobs, just into private buffers.
 *
 * Flush-on-exit: live contexts sit in a registry flushed from
 * std::atexit and from SIGINT/SIGTERM, so an interrupted run still
 * writes loadable (truncated) Chrome-trace and Kanata/O3PipeView
 * files. CSD_TRACE_FILE may contain "%c", replaced by the context id,
 * to give each simulation its own trace file; a bare path is written
 * by every exporting context in turn (last writer wins), matching the
 * historical single-simulation behavior.
 *
 * Phase roll-up: a context that dies folds its host-profiler phase
 * seconds into the context it inherited from (if that one is still
 * alive), so a harness that serializes process().profiler() after its
 * simulations are gone reports the time they spent.
 */

#ifndef CSD_OBS_CONTEXT_HH
#define CSD_OBS_CONTEXT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/trace.hh"
#include "obs/host_profiler.hh"

namespace csd
{

/**
 * Expand every "%c" in @p path to @p context_id. The shared helper
 * behind all per-context export paths (Chrome trace, lifecycle ring,
 * channel-monitor heatmaps) — any new export knob must route through
 * this, not its own single-occurrence find/replace.
 */
std::string expandContextPath(std::string path, unsigned context_id);

/** Per-simulation owner of tracing, stats, logging, profiling state. */
class ObservabilityContext
{
  public:
    /** Lifecycle-tracer (cpu/lifecycle.hh) arming, env- or API-set. */
    struct LifecycleConfig
    {
        bool enabled = false;
        std::size_t capacity = 1u << 16;
        std::string exportPath;  //!< empty = no export at teardown
    };

    /** Channel-monitor (memory/set_monitor.hh) arming, env- or API-set. */
    struct ChannelMonitorConfig
    {
        bool enabled = false;
        std::uint64_t heatmapInterval = 4096;
        std::string exportPath;  //!< "%c"-expandable base; empty = none
    };

    /**
     * A context inheriting its configuration from the context bound to
     * the constructing thread (the process-default context if none).
     */
    ObservabilityContext();

    /** As above with a human-readable name (log prefix, trace files). */
    explicit ObservabilityContext(std::string name);

    /**
     * Unbinds (rebinding the process-default context if bound on the
     * destroying thread), exports armed trace files, and leaves the
     * flush registry. Destroy on the thread that last ran the owning
     * simulation, or after worker threads have finished with it.
     */
    ~ObservabilityContext();

    ObservabilityContext(const ObservabilityContext &) = delete;
    ObservabilityContext &operator=(const ObservabilityContext &) = delete;

    // --- process-wide access ----------------------------------------------

    /**
     * The process-default context (never destroyed). Wraps the legacy
     * globals: TraceManager::instance() and the CSD_STATS_DETAIL
     * process flag. Code that predates contexts observes exactly this
     * context's state.
     */
    static ObservabilityContext &process();

    /** The context bound to the calling thread, or null. */
    static ObservabilityContext *currentOrNull();

    /** The bound context, binding process() first if none is bound. */
    static ObservabilityContext &current();

    // --- binding ----------------------------------------------------------

    /** Route this thread's trace/stats/log fast paths through here. */
    void bindToThread();

    bool boundToThisThread() const { return currentOrNull() == this; }

    // --- identity ---------------------------------------------------------

    /** Process-unique id (0 = the process-default context). */
    unsigned id() const { return id_; }

    const std::string &name() const { return name_; }

    // --- owned observability state ----------------------------------------

    TraceManager &tracer() { return *tracer_; }
    const TraceManager &tracer() const { return *tracer_; }

    bool statsDetail() const { return *statsDetailPtr_; }
    void setStatsDetail(bool on) { *statsDetailPtr_ = on; }

    logging_detail::LogSink &logSink() { return sink_; }

    HostProfiler &profiler() { return profiler_; }
    const HostProfiler &profiler() const { return profiler_; }

    const LifecycleConfig &lifecycleConfig() const { return lifecycle_; }
    void setLifecycleConfig(LifecycleConfig config)
    {
        lifecycle_ = std::move(config);
    }

    const ChannelMonitorConfig &channelMonitorConfig() const
    {
        return channelMonitor_;
    }
    void setChannelMonitorConfig(ChannelMonitorConfig config)
    {
        channelMonitor_ = std::move(config);
    }

    // --- trace export / flushing ------------------------------------------

    /**
     * Arm a Chrome-trace export at destruction/flush ("%c" in the path
     * expands to the context id). Inherited from CSD_TRACE_FILE for
     * non-default contexts; the default context's tracer is exported
     * by the legacy atexit hook in trace.cc instead.
     */
    void setTraceExportPath(std::string path)
    {
        traceExportPath_ = std::move(path);
    }

    const std::string &traceExportPath() const { return traceExportPath_; }

    /** traceExportPath() with "%c" expanded to this context's id. */
    std::string resolvedTraceExportPath() const;

    /**
     * Register a callback run by flushNow() (owner teardown, atexit,
     * SIGINT/SIGTERM). Simulations register their lifecycle-ring
     * export here so an interrupted run still writes a loadable file.
     * Returns a token for removeFlushHook(); remove before the state
     * the hook touches dies.
     */
    std::uint64_t addFlushHook(std::function<void()> hook);
    void removeFlushHook(std::uint64_t token);

    /**
     * Write everything armed on this context now: the Chrome trace (if
     * an export path is set and events were recorded) and all
     * registered flush hooks. Idempotent; file writes serialize on a
     * process-wide mutex.
     */
    void flushNow();

    /**
     * Flush every live context (the atexit/signal path). @p
     * from_signal uses try-locks and skips contexts it cannot safely
     * reach instead of deadlocking on a lock the interrupted thread
     * holds.
     */
    static void flushAllContexts(bool from_signal = false);

    /**
     * The process-wide mutex serializing observability file exports.
     * Hold it when writing a trace/lifecycle file outside flushNow()
     * (e.g. Simulation's teardown export) so parallel simulations
     * sharing an output path do not interleave writes.
     */
    static std::mutex &exportLock();

  private:
    struct ProcessTag
    {
    };

    /** The process-default context: wraps globals, reads the env. */
    explicit ObservabilityContext(ProcessTag);

    void registerSelf();

    unsigned id_;
    std::string name_;
    /** The context this one inherited from (null for process());
     *  receives its phases at teardown. Guarded by the registry lock. */
    ObservabilityContext *parent_ = nullptr;

    std::unique_ptr<TraceManager> ownedTracer_;  //!< null for process()
    TraceManager *tracer_;

    bool statsDetailValue_ = false;  //!< storage for non-default contexts
    bool *statsDetailPtr_;           //!< &statsDetailValue_ or the global

    logging_detail::LogSink sink_;
    HostProfiler profiler_;
    LifecycleConfig lifecycle_;
    ChannelMonitorConfig channelMonitor_;

    std::string traceExportPath_;

    std::vector<std::pair<std::uint64_t, std::function<void()>>> hooks_;
    std::uint64_t nextHookToken_ = 1;
};

} // namespace csd

#endif // CSD_OBS_CONTEXT_HH
