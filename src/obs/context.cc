#include "obs/context.hh"

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <mutex>

#include "common/env.hh"
#include "common/stats.hh"

namespace csd
{

namespace
{

thread_local ObservabilityContext *tlsContext = nullptr;

std::atomic<unsigned> nextContextId{0};

/**
 * Live contexts, for the atexit/signal flush sweep. Leaked on purpose
 * (like the process context): the atexit flush runs during static
 * destruction, after function-local statics constructed later would
 * already be gone.
 */
std::mutex &
registryMutex()
{
    static std::mutex *m = new std::mutex;
    return *m;
}

std::vector<ObservabilityContext *> &
registry()
{
    static auto *contexts = new std::vector<ObservabilityContext *>;
    return *contexts;
}

/** Serializes all observability file exports (trace + flush hooks). */
std::mutex &
exportMutex()
{
    return ObservabilityContext::exportLock();
}

void
signalFlush(int sig)
{
    ObservabilityContext::flushAllContexts(/*from_signal=*/true);
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

void
atexitFlush()
{
    ObservabilityContext::flushAllContexts();
}

void
installFlushHandlers()
{
    static std::once_flag once;
    std::call_once(once, [] {
        std::atexit(atexitFlush);
        for (int sig : {SIGINT, SIGTERM}) {
            // Only claim signals nobody else handles: keep SIG_IGN
            // (e.g. nohup) and user-installed handlers intact.
            auto prev = std::signal(sig, &signalFlush);
            if (prev != SIG_DFL && prev != SIG_ERR)
                std::signal(sig, prev);
        }
    });
}

} // namespace

std::string
expandContextPath(std::string path, unsigned context_id)
{
    const std::string id = std::to_string(context_id);
    std::size_t pos = 0;
    while ((pos = path.find("%c", pos)) != std::string::npos) {
        path.replace(pos, 2, id);
        pos += id.size();
    }
    return path;
}

ObservabilityContext::ObservabilityContext(ProcessTag)
    : id_(nextContextId++),
      name_("process"),
      tracer_(&TraceManager::instance()),
      statsDetailPtr_(&stats_detail::processDefault)
{
    // The process-default context wraps the legacy globals and is the
    // root all other contexts inherit from; parse the env knobs that
    // used to be read ad hoc by Simulation.
    const char *lc_file = knobText(Knob::LifecycleFile);
    lifecycle_.enabled = knobFlag(Knob::Lifecycle) || lc_file;
    lifecycle_.capacity =
        knobNumber(Knob::LifecycleCapacity, lifecycle_.capacity);
    if (lc_file)
        lifecycle_.exportPath = lc_file;

    profiler_.setEnabled(knobFlag(Knob::HostProfile));

    const char *cm_file = knobText(Knob::ChannelHeatmap);
    channelMonitor_.enabled = knobFlag(Knob::ChannelMonitor) || cm_file;
    channelMonitor_.heatmapInterval = knobNumber(
        Knob::ChannelMonitorInterval, channelMonitor_.heatmapInterval);
    if (cm_file)
        channelMonitor_.exportPath = cm_file;

    // The legacy atexit hook in trace.cc exports this context's tracer
    // (TraceManager::instance()), so traceExportPath_ stays empty here;
    // child contexts pick CSD_TRACE_FILE up themselves.
    registerSelf();
}

ObservabilityContext::ObservabilityContext() : ObservabilityContext(std::string())
{
}

ObservabilityContext::ObservabilityContext(std::string name)
{
    ObservabilityContext *parent = currentOrNull();
    if (!parent)
        parent = &process();
    parent_ = parent;

    id_ = nextContextId++;
    const bool named = !name.empty();
    name_ = named ? std::move(name) : "ctx" + std::to_string(id_);

    ownedTracer_ = std::make_unique<TraceManager>(parent->tracer().capacity());
    ownedTracer_->setMask(parent->tracer().mask());
    tracer_ = ownedTracer_.get();

    statsDetailValue_ = parent->statsDetail();
    statsDetailPtr_ = &statsDetailValue_;

    lifecycle_ = parent->lifecycle_;
    channelMonitor_ = parent->channelMonitor_;
    profiler_.setEnabled(parent->profiler_.enabled());

    // Named contexts label their log output; anonymous ones keep the
    // legacy unprefixed format (single-simulation runs stay stable).
    if (named)
        sink_.label = name_;

    if (const char *path = knobText(Knob::TraceFile))
        traceExportPath_ = path;

    registerSelf();
}

ObservabilityContext::~ObservabilityContext()
{
    {
        std::lock_guard<std::mutex> lock(registryMutex());
        auto &contexts = registry();
        for (auto it = contexts.begin(); it != contexts.end(); ++it) {
            if (*it == this) {
                contexts.erase(it);
                break;
            }
        }
        // Under the registry lock: --jobs workers tear contexts down
        // concurrently. Live children move up to this context's parent,
        // so parent_ is always alive and no phases are lost.
        if (parent_)
            parent_->profiler_.addPhases(profiler_);
        for (ObservabilityContext *ctx : contexts)
            if (ctx->parent_ == this)
                ctx->parent_ = parent_;
    }
    flushNow();
    if (currentOrNull() == this)
        process().bindToThread();
}

void
ObservabilityContext::registerSelf()
{
    installFlushHandlers();
    std::lock_guard<std::mutex> lock(registryMutex());
    registry().push_back(this);
}

ObservabilityContext &
ObservabilityContext::process()
{
    // Leaked on purpose: must outlive the atexit flush sweep and any
    // static-destruction-order dependency.
    static ObservabilityContext *ctx = new ObservabilityContext(ProcessTag{});
    return *ctx;
}

ObservabilityContext *
ObservabilityContext::currentOrNull()
{
    return tlsContext;
}

ObservabilityContext &
ObservabilityContext::current()
{
    if (!tlsContext)
        process().bindToThread();
    return *tlsContext;
}

void
ObservabilityContext::bindToThread()
{
    tlsContext = this;
    tracer_->bindToThread();
    stats_detail::enabled = statsDetailPtr_;
    logging_detail::bindThreadSink(&sink_);
}

std::string
ObservabilityContext::resolvedTraceExportPath() const
{
    return expandContextPath(traceExportPath_, id_);
}

std::uint64_t
ObservabilityContext::addFlushHook(std::function<void()> hook)
{
    const std::uint64_t token = nextHookToken_++;
    hooks_.emplace_back(token, std::move(hook));
    return token;
}

void
ObservabilityContext::removeFlushHook(std::uint64_t token)
{
    for (auto it = hooks_.begin(); it != hooks_.end(); ++it) {
        if (it->first == token) {
            hooks_.erase(it);
            return;
        }
    }
}

void
ObservabilityContext::flushNow()
{
    std::lock_guard<std::mutex> lock(exportMutex());
    if (!traceExportPath_.empty() && tracer_->size() > 0)
        tracer_->exportChromeTrace(resolvedTraceExportPath());
    for (auto &[token, hook] : hooks_)
        hook();
}

std::mutex &
ObservabilityContext::exportLock()
{
    // Leaked: flushed-at-exit contexts lock this after static
    // destruction has begun.
    static std::mutex *m = new std::mutex;
    return *m;
}

void
ObservabilityContext::flushAllContexts(bool from_signal)
{
    if (from_signal) {
        // Best effort from a signal handler: skip anything another
        // thread holds rather than deadlocking mid-flush.
        if (!registryMutex().try_lock())
            return;
        std::lock_guard<std::mutex> lock(registryMutex(), std::adopt_lock);
        for (ObservabilityContext *ctx : registry()) {
            if (!exportMutex().try_lock())
                continue;
            std::lock_guard<std::mutex> exp(exportMutex(), std::adopt_lock);
            if (!ctx->traceExportPath_.empty() && ctx->tracer_->size() > 0)
                ctx->tracer_->exportChromeTrace(
                    ctx->resolvedTraceExportPath());
            for (auto &[token, hook] : ctx->hooks_)
                hook();
        }
        return;
    }
    std::lock_guard<std::mutex> lock(registryMutex());
    for (ObservabilityContext *ctx : registry())
        ctx->flushNow();
}

} // namespace csd
