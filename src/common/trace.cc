#include "common/trace.hh"

#include <cctype>
#include <cstdlib>
#include <fstream>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/stats.hh"

namespace csd
{

namespace trace_detail
{
thread_local std::uint32_t mask = 0;
thread_local TraceManager *current = nullptr;
} // namespace trace_detail

namespace
{

const char *const flagNames[static_cast<unsigned>(TraceFlag::NumFlags)] = {
    "Frontend", "UopCache", "Csd", "Decoy", "Gating", "Cache", "Dift",
};

std::string
lower(const std::string &s)
{
    std::string out = s;
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

void
atexitExport()
{
    const char *path = knobText(Knob::TraceFile);
    if (path && TraceManager::instance().size() > 0)
        TraceManager::instance().exportChromeTrace(path);
}

} // namespace

const char *
TraceManager::flagName(TraceFlag flag)
{
    const auto idx = static_cast<unsigned>(flag);
    if (idx >= static_cast<unsigned>(TraceFlag::NumFlags))
        return "?";
    return flagNames[idx];
}

std::optional<TraceFlag>
TraceManager::parseFlag(const std::string &name)
{
    const std::string want = lower(name);
    for (unsigned i = 0; i < static_cast<unsigned>(TraceFlag::NumFlags); ++i)
        if (lower(flagNames[i]) == want)
            return static_cast<TraceFlag>(i);
    return std::nullopt;
}

TraceManager::TraceManager(std::size_t capacity) : capacity_(capacity)
{
    if (capacity_ == 0)
        csd_panic("TraceManager: capacity must be positive");
}

TraceManager &
TraceManager::instance()
{
    // Heap-allocated and leaked on purpose: the tracer must outlive
    // every static-destruction-order dependency and the atexit export.
    static TraceManager *manager = [] {
        auto *m = new TraceManager();
        m->initFromEnv();
        return m;
    }();
    if (!trace_detail::current)
        manager->bindToThread();
    return *manager;
}

void
TraceManager::bindToThread()
{
    trace_detail::current = this;
    trace_detail::mask = mask_;
}

void
TraceManager::initFromEnv()
{
    if (knobText(Knob::TraceCapacity))
        setCapacity(knobNumber(Knob::TraceCapacity, capacity_));
    if (const char *flags = knobText(Knob::Trace))
        configure(flags);
    if (knobText(Knob::TraceFile))
        std::atexit(atexitExport);
}

std::vector<TraceFlag>
TraceManager::parseFlagList(const std::string &csv,
                            std::vector<std::string> &unknown)
{
    std::vector<TraceFlag> flags;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos)
            comma = csv.size();
        std::string token = csv.substr(pos, comma - pos);
        pos = comma + 1;
        // Trim surrounding whitespace.
        while (!token.empty() && std::isspace(
                   static_cast<unsigned char>(token.front())))
            token.erase(token.begin());
        while (!token.empty() &&
               std::isspace(static_cast<unsigned char>(token.back())))
            token.pop_back();
        if (token.empty())
            continue;
        if (lower(token) == "all") {
            for (unsigned i = 0;
                 i < static_cast<unsigned>(TraceFlag::NumFlags); ++i)
                flags.push_back(static_cast<TraceFlag>(i));
        } else if (auto flag = parseFlag(token)) {
            flags.push_back(*flag);
        } else {
            unknown.push_back(token);
        }
    }
    return flags;
}

std::string
TraceManager::knownFlags()
{
    std::string known;
    for (const char *name : flagNames) {
        if (!known.empty())
            known += ", ";
        known += name;
    }
    return known;
}

unsigned
TraceManager::configure(const std::string &csv)
{
    std::vector<std::string> unknown;
    const std::vector<TraceFlag> flags = parseFlagList(csv, unknown);
    for (TraceFlag flag : flags)
        enable(flag);
    for (const std::string &name : unknown)
        warn("unknown trace flag '", name, "' (known: ", knownFlags(), ")");
    return static_cast<unsigned>(flags.size());
}

void
TraceManager::syncThreadMask()
{
    if (trace_detail::current == this)
        trace_detail::mask = mask_;
}

void
TraceManager::enable(TraceFlag flag)
{
    mask_ |= 1u << static_cast<unsigned>(flag);
    syncThreadMask();
}

void
TraceManager::disable(TraceFlag flag)
{
    mask_ &= ~(1u << static_cast<unsigned>(flag));
    syncThreadMask();
}

void
TraceManager::disableAll()
{
    mask_ = 0;
    syncThreadMask();
}

void
TraceManager::setMask(std::uint32_t mask)
{
    mask_ = mask;
    syncThreadMask();
}

void
TraceManager::setCapacity(std::size_t capacity)
{
    if (capacity == 0)
        csd_panic("TraceManager: capacity must be positive");
    capacity_ = capacity;
    ring_.clear();
    ring_.shrink_to_fit();
    start_ = 0;
    count_ = 0;
    dropped_ = 0;
}

void
TraceManager::clear()
{
    start_ = 0;
    count_ = 0;
    dropped_ = 0;
}

void
TraceManager::record(TraceFlag flag, const char *name, Tick tick, char phase,
                     const char *arg_name, double arg)
{
    // Lazy allocation: per-simulation tracers exist whether or not
    // tracing is on, so don't pay for the ring until an event lands.
    if (ring_.empty())
        ring_.resize(capacity_);
    TraceEvent &slot = ring_[(start_ + count_) % ring_.size()];
    if (count_ == ring_.size()) {
        // Full: overwrite the oldest event.
        start_ = (start_ + 1) % ring_.size();
        ++dropped_;
    } else {
        ++count_;
    }
    slot = TraceEvent{tick, flag, name, phase, arg_name, arg};
}

std::vector<TraceEvent>
TraceManager::events() const
{
    std::vector<TraceEvent> out;
    out.reserve(count_);
    for (std::size_t i = 0; i < count_; ++i)
        out.push_back(ring_[(start_ + i) % ring_.size()]);
    return out;
}

void
TraceManager::exportChromeTrace(std::ostream &os) const
{
    os << "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [\n";

    // Metadata: name one track (tid) per flag so Perfetto labels rows.
    bool first = true;
    for (unsigned i = 0; i < static_cast<unsigned>(TraceFlag::NumFlags);
         ++i) {
        os << (first ? "" : ",\n")
           << "    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
           << "\"tid\": " << i << ", \"args\": {\"name\": \""
           << flagNames[i] << "\"}}";
        first = false;
    }

    for (std::size_t i = 0; i < count_; ++i) {
        const TraceEvent &ev = ring_[(start_ + i) % ring_.size()];
        os << (first ? "" : ",\n") << "    {\"name\": \""
           << jsonEscape(ev.name ? ev.name : "?") << "\", \"cat\": \""
           << flagName(ev.flag) << "\", \"ph\": \"" << ev.phase
           << "\", \"ts\": " << ev.tick << ", \"pid\": 0, \"tid\": "
           << static_cast<unsigned>(ev.flag);
        if (ev.phase == 'i')
            os << ", \"s\": \"t\"";
        if (ev.argName) {
            os << ", \"args\": {\"" << jsonEscape(ev.argName) << "\": ";
            if (std::isfinite(ev.arg))
                os << ev.arg;
            else
                os << "null";
            os << "}";
        }
        os << "}";
        first = false;
    }
    os << "\n  ]\n}\n";
}

bool
TraceManager::exportChromeTrace(const std::string &path) const
{
    std::ofstream file(path);
    if (!file) {
        warn("TraceManager: cannot open trace file '", path, "'");
        return false;
    }
    exportChromeTrace(file);
    inform("trace: wrote ", count_, " events to ", path,
           dropped_ ? " (ring overflowed; oldest events dropped)" : "");
    return static_cast<bool>(file);
}

} // namespace csd
