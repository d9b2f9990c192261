#include "common/env.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include <unistd.h>

#include "common/logging.hh"
#include "common/trace.hh"

namespace csd
{

namespace
{

/** strtoll with the full strictness checklist; false on any defect. */
bool
parseLongLong(const char *value, long long &out)
{
    if (!value || !*value)
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtoll(value, &end, 10);
    return errno != ERANGE && end && !*end;
}

using enum KnobKind;

/**
 * The registry; README's "Environment knobs" table mirrors it (with
 * each knob's effect), and tests/common/test_env.cc holds the two
 * together. The sidecar hash walks the hashed rows in table order, so
 * reordering them changes every sidecar's config_hash.
 */
constexpr KnobSpec knobTable[] = {
    {Knob::StatsDetail, "CSD_STATS_DETAIL", Bool, true},
    {Knob::CpiStack, "CSD_CPI_STACK", Bool, true},
    {Knob::Verify, "CSD_VERIFY", Bool, false},
    {Knob::FlowCache, "CSD_FLOW_CACHE", Bool, false},
    {Knob::Superblock, "CSD_SUPERBLOCK", Bool, false},
    {Knob::HostProfile, "CSD_HOST_PROFILE", Bool, false},
    {Knob::Trace, "CSD_TRACE", TraceFlags, false},
    {Knob::TraceFile, "CSD_TRACE_FILE", Text, false},
    {Knob::TraceCapacity, "CSD_TRACE_CAPACITY", Positive, false},
    {Knob::Lifecycle, "CSD_LIFECYCLE", Bool, false},
    {Knob::LifecycleFile, "CSD_LIFECYCLE_FILE", Text, false},
    {Knob::LifecycleCapacity, "CSD_LIFECYCLE_CAPACITY", Positive, false},
    {Knob::ChannelMonitor, "CSD_CHANNEL_MONITOR", Bool, false},
    {Knob::ChannelHeatmap, "CSD_CHANNEL_HEATMAP", Text, false},
    {Knob::ChannelMonitorInterval, "CSD_CHANNEL_MONITOR_INTERVAL", Positive,
     false},
    {Knob::ChannelHeatmapDir, "CSD_CHANNEL_HEATMAP_DIR", Text, false},
    {Knob::BenchJson, "CSD_BENCH_JSON", Text, false},
    {Knob::BenchJobs, "CSD_BENCH_JOBS", NonNegative, false},
    // Read by scripts/check.sh, inherited by everything it runs.
    {Knob::CheckJobs, "CSD_CHECK_JOBS", Positive, false},
};

static_assert(std::size(knobTable) ==
              static_cast<std::size_t>(Knob::NumKnobs));

/** Fatal unless every name in the comma list is a trace flag. */
void
checkTraceFlags(std::string_view name, const std::string &csv)
{
    std::vector<std::string> unknown;
    TraceManager::parseFlagList(csv, unknown);
    if (!unknown.empty())
        csd_fatal(name, "='", csv, "': unknown trace flag '", unknown.front(),
                  "' (known: all, ", TraceManager::knownFlags(), ")");
}

} // namespace

std::size_t
parsePositiveSetting(std::string_view name, const char *value)
{
    long long n = 0;
    if (!parseLongLong(value, n) || n <= 0)
        csd_fatal(name, "='", value ? value : "",
                  "' is not a positive integer");
    return static_cast<std::size_t>(n);
}

unsigned
parseNonNegativeSetting(std::string_view name, const char *value)
{
    long long n = 0;
    if (!parseLongLong(value, n) || n < 0)
        csd_fatal(name, "='", value ? value : "",
                  "' is not a non-negative integer (0 = auto)");
    return static_cast<unsigned>(n);
}

bool
parseBoolSetting(std::string_view name, const char *value)
{
    if (value && value[0] && !value[1] &&
        (value[0] == '0' || value[0] == '1'))
        return value[0] == '1';
    csd_fatal(name, "='", value ? value : "", "' is not 0 or 1");
    return false;  // unreachable; csd_fatal throws
}

std::span<const KnobSpec>
knobSpecs()
{
    return knobTable;
}

EnvSettings
EnvSettings::parse(const char *const *envp)
{
    EnvSettings settings;
    for (; envp && *envp; ++envp) {
        const std::string_view entry = *envp;
        if (entry.rfind("CSD_", 0) != 0)
            continue;
        const std::size_t eq = entry.find('=');
        const std::string_view name = entry.substr(0, eq);
        const std::string value(
            eq == std::string_view::npos ? "" : entry.substr(eq + 1));

        const KnobSpec *spec = nullptr;
        for (const KnobSpec &row : knobTable)
            if (name == row.name)
                spec = &row;
        if (!spec) {
            std::string known;
            for (const KnobSpec &row : knobTable)
                known += std::string(known.empty() ? "" : ", ") + row.name;
            csd_fatal("unknown environment variable ", name,
                      " (known CSD_* knobs: ", known, ")");
        }

        Value &slot = settings.values_[static_cast<std::size_t>(spec->knob)];
        switch (spec->kind) {
          case Bool:
            slot.number = parseBoolSetting(name, value.c_str());
            break;
          case Positive:
            slot.number = parsePositiveSetting(name, value.c_str());
            break;
          case NonNegative:
            slot.number = parseNonNegativeSetting(name, value.c_str());
            break;
          case TraceFlags:
            checkTraceFlags(name, value);
            break;
          case Text:
            break;
        }
        if (value.empty())
            continue;  // empty text or trace list means unset
        slot.set = true;
        slot.text = value;
    }
    return settings;
}

const EnvSettings &
EnvSettings::process()
{
    // First reached during static initialization, where a throw could
    // only terminate() (abort, a second copy of the message, maybe a
    // core file). csd_fatal has printed the diagnostic: just fail.
    static const EnvSettings settings = [] {
        try {
            return parse(environ);
        } catch (const std::runtime_error &) {
            std::fflush(nullptr);
            std::_Exit(1);
        }
    }();
    return settings;
}

const char *
EnvSettings::text(Knob knob) const
{
    const Value &v = values_[static_cast<std::size_t>(knob)];
    return v.set ? v.text.c_str() : nullptr;
}

bool
EnvSettings::flag(Knob knob, bool fallback) const
{
    const Value &v = values_[static_cast<std::size_t>(knob)];
    return v.set ? v.number != 0 : fallback;
}

std::size_t
EnvSettings::number(Knob knob, std::size_t fallback) const
{
    const Value &v = values_[static_cast<std::size_t>(knob)];
    return v.set ? v.number : fallback;
}

} // namespace csd
