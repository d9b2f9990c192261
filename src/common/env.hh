/**
 * @file
 * The CSD_* environment knobs: one registry, parsed once, strictly.
 *
 * Every knob the simulator, the figure harnesses and the repo scripts
 * read is one row of knobSpecs(): its name, the values it accepts, and
 * whether it can change a harness's output (those feed the sidecar
 * config_hash). README's "Environment knobs" table says what each does. The process environment is parsed
 * against that table once, on first use, and every defect is fatal
 * instead of silently falling back to a default and producing a run
 * that looks configured but isn't:
 *   - a CSD_* name that is not in the table (CSD_FLOWCACHE=0);
 *   - a bool that is not exactly "0" or "1" (CSD_VERIFY=off);
 *   - a malformed integer (CSD_TRACE_CAPACITY=16k);
 *   - an unknown trace flag (CSD_TRACE=Uopcahce).
 *
 * The parse*Setting helpers are the per-kind parsers (csd_fatal, which
 * throws std::runtime_error, on a bad value); --jobs uses them
 * directly.
 */

#ifndef CSD_COMMON_ENV_HH
#define CSD_COMMON_ENV_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace csd
{

/**
 * Parse @p value as a strictly positive integer. @p name labels the
 * setting in the error ("CSD_TRACE_CAPACITY='x' is not a positive
 * integer"). Fatal (throws) on empty, trailing junk, zero, negative,
 * or overflow.
 */
std::size_t parsePositiveSetting(std::string_view name, const char *value);

/**
 * Parse @p value as a non-negative integer (settings where 0 means
 * "auto", e.g. jobs counts). Fatal (throws) on malformed input.
 */
unsigned parseNonNegativeSetting(std::string_view name, const char *value);

/**
 * Parse @p value as a boolean toggle: exactly "0" or "1". Fatal
 * (throws) on anything else ("true", "yes", "01", trailing junk),
 * so a typo'd CSD_SUPERBLOCK=ture fails loudly instead of silently
 * enabling the default.
 */
bool parseBoolSetting(std::string_view name, const char *value);

/** Every CSD_* environment knob. */
enum class Knob : unsigned
{
    StatsDetail,
    CpiStack,
    Verify,
    FlowCache,
    Superblock,
    HostProfile,
    Trace,
    TraceFile,
    TraceCapacity,
    Lifecycle,
    LifecycleFile,
    LifecycleCapacity,
    ChannelMonitor,
    ChannelHeatmap,
    ChannelMonitorInterval,
    ChannelHeatmapDir,
    BenchJson,
    BenchJobs,
    CheckJobs,
    NumKnobs,
};

/** The values a knob accepts. */
enum class KnobKind : std::uint8_t
{
    Bool,         //!< exactly "0" or "1"
    Positive,     //!< an integer > 0
    NonNegative,  //!< an integer >= 0 (0 = auto)
    Text,         //!< any text, e.g. a path; empty means unset
    TraceFlags,   //!< comma list of trace flag names or "all"
};

/** One row of the knob registry. */
struct KnobSpec
{
    Knob knob;
    const char *name;
    KnobKind kind;
    /**
     * The knob can change what a figure harness prints or writes, so
     * the sidecar config_hash covers it. Host-only switches whose
     * output neutrality CI checks (CSD_FLOW_CACHE, CSD_SUPERBLOCK) and
     * pure diagnostics stay out.
     */
    bool hashed;
};

/** The registry, one row per Knob. */
std::span<const KnobSpec> knobSpecs();

/** Validated values of every knob, parsed from one environment. */
class EnvSettings
{
  public:
    /**
     * Parse a null-terminated array of "NAME=value" strings (the shape
     * of environ). Fatal on an unknown CSD_* name or a value its kind
     * rejects; other variables are ignored.
     */
    static EnvSettings parse(const char *const *envp);

    /**
     * The process environment, parsed on first use (a function-local
     * static, so static-initialization order cannot bite) and never
     * again: later setenv() calls are not seen. A defect prints the
     * diagnostic and exits the process with status 1.
     */
    static const EnvSettings &process();

    /** The value as written, or null when unset (or empty text). */
    const char *text(Knob knob) const;

    /** A Bool knob's value, or @p fallback when unset. */
    bool flag(Knob knob, bool fallback) const;

    /** A Positive/NonNegative knob's value, or @p fallback when unset. */
    std::size_t number(Knob knob, std::size_t fallback) const;

  private:
    static constexpr std::size_t numKnobs =
        static_cast<std::size_t>(Knob::NumKnobs);

    struct Value
    {
        bool set = false;
        std::string text;
        std::size_t number = 0;  //!< parsed Bool/Positive/NonNegative
    };

    std::array<Value, numKnobs> values_;
};

/** Shorthands over EnvSettings::process(). */
inline const char *
knobText(Knob knob)
{
    return EnvSettings::process().text(knob);
}

inline bool
knobFlag(Knob knob, bool fallback = false)
{
    return EnvSettings::process().flag(knob, fallback);
}

inline std::size_t
knobNumber(Knob knob, std::size_t fallback)
{
    return EnvSettings::process().number(knob, fallback);
}

} // namespace csd

#endif // CSD_COMMON_ENV_HH
