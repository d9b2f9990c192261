/**
 * @file
 * Run-provenance manifests.
 *
 * Every stats dump and bench JSON sidecar carries a "manifest" member
 * answering "what produced this file?": a hash of the run
 * configuration, the git revision and build flags the binary was
 * compiled from, the host it ran on, harness extras (inputs such as a
 * seed or sweep axis, which also feed config_hash), and host
 * wall-time phases from the self-profiler. Two runs
 * that should be comparable have equal config_hash; everything except
 * "phases" is deterministic for a fixed build + host + configuration,
 * which is what lets scripts/check_sidecar_determinism.py demand
 * byte-identical sidecars across --jobs settings.
 *
 * Schema (schema_version 1):
 *   "manifest": {
 *     "schema_version": 1,
 *     "config_hash": "0x<fnv1a64 of the run configuration>",
 *     "git_describe": "...", "build_type": "...",
 *     "compiler": "...", "build_flags": "...",
 *     "host": "...",
 *     ...harness extras (e.g. "seed")...,
 *     "phases": {"total": seconds, "<phase>": seconds, ...}
 *   }
 */

#ifndef CSD_OBS_MANIFEST_HH
#define CSD_OBS_MANIFEST_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace csd
{

class HostProfiler;

namespace obs
{

/** FNV-1a 64-bit over @p s, continuing from @p h. */
constexpr std::uint64_t
fnv1a64(std::string_view s, std::uint64_t h = 0xcbf29ce484222325ull)
{
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** A params struct: reports each field as f(name, field) from visit(). */
template <typename T>
concept VisitableParams = requires(const T &t) {
    t.visit([](std::string_view, const auto &) {});
};

/**
 * Order-sensitive hasher over (key, value) configuration pairs.
 * Feed it everything that defines the run's inputs — and nothing that
 * doesn't (no wall time, no --jobs, no output paths) — so equal hashes
 * mean "comparable runs".
 */
class ConfigHasher
{
  public:
    ConfigHasher &add(std::string_view key, std::string_view value);
    ConfigHasher &add(std::string_view key, double value);

    /** Integral values of any width/signedness hash as their decimal
        rendering (bool as 0/1), so callers need no casts. */
    template <typename T>
        requires std::is_integral_v<T>
    ConfigHasher &add(std::string_view key, T value)
    {
        const std::string s = std::to_string(value);
        return add(key, std::string_view(s));
    }

    /**
     * Add every field @p params.visit() reports, keyed
     * "<prefix>.<field>", recursing into nested params structs (their
     * fields key as "<prefix>.<field>.<subfield>"). Enums hash as
     * their underlying value.
     */
    template <typename P>
    ConfigHasher &
    addFields(std::string_view prefix, const P &params)
    {
        params.visit([&](std::string_view name, const auto &field) {
            using T = std::decay_t<decltype(field)>;
            const std::string key = std::string(prefix) + "." +
                                    std::string(name);
            if constexpr (VisitableParams<T>)
                addFields(key, field);
            else if constexpr (std::is_enum_v<T>)
                add(key, static_cast<std::underlying_type_t<T>>(field));
            else
                add(key, field);
        });
        return *this;
    }

    std::uint64_t value() const { return h_; }

    /** "0x" + 16 lowercase hex digits. */
    std::string hex() const;

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** One run's provenance record; see the file comment for the schema. */
struct Manifest
{
    static constexpr int schemaVersion = 1;

    std::string configHash = "0x0";

    /** Extra members in emit order: key -> rendered JSON value. */
    std::vector<std::pair<std::string, std::string>> extras;

    /** Add a string-valued extra (quoted and escaped on write). */
    void note(std::string key, std::string_view string_value);

    /** Add a pre-rendered JSON value (number, bool, object). */
    void noteRaw(std::string key, std::string json_value);

    void note(std::string key, std::uint64_t value);
    void note(std::string key, double value);

    /**
     * Emit `"manifest": {...}` as one JSON object member (no trailing
     * comma or newline). @p indent prefixes the member itself; nested
     * members indent two further spaces. @p profiler supplies the
     * wall-time phases ("total" is always present; a null profiler
     * yields an empty phases object).
     */
    void write(std::ostream &os, const std::string &indent,
               const HostProfiler *profiler) const;
};

// --- build/host provenance (values baked at configure time) --------------

const char *gitDescribe();
const char *buildType();
const char *compiler();
const char *buildFlags();

/** "hostname, N hardware threads, sysname release machine". */
const std::string &hostDescription();

} // namespace obs
} // namespace csd

#endif // CSD_OBS_MANIFEST_HH
