/**
 * @file
 * Shared helpers for the figure-reproduction harnesses: aligned table
 * printing with CSV export, normalization, geometric means, and a
 * machine-readable JSON sidecar.
 *
 * Sidecar: call benchInit(argc, argv) first thing in main(). If
 * `--json <path>` (or `--json=<path>`) is passed, or the
 * CSD_BENCH_JSON environment variable names a path, every printed
 * table plus any benchStat() key/values are written there as JSON at
 * process exit, so the perf trajectory of each figure harness can be
 * tracked by tooling instead of scraping stdout. Every sidecar also
 * carries a "manifest" member (obs/manifest.hh): config hash over the
 * artifact, result-relevant arguments (--jobs/--json excluded, so
 * parallel and serial runs hash identically), and environment, plus
 * build/host provenance and wall-time phases. Diff two sidecars with
 * the csd-report tool.
 */

#ifndef CSD_BENCH_COMMON_BENCH_UTIL_HH
#define CSD_BENCH_COMMON_BENCH_UTIL_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace csd
{
class Simulation;
}

namespace csd::bench
{

/**
 * Parse harness arguments (--json <path>) and arm the JSON sidecar.
 * Call before benchHeader(). Safe to omit: without it the sidecar is
 * driven by CSD_BENCH_JSON alone, armed when benchHeader() runs.
 */
void benchInit(int argc, char **argv);

/** Print a header identifying the reproduced paper artifact. */
void benchHeader(const std::string &artifact, const std::string &title,
                 const std::string &notes = "");

/** A simple aligned text table. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);

    /**
     * Print aligned text (numeric columns right-aligned) and register
     * a copy with the JSON sidecar.
     */
    void print() const;

    /** Write "header,header\ncell,cell\n..." with minimal quoting. */
    void writeCsv(std::ostream &os) const;

    const std::vector<std::string> &headers() const { return headers_; }
    const std::vector<std::vector<std::string>> &rows() const
    {
        return rows_;
    }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Record a key run statistic into the JSON sidecar (thread safe). */
void benchStat(const std::string &key, double value);
void benchStat(const std::string &key, const std::string &value);

/**
 * Record a harness-specific provenance extra (seed, workload variant,
 * sweep axis) into the sidecar's "manifest" member. Unlike
 * benchStat(), these are *inputs*, not results: they also feed the
 * manifest's config_hash, so two sidecars are comparable iff their
 * artifact, arguments, relevant environment, and manifest notes all
 * match. Thread safe.
 */
void benchManifestNote(const std::string &key, const std::string &value);
void benchManifestNote(const std::string &key, double value);
void benchManifestNote(const std::string &key, std::uint64_t value);

/**
 * Fold a finished simulation's host-cache engagement into the
 * harness total: flow-cache hits over lookups, and the share of uops
 * retired inside superblocks. At exit the harness prints the total as
 * one "host caches:" stdout line, so a cache that silently stops
 * engaging shows in the bench that suffers it. Host-side only: it never
 * enters the sidecar's stats or tables, which must not depend on host
 * switches. Thread safe.
 */
void benchNoteEngagement(const Simulation &sim);

/** True iff a sidecar path is armed (--json or CSD_BENCH_JSON). */
bool benchJsonEnabled();

/** Write the sidecar now (also runs automatically at exit). */
void benchWriteJson();

/** Format a double with @p precision decimals. */
std::string fmt(double value, int precision = 3);

/** Format a percentage. */
std::string pct(double fraction, int precision = 1);

/** Geometric mean of positive values. */
double geomean(const std::vector<double> &values);

/** Arithmetic mean. */
double mean(const std::vector<double> &values);

} // namespace csd::bench

#endif // CSD_BENCH_COMMON_BENCH_UTIL_HH
