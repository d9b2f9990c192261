#include "bench/common/bench_util.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <utility>

#include "bench/common/parallel.hh"
#include "common/env.hh"
#include "common/stats.hh"
#include "obs/context.hh"
#include "obs/manifest.hh"
#include "sim/fastpath.hh"
#include "sim/simulation.hh"

namespace csd::bench
{

namespace
{

// --- sidecar state ---------------------------------------------------------

struct SidecarTable
{
    std::string name;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
};

struct SidecarStat
{
    std::string key;
    bool numeric = false;
    double number = 0.0;
    std::string text;
};

struct Sidecar
{
    std::string path;
    std::string artifact;
    std::string title;
    std::vector<SidecarTable> tables;
    std::vector<SidecarStat> stats;
    /** Arguments that define the run's inputs (not --jobs/--json). */
    std::vector<std::string> hashedArgs;
    obs::Manifest manifest;
    bool atexitArmed = false;
    bool written = false;
};

Sidecar &
sidecar()
{
    static Sidecar s;
    return s;
}

/**
 * Guards all sidecar mutation. Harnesses are asked to record results
 * from the main thread in case order (for deterministic sidecars),
 * but a stray benchStat() from a worker must corrupt nothing.
 */
std::mutex &
sidecarMutex()
{
    static std::mutex m;
    return m;
}


/** Host-cache engagement summed over a harness's simulations. */
struct Engagement
{
    std::uint64_t fcHits = 0;
    std::uint64_t fcLookups = 0;
    std::uint64_t sbUops = 0;
    std::uint64_t uops = 0;
    bool atexitArmed = false;
};

Engagement &
engagement()
{
    static Engagement e;
    return e;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

void
printEngagement()
{
    std::lock_guard<std::mutex> lock(sidecarMutex());
    const Engagement &e = engagement();
    std::printf("host caches: flow-cache hit rate %s, superblock uop "
                "coverage %s\n",
                fmt(ratio(e.fcHits, e.fcLookups), 4).c_str(),
                fmt(ratio(e.sbUops, e.uops), 4).c_str());
    std::fflush(stdout);
}

void
armSidecar(std::string path)
{
    Sidecar &s = sidecar();
    s.path = std::move(path);
    if (!s.path.empty() && !s.atexitArmed) {
        std::atexit(benchWriteJson);
        s.atexitArmed = true;
    }
}

/** Does the whole cell parse as a number (allowing a trailing '%')? */
bool
numericCell(const std::string &cell)
{
    if (cell.empty())
        return false;
    std::string body = cell;
    if (body.back() == '%')
        body.pop_back();
    if (body.empty())
        return false;
    char *end = nullptr;
    std::strtod(body.c_str(), &end);
    return end && *end == '\0';
}

void
jsonCell(std::ostream &os, const std::string &cell)
{
    os << "\"" << jsonEscape(cell) << "\"";
}

} // namespace

void
benchInit(int argc, char **argv)
{
    std::lock_guard<std::mutex> lock(sidecarMutex());
    std::string path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc)
            path = argv[++i];
        else if (arg.rfind("--json=", 0) == 0)
            path = arg.substr(7);
        else if (arg == "--jobs" && i + 1 < argc)
            benchSetJobs(parseNonNegativeSetting("--jobs", argv[++i]));
        else if (arg.rfind("--jobs=", 0) == 0)
            benchSetJobs(parseNonNegativeSetting("--jobs", arg.c_str() + 7));
        else
            sidecar().hashedArgs.push_back(arg);
    }
    if (path.empty()) {
        if (const char *env = knobText(Knob::BenchJson))
            path = env;
    }
    armSidecar(std::move(path));
}

void
benchHeader(const std::string &artifact, const std::string &title,
            const std::string &notes)
{
    {
        std::lock_guard<std::mutex> lock(sidecarMutex());
        Sidecar &s = sidecar();
        s.artifact = artifact;
        s.title = title;
        // benchInit() may have been skipped; honor the environment anyway.
        if (s.path.empty()) {
            if (const char *env = knobText(Knob::BenchJson))
                armSidecar(env);
        }
    }

    std::printf("================================================================\n");
    std::printf("%s — %s\n", artifact.c_str(), title.c_str());
    if (!notes.empty())
        std::printf("%s\n", notes.c_str());
    std::printf("================================================================\n");
}

void
benchNoteEngagement(const Simulation &sim)
{
    const FlowCache &fc = sim.flowCache();
    std::lock_guard<std::mutex> lock(sidecarMutex());
    Engagement &e = engagement();
    e.fcHits += fc.hits;
    e.fcLookups += fc.lookups();
    e.sbUops += sim.fastPath().counters().uopsRetired;
    e.uops += sim.uopsSimulated();
    if (!e.atexitArmed) {
        std::atexit(printEngagement);
        e.atexitArmed = true;
    }
}

bool
benchJsonEnabled()
{
    return !sidecar().path.empty();
}

void
benchStat(const std::string &key, double value)
{
    SidecarStat stat;
    stat.key = key;
    stat.numeric = true;
    stat.number = value;
    std::lock_guard<std::mutex> lock(sidecarMutex());
    sidecar().stats.push_back(std::move(stat));
}

void
benchStat(const std::string &key, const std::string &value)
{
    SidecarStat stat;
    stat.key = key;
    stat.text = value;
    std::lock_guard<std::mutex> lock(sidecarMutex());
    sidecar().stats.push_back(std::move(stat));
}

void
benchManifestNote(const std::string &key, const std::string &value)
{
    std::lock_guard<std::mutex> lock(sidecarMutex());
    sidecar().manifest.note(key, value);
}

void
benchManifestNote(const std::string &key, double value)
{
    std::lock_guard<std::mutex> lock(sidecarMutex());
    sidecar().manifest.note(key, value);
}

void
benchManifestNote(const std::string &key, std::uint64_t value)
{
    std::lock_guard<std::mutex> lock(sidecarMutex());
    sidecar().manifest.note(key, value);
}

void
benchWriteJson()
{
    std::lock_guard<std::mutex> lock(sidecarMutex());
    Sidecar &s = sidecar();
    if (s.path.empty() || s.written)
        return;
    s.written = true;

    std::ofstream os(s.path);
    if (!os) {
        std::fprintf(stderr, "bench: cannot write JSON sidecar '%s'\n",
                     s.path.c_str());
        return;
    }

    // Hash the run's *inputs*: what was benchmarked and under which
    // knobs — never --jobs, output paths, wall time, or a host-cache
    // switch (CSD_FLOW_CACHE, CSD_SUPERBLOCK), whose output neutrality
    // CI checks — so a parallel or uncached run's sidecar hashes (and
    // serializes) identically to a serial cached run's.
    obs::ConfigHasher hasher;
    hasher.add("artifact", s.artifact);
    hasher.add("title", s.title);
    for (const std::string &arg : s.hashedArgs)
        hasher.add("arg", arg);
    for (const KnobSpec &knob : knobSpecs()) {
        if (!knob.hashed)
            continue;
        const char *value = knobText(knob.knob);
        hasher.add(knob.name, value ? std::string_view(value) : "<unset>");
    }
    for (const auto &[key, rendered] : s.manifest.extras)
        hasher.add(key, rendered);
    s.manifest.configHash = hasher.hex();

    os << "{\n  \"artifact\": \"" << jsonEscape(s.artifact)
       << "\",\n  \"title\": \"" << jsonEscape(s.title) << "\",\n";
    s.manifest.write(os, "  ", &ObservabilityContext::process().profiler());
    os << ",\n  \"stats\": {";
    for (std::size_t i = 0; i < s.stats.size(); ++i) {
        const SidecarStat &stat = s.stats[i];
        os << (i ? ",\n    " : "\n    ") << "\"" << jsonEscape(stat.key)
           << "\": ";
        if (stat.numeric && std::isfinite(stat.number))
            os << stat.number;
        else if (stat.numeric)
            os << "null";
        else
            jsonCell(os, stat.text);
    }
    os << (s.stats.empty() ? "" : "\n  ") << "},\n  \"tables\": [";
    for (std::size_t t = 0; t < s.tables.size(); ++t) {
        const SidecarTable &table = s.tables[t];
        os << (t ? ",\n    " : "\n    ") << "{\"name\": \""
           << jsonEscape(table.name) << "\", \"headers\": [";
        for (std::size_t c = 0; c < table.headers.size(); ++c) {
            if (c)
                os << ", ";
            jsonCell(os, table.headers[c]);
        }
        os << "], \"rows\": [";
        for (std::size_t r = 0; r < table.rows.size(); ++r) {
            os << (r ? ", " : "") << "[";
            for (std::size_t c = 0; c < table.rows[r].size(); ++c) {
                if (c)
                    os << ", ";
                jsonCell(os, table.rows[r][c]);
            }
            os << "]";
        }
        os << "]}";
    }
    os << (s.tables.empty() ? "" : "\n  ") << "]\n}\n";
}

// --- Table -----------------------------------------------------------------

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

void
Table::print() const
{
    std::vector<std::size_t> widths(headers_.size(), 0);
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    // A column is right-aligned iff every non-empty data cell in it is
    // numeric (counts, percentages).
    std::vector<bool> numeric(headers_.size(), !rows_.empty());
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
            if (!row[c].empty() && !numericCell(row[c]))
                numeric[c] = false;

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
            std::printf(numeric[c] ? "%*s  " : "%-*s  ",
                        static_cast<int>(widths[c]), row[c].c_str());
        std::printf("\n");
    };
    print_row(headers_);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto &row : rows_)
        print_row(row);

    // Every printed table lands in the sidecar, named by print order.
    std::lock_guard<std::mutex> lock(sidecarMutex());
    Sidecar &s = sidecar();
    if (!s.path.empty()) {
        SidecarTable copy;
        copy.name = "table" + std::to_string(s.tables.size() + 1);
        copy.headers = headers_;
        copy.rows = rows_;
        s.tables.push_back(std::move(copy));
    }
}

void
Table::writeCsv(std::ostream &os) const
{
    auto csv_cell = [&os](const std::string &cell) {
        if (cell.find_first_of(",\"\n") == std::string::npos) {
            os << cell;
            return;
        }
        os << '"';
        for (char c : cell) {
            if (c == '"')
                os << '"';
            os << c;
        }
        os << '"';
    };
    for (std::size_t c = 0; c < headers_.size(); ++c) {
        if (c)
            os << ',';
        csv_cell(headers_[c]);
    }
    os << '\n';
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c)
                os << ',';
            csv_cell(row[c]);
        }
        os << '\n';
    }
}

// --- numeric helpers -------------------------------------------------------

std::string
fmt(double value, int precision)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(precision);
    os << value;
    return os.str();
}

std::string
pct(double fraction, int precision)
{
    return fmt(fraction * 100.0, precision) + "%";
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

} // namespace csd::bench
