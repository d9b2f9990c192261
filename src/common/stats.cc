#include "common/stats.hh"

#include <iomanip>
#include <sstream>

#include "common/env.hh"
#include "common/logging.hh"

namespace csd
{

namespace stats_detail
{

bool processDefault = knobFlag(Knob::StatsDetail);

constinit thread_local bool *enabled = &processDefault;

} // namespace stats_detail

void
setStatsDetail(bool on)
{
    *stats_detail::enabled = on;
}

// --- Distribution ----------------------------------------------------------

void
Distribution::init(double lo, double hi, std::size_t num_buckets)
{
    if (num_buckets > 0 && hi <= lo)
        csd_panic("Distribution::init: empty range [", lo, ", ", hi, ")");
    lo_ = lo;
    bucketWidth_ = num_buckets ? (hi - lo) / static_cast<double>(num_buckets)
                               : 0.0;
    invBucketWidth_ = num_buckets ? 1.0 / bucketWidth_ : 0.0;
    buckets_.assign(num_buckets, 0);
    reset();
}

double
Distribution::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
Distribution::stddev() const
{
    if (count_ < 2)
        return 0.0;
    const double n = static_cast<double>(count_);
    const double var = (sumSq_ - sum_ * sum_ / n) / (n - 1.0);
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

void
Distribution::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    underflow_ = 0;
    overflow_ = 0;
    sum_ = 0.0;
    sumSq_ = 0.0;
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
}

// --- JSON helpers ----------------------------------------------------------

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace
{

/** Format a double as a JSON number (non-finite values become null). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream os;
    os << std::setprecision(15) << v;
    return os.str();
}

std::string
pad(int indent)
{
    return std::string(static_cast<std::size_t>(indent) * 2, ' ');
}

} // namespace

// --- StatGroup -------------------------------------------------------------

std::string
StatGroup::registeredNames() const
{
    std::string names;
    auto append = [&names](const std::string &n) {
        if (!names.empty())
            names += ", ";
        names += n;
    };
    for (const auto &kv : entries_)
        append(kv.first);
    for (const auto &kv : scalars_)
        append(kv.first);
    for (const auto &kv : dists_)
        append(kv.first);
    for (const auto &kv : formulas_)
        append(kv.first);
    return names.empty() ? "<none>" : names;
}

void
StatGroup::checkNewName(const std::string &stat_name) const
{
    if (hasStat(stat_name))
        csd_panic("StatGroup ", name_, ": duplicate stat registration '",
                  stat_name, "'");
}

void
StatGroup::addCounter(const std::string &stat_name, Counter *counter,
                      const std::string &desc)
{
    if (!counter)
        csd_panic("StatGroup::addCounter: null counter for ", stat_name);
    checkNewName(stat_name);
    entries_[stat_name] = CounterEntry{counter, desc};
}

void
StatGroup::addScalar(const std::string &stat_name, Scalar *scalar,
                     const std::string &desc)
{
    if (!scalar)
        csd_panic("StatGroup::addScalar: null scalar for ", stat_name);
    checkNewName(stat_name);
    scalars_[stat_name] = ScalarEntry{scalar, desc};
}

void
StatGroup::addDistribution(const std::string &stat_name, Distribution *dist,
                           const std::string &desc)
{
    if (!dist)
        csd_panic("StatGroup::addDistribution: null distribution for ",
                  stat_name);
    checkNewName(stat_name);
    dists_[stat_name] = DistEntry{dist, desc};
}

void
StatGroup::addFormula(const std::string &stat_name, Formula *formula,
                      const std::string &desc)
{
    if (!formula)
        csd_panic("StatGroup::addFormula: null formula for ", stat_name);
    checkNewName(stat_name);
    formulas_[stat_name] = FormulaEntry{formula, desc};
}

void
StatGroup::addChild(StatGroup *child)
{
    if (!child)
        csd_panic("StatGroup::addChild: null child");
    children_.push_back(child);
}

std::uint64_t
StatGroup::counterValue(const std::string &stat_name) const
{
    auto it = entries_.find(stat_name);
    if (it == entries_.end())
        csd_fatal("StatGroup ", name_, ": unknown counter '", stat_name,
                  "' (registered: ", registeredNames(), ")");
    return it->second.counter->value();
}

double
StatGroup::scalarValue(const std::string &stat_name) const
{
    auto it = scalars_.find(stat_name);
    if (it == scalars_.end())
        csd_fatal("StatGroup ", name_, ": unknown scalar '", stat_name,
                  "' (registered: ", registeredNames(), ")");
    return it->second.scalar->value();
}

double
StatGroup::formulaValue(const std::string &stat_name) const
{
    auto it = formulas_.find(stat_name);
    if (it == formulas_.end())
        csd_fatal("StatGroup ", name_, ": unknown formula '", stat_name,
                  "' (registered: ", registeredNames(), ")");
    return it->second.formula->value();
}

const Distribution &
StatGroup::distribution(const std::string &stat_name) const
{
    auto it = dists_.find(stat_name);
    if (it == dists_.end())
        csd_fatal("StatGroup ", name_, ": unknown distribution '", stat_name,
                  "' (registered: ", registeredNames(), ")");
    return *it->second.dist;
}

bool
StatGroup::hasCounter(const std::string &stat_name) const
{
    return entries_.count(stat_name) != 0;
}

bool
StatGroup::hasStat(const std::string &stat_name) const
{
    return entries_.count(stat_name) != 0 ||
           scalars_.count(stat_name) != 0 ||
           dists_.count(stat_name) != 0 ||
           formulas_.count(stat_name) != 0;
}

bool
StatGroup::tryValueOf(const std::string &path, double &out) const
{
    const auto dot = path.find('.');
    if (dot != std::string::npos) {
        const std::string head = path.substr(0, dot);
        const std::string rest = path.substr(dot + 1);
        for (const StatGroup *child : children_)
            if (child->name() == head)
                return child->tryValueOf(rest, out);
        return false;
    }
    if (auto it = entries_.find(path); it != entries_.end()) {
        out = static_cast<double>(it->second.counter->value());
        return true;
    }
    if (auto it = scalars_.find(path); it != scalars_.end()) {
        out = it->second.scalar->value();
        return true;
    }
    if (auto it = formulas_.find(path); it != formulas_.end()) {
        out = it->second.formula->value();
        return true;
    }
    return false;
}

double
StatGroup::valueOf(const std::string &path) const
{
    double out = 0.0;
    if (!tryValueOf(path, out))
        csd_fatal("StatGroup ", name_, ": path '", path,
                  "' does not resolve to a counter, scalar, or formula ",
                  "(this group has: ", registeredNames(), ")");
    return out;
}

void
StatGroup::resetAll()
{
    for (auto &kv : entries_)
        kv.second.counter->reset();
    for (auto &kv : scalars_)
        kv.second.scalar->reset();
    for (auto &kv : dists_)
        kv.second.dist->reset();
    for (StatGroup *child : children_)
        child->resetAll();
}

void
StatGroup::dump(std::ostream &os) const
{
    auto line = [&os, this](const std::string &stat, const auto &value,
                            const std::string &desc) {
        os << std::left << std::setw(40) << (name_ + "." + stat) << " "
           << std::right << std::setw(16) << value << "  # " << desc
           << "\n";
    };
    for (const auto &kv : entries_)
        line(kv.first, kv.second.counter->value(), kv.second.desc);
    for (const auto &kv : scalars_)
        line(kv.first, kv.second.scalar->value(), kv.second.desc);
    for (const auto &kv : formulas_)
        line(kv.first, kv.second.formula->value(), kv.second.desc);
    for (const auto &kv : dists_) {
        const Distribution &d = *kv.second.dist;
        std::ostringstream summary;
        summary << "count=" << d.count() << " mean=" << d.mean()
                << " stddev=" << d.stddev() << " min=" << d.min()
                << " max=" << d.max();
        line(kv.first, summary.str(), kv.second.desc);
    }
    for (const StatGroup *child : children_)
        child->dump(os);
}

void
StatGroup::dumpJson(std::ostream &os, int indent) const
{
    dumpJson(os, indent, ExtraWriter());
}

void
StatGroup::dumpJson(std::ostream &os, int indent,
                    const ExtraWriter &extra) const
{
    const std::string p0 = pad(indent);
    const std::string p1 = pad(indent + 1);
    const std::string p2 = pad(indent + 2);

    os << p0 << "{\n";
    // Extra members (e.g. the run-provenance manifest) are written
    // first so readers that only care about them need not scan the
    // whole document; the writer emits complete `"key": value` members
    // given the member indentation prefix.
    if (extra) {
        extra(os, p1);
        os << ",\n";
    }
    os << p1 << "\"name\": \"" << jsonEscape(name_) << "\",\n";

    // One {"name": {"value": ..., "desc": ...}} section per stat kind.
    auto section = [&](const char *label, const auto &entries,
                       auto &&emit_value, bool trailing_comma) {
        os << p1 << "\"" << label << "\": {";
        bool first = true;
        for (const auto &kv : entries) {
            os << (first ? "\n" : ",\n") << p2 << "\""
               << jsonEscape(kv.first) << "\": {\"value\": ";
            emit_value(kv.second);
            os << ", \"desc\": \"" << jsonEscape(kv.second.desc) << "\"}";
            first = false;
        }
        os << (first ? "" : "\n" + p1) << "}" << (trailing_comma ? "," : "")
           << "\n";
    };

    section("counters", entries_,
            [&os](const CounterEntry &e) { os << e.counter->value(); },
            true);
    section("scalars", scalars_,
            [&os](const ScalarEntry &e) {
                os << jsonNumber(e.scalar->value());
            },
            true);
    section("formulas", formulas_,
            [&os](const FormulaEntry &e) {
                os << jsonNumber(e.formula->value());
            },
            true);

    // Distributions carry the full histogram, not just a value.
    os << p1 << "\"distributions\": {";
    bool first = true;
    for (const auto &kv : dists_) {
        const Distribution &d = *kv.second.dist;
        os << (first ? "\n" : ",\n") << p2 << "\"" << jsonEscape(kv.first)
           << "\": {\"desc\": \"" << jsonEscape(kv.second.desc)
           << "\", \"count\": " << d.count()
           << ", \"min\": " << jsonNumber(d.min())
           << ", \"max\": " << jsonNumber(d.max())
           << ", \"mean\": " << jsonNumber(d.mean())
           << ", \"stddev\": " << jsonNumber(d.stddev())
           << ", \"underflow\": " << d.underflow()
           << ", \"overflow\": " << d.overflow() << ", \"buckets\": [";
        for (std::size_t i = 0; i < d.numBuckets(); ++i) {
            os << (i ? ", " : "") << "{\"lo\": " << jsonNumber(d.bucketLo(i))
               << ", \"hi\": " << jsonNumber(d.bucketHi(i))
               << ", \"count\": " << d.bucketCount(i) << "}";
        }
        os << "]}";
        first = false;
    }
    os << (first ? "" : "\n" + p1) << "},\n";

    os << p1 << "\"groups\": [";
    for (std::size_t i = 0; i < children_.size(); ++i) {
        os << (i ? ",\n" : "\n");
        children_[i]->dumpJson(os, indent + 2);
    }
    os << (children_.empty() ? "" : "\n" + p1) << "]\n";
    os << p0 << "}";
}

std::vector<std::string>
StatGroup::counterNames() const
{
    std::vector<std::string> names;
    names.reserve(entries_.size());
    for (const auto &kv : entries_)
        names.push_back(kv.first);
    return names;
}

std::vector<std::string>
StatGroup::scalarNames() const
{
    std::vector<std::string> names;
    names.reserve(scalars_.size());
    for (const auto &kv : scalars_)
        names.push_back(kv.first);
    return names;
}

std::vector<std::string>
StatGroup::distributionNames() const
{
    std::vector<std::string> names;
    names.reserve(dists_.size());
    for (const auto &kv : dists_)
        names.push_back(kv.first);
    return names;
}

std::vector<std::string>
StatGroup::formulaNames() const
{
    std::vector<std::string> names;
    names.reserve(formulas_.size());
    for (const auto &kv : formulas_)
        names.push_back(kv.first);
    return names;
}

} // namespace csd
