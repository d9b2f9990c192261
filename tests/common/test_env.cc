/**
 * @file
 * The env-knob registry and its strict parsers (common/env.hh): every
 * CSD_* knob must reject malformed values, and the environment must
 * reject unknown CSD_* names, loudly rather than fall back to a
 * default.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/env.hh"

namespace csd
{
namespace
{

TEST(EnvParse, PositiveSettingAcceptsOnlyStrictPositives)
{
    EXPECT_EQ(parsePositiveSetting("K", "1"), 1u);
    EXPECT_EQ(parsePositiveSetting("K", "65536"), 65536u);
    EXPECT_EQ(parsePositiveSetting("K", "4096"), 4096u);
    EXPECT_THROW(parsePositiveSetting("K", "0"), std::runtime_error);
    EXPECT_THROW(parsePositiveSetting("K", "-1"), std::runtime_error);
    EXPECT_THROW(parsePositiveSetting("K", "-4"), std::runtime_error);
    EXPECT_THROW(parsePositiveSetting("K", ""), std::runtime_error);
    EXPECT_THROW(parsePositiveSetting("K", "abc"), std::runtime_error);
    EXPECT_THROW(parsePositiveSetting("K", "12abc"), std::runtime_error);
    EXPECT_THROW(parsePositiveSetting("K", "16k"), std::runtime_error);
    EXPECT_THROW(parsePositiveSetting("K", "1 "), std::runtime_error);
    EXPECT_THROW(parsePositiveSetting("K", nullptr), std::runtime_error);
    EXPECT_THROW(parsePositiveSetting("K", "99999999999999999999999999"),
                 std::runtime_error);
}

TEST(EnvParse, NonNegativeSettingAllowsZeroAuto)
{
    EXPECT_EQ(parseNonNegativeSetting("J", "0"), 0u);
    EXPECT_EQ(parseNonNegativeSetting("J", "8"), 8u);
    EXPECT_THROW(parseNonNegativeSetting("J", "-1"), std::runtime_error);
    EXPECT_THROW(parseNonNegativeSetting("J", "8x"), std::runtime_error);
    EXPECT_THROW(parseNonNegativeSetting("J", "two"), std::runtime_error);
    EXPECT_THROW(parseNonNegativeSetting("J", ""), std::runtime_error);
}

TEST(EnvParse, ErrorMessageNamesTheSetting)
{
    try {
        parsePositiveSetting("CSD_TRACE_CAPACITY", "12abc");
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("CSD_TRACE_CAPACITY"), std::string::npos);
        EXPECT_NE(msg.find("12abc"), std::string::npos);
    }
}

/** Parse a one-variable environment. */
EnvSettings
parseOne(const std::string &entry)
{
    const char *envp[] = {entry.c_str(), nullptr};
    return EnvSettings::parse(envp);
}

TEST(EnvRegistry, BoolKnobsAcceptExactlyZeroOrOne)
{
    unsigned bools = 0;
    for (const KnobSpec &knob : knobSpecs()) {
        if (knob.kind != KnobKind::Bool)
            continue;
        ++bools;
        const std::string name = knob.name;
        EXPECT_FALSE(parseOne(name + "=0").flag(knob.knob, true)) << name;
        EXPECT_TRUE(parseOne(name + "=1").flag(knob.knob, false)) << name;
        for (const char *bad : {"false", "true", "00", ""})
            EXPECT_THROW(parseOne(name + "=" + bad), std::runtime_error)
                << name << "='" << bad << "'";
    }
    EXPECT_EQ(bools, 8u);
}

TEST(EnvRegistry, UnknownKnobIsRejectedByName)
{
    try {
        parseOne("CSD_FLOWCACHE=0");
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("CSD_FLOWCACHE"),
                  std::string::npos);
    }
    // Other variables are not the registry's business.
    EXPECT_EQ(parseOne("FLOWCACHE=0").text(Knob::FlowCache), nullptr);
}

TEST(EnvRegistry, UnsetKnobsFallBackAndEveryKindParses)
{
    const EnvSettings none = EnvSettings::parse(nullptr);
    EXPECT_TRUE(none.flag(Knob::Verify, true));
    EXPECT_EQ(none.number(Knob::TraceCapacity, 7), 7u);
    EXPECT_EQ(none.text(Knob::TraceFile), nullptr);

    const char *envp[] = {"PATH=/bin",
                          "CSD_TRACE_CAPACITY=4096",
                          "CSD_LIFECYCLE_CAPACITY=64",
                          "CSD_BENCH_JOBS=0",
                          "CSD_TRACE=UopCache, gating",
                          "CSD_TRACE_FILE=out_%c.json",
                          "CSD_BENCH_JSON=",
                          nullptr};
    const EnvSettings env = EnvSettings::parse(envp);
    EXPECT_EQ(env.number(Knob::TraceCapacity, 1), 4096u);
    EXPECT_EQ(env.number(Knob::LifecycleCapacity, 1), 64u);
    EXPECT_EQ(env.number(Knob::BenchJobs, 1), 0u);
    EXPECT_STREQ(env.text(Knob::Trace), "UopCache, gating");
    EXPECT_STREQ(env.text(Knob::TraceFile), "out_%c.json");
    EXPECT_EQ(env.text(Knob::BenchJson), nullptr);  // empty = unset

    EXPECT_NO_THROW(parseOne("CSD_TRACE=all"));
    EXPECT_THROW(parseOne("CSD_TRACE=UopCache,Uopcahce"),
                 std::runtime_error);
    for (const char *bad : {"CSD_TRACE_CAPACITY=16k",
                            "CSD_LIFECYCLE_CAPACITY=0",
                            "CSD_CHANNEL_MONITOR_INTERVAL=",
                            "CSD_BENCH_JOBS=-1", "CSD_CHECK_JOBS=x"})
        EXPECT_THROW(parseOne(bad), std::runtime_error) << bad;
}

TEST(EnvRegistry, TableIsWellFormed)
{
    std::set<std::string> names;
    std::vector<std::string> hashed;
    for (const KnobSpec &knob : knobSpecs()) {
        EXPECT_EQ(std::string(knob.name).rfind("CSD_", 0), 0u);
        EXPECT_TRUE(names.insert(knob.name).second) << knob.name;
        if (knob.hashed)
            hashed.push_back(knob.name);
    }
    // The sidecar config_hash walks these in order; another row or
    // another order changes every sidecar's hash.
    EXPECT_EQ(hashed, (std::vector<std::string>{"CSD_STATS_DETAIL",
                                                "CSD_CPI_STACK"}));
}

/** What README's "Accepts" column says for @p kind. */
std::string
acceptsCell(KnobKind kind)
{
    switch (kind) {
      case KnobKind::Bool: return "`0`/`1`";
      case KnobKind::Positive: return "integer > 0";
      case KnobKind::NonNegative: return "integer >= 0";
      case KnobKind::Text: return "path";
      case KnobKind::TraceFlags: return "trace flags";
    }
    return "?";
}

TEST(EnvRegistry, ReadmeTableMirrorsTheRegistry)
{
    std::ifstream readme(CSD_README_PATH);
    ASSERT_TRUE(readme) << CSD_README_PATH;
    // "| `CSD_X` | accepts | effect | hashed |" -> cells.
    std::map<std::string, std::vector<std::string>> rows;
    for (std::string line; std::getline(readme, line);) {
        if (line.rfind("| `CSD_", 0) != 0)
            continue;
        std::vector<std::string> cells;
        std::size_t pos = 1;
        for (std::size_t bar; (bar = line.find('|', pos)) != line.npos;
             pos = bar + 1) {
            const std::string cell = line.substr(pos, bar - pos);
            const std::size_t first = cell.find_first_not_of(' ');
            cells.push_back(cell.substr(
                first, cell.find_last_not_of(' ') + 1 - first));
        }
        ASSERT_EQ(cells.size(), 4u) << line;
        rows[cells[0]] = cells;
    }
    EXPECT_EQ(rows.size(), knobSpecs().size());
    for (const KnobSpec &knob : knobSpecs()) {
        const auto row = rows.find("`" + std::string(knob.name) + "`");
        ASSERT_NE(row, rows.end()) << knob.name << " has no README row";
        EXPECT_EQ(row->second[1], acceptsCell(knob.kind)) << knob.name;
        EXPECT_EQ(row->second[3], knob.hashed ? "yes" : "no") << knob.name;
    }
}

} // namespace
} // namespace csd
