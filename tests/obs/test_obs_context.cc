/**
 * @file
 * ObservabilityContext unit tests: configuration inheritance, thread
 * binding, per-context trace isolation (including two contexts tracing
 * concurrently on two threads — the TSan acceptance case), flush
 * hooks, %c export-path expansion, and host-phase roll-up.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hh"
#include "obs/context.hh"
#include "tests/support/mini_json.hh"

namespace csd
{
namespace
{

/** Restores the process context binding and mask around each test. */
class ObsContextTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        ObservabilityContext::process().bindToThread();
        ObservabilityContext::process().tracer().disableAll();
        ObservabilityContext::process().tracer().clear();
    }

    void TearDown() override { SetUp(); }
};

TEST_F(ObsContextTest, ProcessContextIsSingletonWithIdZero)
{
    ObservabilityContext &p = ObservabilityContext::process();
    EXPECT_EQ(&p, &ObservabilityContext::process());
    EXPECT_EQ(p.id(), 0u);
    EXPECT_EQ(p.name(), "process");
    EXPECT_EQ(&p.tracer(), &TraceManager::instance());
}

TEST_F(ObsContextTest, CurrentBindsProcessWhenUnbound)
{
    // SetUp bound process(); current() must agree and stay stable.
    EXPECT_EQ(&ObservabilityContext::current(),
              &ObservabilityContext::process());
    EXPECT_TRUE(ObservabilityContext::process().boundToThisThread());
}

TEST_F(ObsContextTest, InheritsConfigurationFromBoundContext)
{
    ObservabilityContext &p = ObservabilityContext::process();
    p.tracer().enable(TraceFlag::Decoy);
    p.tracer().setCapacity(512);
    p.setStatsDetail(true);
    ObservabilityContext::LifecycleConfig lc;
    lc.enabled = true;
    lc.capacity = 99;
    p.setLifecycleConfig(lc);

    ObservabilityContext child("victim");
    EXPECT_NE(child.id(), p.id());
    EXPECT_EQ(child.name(), "victim");
    EXPECT_NE(&child.tracer(), &p.tracer());
    EXPECT_EQ(child.tracer().mask(), p.tracer().mask());
    EXPECT_EQ(child.tracer().capacity(), 512u);
    EXPECT_TRUE(child.statsDetail());
    EXPECT_TRUE(child.lifecycleConfig().enabled);
    EXPECT_EQ(child.lifecycleConfig().capacity, 99u);
    EXPECT_EQ(child.logSink().label, "victim");

    // Anonymous contexts keep unprefixed log output.
    ObservabilityContext anon;
    EXPECT_TRUE(anon.logSink().label.empty());
    EXPECT_EQ(anon.name(), "ctx" + std::to_string(anon.id()));

    p.setStatsDetail(false);
    p.setLifecycleConfig({});
    p.tracer().setCapacity(TraceManager::defaultCapacity);
}

TEST_F(ObsContextTest, BoundContextReceivesTraceMacros)
{
    ObservabilityContext a;
    ObservabilityContext b;
    a.tracer().enable(TraceFlag::Csd);
    b.tracer().enable(TraceFlag::Csd);

    a.bindToThread();
    CSD_TRACE(Csd, "ev_a", 1);
    CSD_TRACE(Csd, "ev_a", 2);
    b.bindToThread();
    CSD_TRACE(Csd, "ev_b", 3);

    EXPECT_EQ(a.tracer().size(), 2u);
    EXPECT_EQ(b.tracer().size(), 1u);
    EXPECT_EQ(ObservabilityContext::process().tracer().size(), 0u);
    EXPECT_EQ(std::string(b.tracer().events()[0].name), "ev_b");
}

TEST_F(ObsContextTest, SettingStatsDetailWritesThroughBoundContext)
{
    ObservabilityContext ctx;
    ctx.bindToThread();
    setStatsDetail(true);
    EXPECT_TRUE(ctx.statsDetail());
    EXPECT_TRUE(statsDetailEnabled());
    // The process-wide flag is untouched.
    EXPECT_FALSE(ObservabilityContext::process().statsDetail());
    setStatsDetail(false);
}

TEST_F(ObsContextTest, DestructionRebindsProcessContext)
{
    {
        ObservabilityContext ctx;
        ctx.bindToThread();
        EXPECT_TRUE(ctx.boundToThisThread());
    }
    EXPECT_EQ(ObservabilityContext::currentOrNull(),
              &ObservabilityContext::process());
}

TEST_F(ObsContextTest, ResolvedTraceExportPathExpandsContextId)
{
    ObservabilityContext ctx;
    ctx.setTraceExportPath("trace_%c.json");
    EXPECT_EQ(ctx.resolvedTraceExportPath(),
              "trace_" + std::to_string(ctx.id()) + ".json");
    ctx.setTraceExportPath("plain.json");
    EXPECT_EQ(ctx.resolvedTraceExportPath(), "plain.json");
}

TEST_F(ObsContextTest, ExpandContextPathReplacesEveryOccurrence)
{
    // The shared helper behind ALL per-context export paths (traces,
    // lifecycle rings, channel heatmaps) must expand every "%c", not
    // just the first — a path like "run_%c/heatmap_%c" is legitimate.
    EXPECT_EQ(expandContextPath("trace_%c.json", 7), "trace_7.json");
    EXPECT_EQ(expandContextPath("run_%c/mon_%c.csv", 12),
              "run_12/mon_12.csv");
    EXPECT_EQ(expandContextPath("%c%c", 3), "33");
    EXPECT_EQ(expandContextPath("no_placeholder.json", 9),
              "no_placeholder.json");
    EXPECT_EQ(expandContextPath("", 1), "");
    // A lone '%' without 'c' is literal text, not a placeholder.
    EXPECT_EQ(expandContextPath("100%_%c", 2), "100%_2");
}

TEST_F(ObsContextTest, ChannelMonitorConfigInheritsFromBoundContext)
{
    ObservabilityContext parent;
    ObservabilityContext::ChannelMonitorConfig config;
    config.enabled = true;
    config.heatmapInterval = 128;
    config.exportPath = "mon_%c";
    parent.setChannelMonitorConfig(config);
    parent.bindToThread();

    // A child constructed while the parent is bound copies the
    // channel-monitor arming — the mechanism CSD_CHANNEL_MONITOR uses
    // to reach every Simulation a process creates.
    ObservabilityContext child;
    EXPECT_TRUE(child.channelMonitorConfig().enabled);
    EXPECT_EQ(child.channelMonitorConfig().heatmapInterval, 128u);
    EXPECT_EQ(child.channelMonitorConfig().exportPath, "mon_%c");

    ObservabilityContext::process().bindToThread();
}

TEST_F(ObsContextTest, FlushWritesArmedTraceFile)
{
    const std::string path =
        ::testing::TempDir() + "/obs_ctx_flush_%c.json";
    std::string resolved;
    {
        ObservabilityContext ctx;
        ctx.tracer().enable(TraceFlag::Gating);
        ctx.setTraceExportPath(path);
        resolved = ctx.resolvedTraceExportPath();
        ctx.bindToThread();
        CSD_TRACE(Gating, "gate", 7);
        // Destruction flushes: the armed file must exist afterwards.
    }
    std::ifstream in(resolved);
    ASSERT_TRUE(in.good()) << resolved;
    std::stringstream buf;
    buf << in.rdbuf();
    const auto doc = testsupport::parseJson(buf.str());
    EXPECT_TRUE(doc->at("traceEvents").isArray());
    std::remove(resolved.c_str());
}

TEST_F(ObsContextTest, FlushHooksRunOnceAndAreRemovable)
{
    int runs = 0;
    {
        ObservabilityContext ctx;
        const auto token = ctx.addFlushHook([&] { ++runs; });
        const auto removed = ctx.addFlushHook([&] { runs += 100; });
        ctx.removeFlushHook(removed);
        ctx.flushNow();
        EXPECT_EQ(runs, 1);
        ctx.removeFlushHook(token);
    }
    EXPECT_EQ(runs, 1);  // destruction flush found no hooks left
}

TEST_F(ObsContextTest, FlushAllContextsReachesEveryLiveContext)
{
    int flushed = 0;
    ObservabilityContext a;
    ObservabilityContext b;
    a.addFlushHook([&] { ++flushed; });
    b.addFlushHook([&] { ++flushed; });
    ObservabilityContext::flushAllContexts();
    EXPECT_EQ(flushed, 2);
}

/**
 * The TSan acceptance case: two contexts on two threads tracing
 * simultaneously into private rings. Any shared mutable state in the
 * record path would be flagged as a data race; the counts prove no
 * events leaked between contexts.
 */
TEST_F(ObsContextTest, TwoContextsTraceConcurrently)
{
    constexpr int kEvents = 20000;
    std::size_t sizes[2] = {0, 0};
    std::vector<std::thread> workers;
    for (int t = 0; t < 2; ++t) {
        workers.emplace_back([t, &sizes] {
            ObservabilityContext ctx("worker" + std::to_string(t));
            ctx.tracer().enable(TraceFlag::UopCache);
            ctx.tracer().setCapacity(2 * kEvents);
            ctx.bindToThread();
            for (int i = 0; i < kEvents; ++i)
                CSD_TRACE(UopCache, "hit", static_cast<Tick>(i));
            sizes[t] = ctx.tracer().size();
            // Unbind before the context dies with the thread.
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(sizes[0], static_cast<std::size_t>(kEvents));
    EXPECT_EQ(sizes[1], static_cast<std::size_t>(kEvents));
    EXPECT_EQ(ObservabilityContext::process().tracer().size(), 0u);
}

/**
 * Host-profiler phases roll up: bench sidecars serialize the process
 * context's profiler after every simulation (each with a private
 * context) is gone, so a dying context must hand its phase seconds to
 * the context it inherited from — also when that parent died first,
 * and when --jobs workers tear children down concurrently.
 */
TEST_F(ObsContextTest, ChildPhasesFoldIntoParentAtTeardown)
{
    ObservabilityContext root("root");
    root.bindToThread();
    {
        ObservabilityContext child("child");
        child.profiler().add(HostPhase::Translate, 1.0);
    }
    EXPECT_DOUBLE_EQ(root.profiler().seconds(HostPhase::Translate), 1.0);

    // The middle context dies before its child: the child re-parents.
    auto mid = std::make_unique<ObservabilityContext>("mid");
    mid->profiler().add(HostPhase::Execute, 2.0);
    mid->bindToThread();
    auto leaf = std::make_unique<ObservabilityContext>("leaf");
    mid.reset();
    EXPECT_DOUBLE_EQ(root.profiler().seconds(HostPhase::Execute), 2.0);
    leaf->profiler().add(HostPhase::Execute, 4.0);
    leaf.reset();
    EXPECT_DOUBLE_EQ(root.profiler().seconds(HostPhase::Execute), 6.0);

    // Concurrent teardown (the TSan case): every child's time arrives.
    constexpr int kWorkers = 4;
    constexpr int kChildren = 50;
    std::vector<std::thread> workers;
    for (int t = 0; t < kWorkers; ++t) {
        workers.emplace_back([&root] {
            root.bindToThread();
            for (int i = 0; i < kChildren; ++i) {
                ObservabilityContext child;
                child.profiler().add(HostPhase::Memory, 0.5);
            }
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_DOUBLE_EQ(root.profiler().seconds(HostPhase::Memory),
                     0.5 * kWorkers * kChildren);
    ObservabilityContext::process().bindToThread();
}

} // namespace
} // namespace csd
