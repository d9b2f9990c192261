/**
 * @file
 * Differential test over random CSD trigger schedules.
 *
 * After the generated-test-program method of "Systematic Assessment of
 * Cache Timing Vulnerabilities on RISC-V": every generated program
 * (tests/support/random_program.hh) runs under a seeded schedule of
 * trigger events — control-MSR writes (stealth, DIFT, PC-range and
 * timing-noise bits), decoy-range and tainted-PC rewrites,
 * devectorization and MCU-mode toggles — fired between instruction
 * slices. The host caches key cached flows and compiled superblocks on
 * the decode context instead of flushing on every trigger, so this is
 * where a trigger that changes a stable translation without changing
 * its context would show: the stats dumps must be byte-identical with
 * the flow cache on and off and the superblock tier on and off
 * (cache-only mode), and with the flow cache on and off in detailed
 * mode under a power-gating controller that toggles devectorization
 * itself.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "csd/csd.hh"
#include "power/energy.hh"
#include "power/gating.hh"
#include "sim/fastpath.hh"
#include "sim/simulation.hh"
#include "tests/support/random_program.hh"

namespace csd
{
namespace
{

using testsupport::RandomProgram;
using testsupport::TriggerSchedule;

/** Host configuration of one run; none may change simulated output. */
struct HostConfig
{
    SimMode mode = SimMode::CacheOnly;
    bool flowCache = true;
    bool tier = true;
};

struct ScheduleRecord
{
    std::string simStats;  //!< dumpStatsJson, manifest phases blanked
    std::string csdStats;
    std::uint64_t fcHits = 0;
    std::uint64_t fcInvalidations = 0;
    std::uint64_t fcCtxInvalidations = 0;
    FastPath::Counters fp;
};

std::string
scrubPhases(std::string dump)
{
    const std::size_t begin = dump.find("\"phases\":");
    if (begin == std::string::npos)
        return dump;
    const std::size_t end = dump.find('\n', begin);
    dump.replace(begin, end - begin, "\"phases\": {}");
    return dump;
}

/** An MCU rule on loads, so MCU-mode toggles change real flows. */
McuBlob
loadCounterBlob()
{
    McuBlob blob;
    McuEntry entry;
    entry.targetOpcode = MacroOpcode::Load;
    entry.placement = McuPlacement::Append;
    ProgramBuilder b;
    b.addi(Gpr::Rax, 1);  // remapped to a decoder temp
    entry.nativeCode = b.build().code();
    blob.entries.push_back(entry);
    sealMcu(blob);
    return blob;
}

ScheduleRecord
runSchedule(const RandomProgram &gen, const TriggerSchedule &schedule,
            Tick watchdog, const HostConfig &host)
{
    SimParams params;
    params.mode = host.mode;
    Simulation sim(gen.program, params);
    sim.setFlowCacheEnabled(host.flowCache);
    sim.setSuperblockEnabled(host.tier);
    sim.setSuperblockThreshold(1);

    EnergyModel energy(params.energy);
    GatingParams gating;
    gating.policy = GatingPolicy::CsdDevect;
    gating.windowInstrs = 32;
    PowerGateController controller(gating, energy);
    if (host.mode == SimMode::Detailed)
        sim.setPowerController(&controller);

    MsrFile msrs;
    TaintTracker taint;
    ContextSensitiveDecoder csd(msrs, &taint);
    csd.seedNoise(0x5eed);
    EXPECT_TRUE(csd.mcu().applyUpdate(loadCounterBlob()));
    taint.addTaintSource(gen.data);
    msrs.setWatchdogPeriod(watchdog);
    sim.setTaintTracker(&taint);
    sim.setCsd(&csd);

    for (const std::vector<testsupport::TriggerEvent> &events : schedule) {
        sim.restart();
        std::uint64_t done = 0;
        for (const testsupport::TriggerEvent &ev : events) {
            if (!sim.halted())
                sim.run(ev.at - done);
            done = ev.at;
            testsupport::applyTrigger(ev, msrs, csd);
        }
        sim.runToHalt();
    }
    if (host.mode == SimMode::Detailed)
        controller.finalize(sim.cycles());

    ScheduleRecord rec;
    std::ostringstream sim_os;
    sim.dumpStatsJson(sim_os);
    rec.simStats = scrubPhases(sim_os.str());
    std::ostringstream csd_os;
    csd.stats().dumpJson(csd_os);
    rec.csdStats = csd_os.str();
    rec.fcHits = sim.flowCache().hits;
    rec.fcInvalidations = sim.flowCache().invalidations;
    rec.fcCtxInvalidations = sim.flowCache().ctx_invalidations;
    rec.fp = sim.fastPath().counters();
    return rec;
}

void
expectSameSimulation(const ScheduleRecord &a, const ScheduleRecord &b)
{
    EXPECT_EQ(a.simStats, b.simStats);
    EXPECT_EQ(a.csdStats, b.csdStats);
}

TEST(TriggerScheduleDifferential, HostCachesNeverChangeOutput)
{
    constexpr unsigned numPrograms = 60;
    constexpr unsigned runs = 4;
    Random rng(0x13198a2e03707344ull);

    std::uint64_t hits = 0;
    std::uint64_t detailed_hits = 0;
    unsigned ctx_invalidated = 0;  // programs with ctx invalidations
    unsigned context_exits = 0;    // programs with ContextChange exits
    unsigned unstable_exits = 0;   // programs with Unstable exits
    for (unsigned pi = 0; pi < numPrograms; ++pi) {
        SCOPED_TRACE("program " + std::to_string(pi));
        const RandomProgram gen = testsupport::randomProgram(rng);
        const TriggerSchedule schedule =
            testsupport::randomTriggerSchedule(rng, gen, runs);
        const Tick watchdog = 16 + rng.below(400);

        // Cache-only: the reference has both host caches off.
        const ScheduleRecord ref = runSchedule(
            gen, schedule, watchdog, {SimMode::CacheOnly, false, false});
        const ScheduleRecord cached = runSchedule(
            gen, schedule, watchdog, {SimMode::CacheOnly, true, false});
        const ScheduleRecord tiered = runSchedule(
            gen, schedule, watchdog, {SimMode::CacheOnly, true, true});
        expectSameSimulation(ref, cached);
        expectSameSimulation(ref, tiered);
        EXPECT_EQ(ref.fcHits, 0u);
        EXPECT_EQ(ref.fp.entries, 0u);
        EXPECT_EQ(cached.fp.entries, 0u);
        // The decoder keys its flows on the context: no trigger may
        // ever flush the cache wholesale.
        EXPECT_EQ(cached.fcInvalidations, 0u);
        EXPECT_EQ(tiered.fcInvalidations, 0u);

        hits += cached.fcHits;
        ctx_invalidated += cached.fcCtxInvalidations > 0;
        const auto exits = [&](SbExit exit) {
            return tiered.fp.exits[static_cast<unsigned>(exit)];
        };
        context_exits += exits(SbExit::ContextChange) > 0;
        unstable_exits += exits(SbExit::Unstable) > 0;

        // Detailed, with the power controller toggling devectorization.
        const ScheduleRecord detailed_ref = runSchedule(
            gen, schedule, watchdog, {SimMode::Detailed, false, true});
        const ScheduleRecord detailed = runSchedule(
            gen, schedule, watchdog, {SimMode::Detailed, true, true});
        expectSameSimulation(detailed_ref, detailed);
        EXPECT_EQ(detailed.fcInvalidations, 0u);
        detailed_hits += detailed.fcHits;

        if (HasFailure())
            return;
    }
    // The corpus must genuinely exercise the caches and every guard; a
    // schedule or generator drift that stops doing so would pass
    // vacuously.
    EXPECT_GT(hits, 0u);
    EXPECT_GT(detailed_hits, 0u);
    EXPECT_GT(ctx_invalidated, 0u);
    EXPECT_GT(context_exits, 0u);
    EXPECT_GT(unstable_exits, 0u);
}

} // namespace
} // namespace csd
