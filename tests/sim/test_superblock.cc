#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "csd/csd.hh"
#include "sim/fastpath.hh"
#include "sim/simulation.hh"
#include "tests/support/random_program.hh"
#include "workloads/aes.hh"
#include "workloads/rsa.hh"

namespace csd
{
namespace
{

/**
 * The superblock tier (sim/fastpath.hh) is, like the flow cache it
 * builds on, a host-side optimization: with the tier on or off the
 * simulated machine must be bit-identical — cycles, uop counts,
 * energy scalars, the whole stat tree. These tests mirror the
 * flow-cache equivalence suite in cache-only mode (the only mode the
 * tier engages in) across the paper's crypto victims, the adversarial
 * trigger-toggling program and a corpus of generated programs, then
 * pin the tier's exit protocol with targeted unit scenarios.
 */

struct CacheOnlyRecord
{
    Tick cycles = 0;
    std::uint64_t uops = 0;
    std::uint64_t instructions = 0;
    std::string simStats;  //!< full dumpStatsJson text (phases scrubbed)
    std::string csdStats;  //!< the CSD's own stat tree (when attached)
    FastPath::Counters fp; //!< host-side tier counters
};

/** Blank the manifest's host wall-time phases (nondeterministic). */
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

CacheOnlyRecord
finishRecord(Simulation &sim, const ContextSensitiveDecoder *csd)
{
    CacheOnlyRecord rec;
    rec.cycles = sim.cycles();
    rec.uops = sim.uopsSimulated();
    rec.instructions = sim.instructions();
    std::ostringstream sim_os;
    sim.dumpStatsJson(sim_os);
    rec.simStats = scrubPhases(sim_os.str());
    if (csd) {
        std::ostringstream csd_os;
        const_cast<ContextSensitiveDecoder *>(csd)->stats().dumpJson(
            csd_os);
        rec.csdStats = csd_os.str();
    }
    rec.fp = sim.fastPath().counters();
    return rec;
}

void
expectIdentical(const CacheOnlyRecord &on, const CacheOnlyRecord &off)
{
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.uops, off.uops);
    EXPECT_EQ(on.instructions, off.instructions);
    EXPECT_EQ(on.simStats, off.simStats);
    EXPECT_EQ(on.csdStats, off.csdStats);
    // The tier-off run must never have entered a superblock.
    EXPECT_EQ(off.fp.entries, 0u);
    EXPECT_EQ(off.fp.built, 0u);
}

CacheOnlyRecord
runAesNative(bool tier_on)
{
    std::array<std::uint8_t, 16> key{};
    for (unsigned i = 0; i < 16; ++i)
        key[i] = static_cast<std::uint8_t>(0x20 + i);
    const AesWorkload workload = AesWorkload::build(key);

    SimParams params;
    params.mode = SimMode::CacheOnly;
    Simulation sim(workload.program, params);
    sim.setSuperblockEnabled(tier_on);
    sim.setSuperblockThreshold(2);

    for (int block = 0; block < 6; ++block) {
        AesReference::Block plain{};
        for (unsigned i = 0; i < 16; ++i)
            plain[i] = static_cast<std::uint8_t>(block * 16 + i);
        workload.setInput(sim.state().mem, plain);
        sim.restart();
        sim.runToHalt();
    }
    return finishRecord(sim, nullptr);
}

CacheOnlyRecord
runRsaStealth(bool tier_on)
{
    const RsaWorkload workload = RsaWorkload::build(
        {0x12345678u, 0x9abcdef0u}, {0xfffffff1u, 0xdeadbeefu},
        0xb1e5, 16);

    SimParams params;
    params.mode = SimMode::CacheOnly;
    Simulation sim(workload.program, params);
    sim.setSuperblockEnabled(tier_on);
    sim.setSuperblockThreshold(2);

    MsrFile msrs;
    TaintTracker taint;
    ContextSensitiveDecoder csd(msrs, &taint);
    taint.addTaintSource(workload.exponentRange);
    msrs.setWatchdogPeriod(1000);
    msrs.setDecoyIRange(0, workload.multiplyRange);
    msrs.setControl(ctrlStealthEnable | ctrlDiftTrigger);
    sim.setTaintTracker(&taint);
    sim.setCsd(&csd);

    sim.runToHalt();
    return finishRecord(sim, &csd);
}

/**
 * The adversarial case: CSD trigger state toggles between phases
 * (stealth, devectorization, timing noise) while the watchdog
 * retriggers stealth every 700 cycles. None of these triggers changes
 * the decode context of an AES op (the victim has no devectorizable
 * opcode), so compiled blocks must survive every toggle; only the
 * timing-noise phase and pending decoys make ops unstable.
 */
CacheOnlyRecord
runTriggerToggling(bool tier_on)
{
    std::array<std::uint8_t, 16> key{};
    for (unsigned i = 0; i < 16; ++i)
        key[i] = static_cast<std::uint8_t>(0x40 + i);
    const AesWorkload workload = AesWorkload::build(key);

    SimParams params;
    params.mode = SimMode::CacheOnly;
    Simulation sim(workload.program, params);
    sim.setSuperblockEnabled(tier_on);
    sim.setSuperblockThreshold(2);

    MsrFile msrs;
    TaintTracker taint;
    ContextSensitiveDecoder csd(msrs, &taint);
    taint.addTaintSource(workload.keyRange);
    msrs.setWatchdogPeriod(700);
    msrs.setDecoyDRange(0, workload.tTableRange);
    sim.setTaintTracker(&taint);
    sim.setCsd(&csd);

    for (int block = 0; block < 12; ++block) {
        if (block % 3 == 0) {
            switch ((block / 3) % 4) {
              case 0:
                msrs.setControl(0);
                csd.setDevectorize(false);
                break;
              case 1:
                msrs.setControl(ctrlStealthEnable | ctrlDiftTrigger);
                break;
              case 2:
                msrs.setControl(0);
                csd.setDevectorize(true);
                break;
              case 3:
                csd.seedNoise(0x5eed);
                msrs.setControl(ctrlTimingNoise);
                break;
            }
        }
        AesReference::Block plain{};
        for (unsigned i = 0; i < 16; ++i)
            plain[i] = static_cast<std::uint8_t>(block * 3 + i);
        workload.setInput(sim.state().mem, plain);
        sim.restart();
        sim.runToHalt();
    }
    return finishRecord(sim, &csd);
}

TEST(Superblock, AesNativeBitIdentical)
{
    const CacheOnlyRecord on = runAesNative(true);
    const CacheOnlyRecord off = runAesNative(false);
    expectIdentical(on, off);
    EXPECT_GT(on.fp.built, 0u);
    EXPECT_GT(on.fp.entries, 0u);
    EXPECT_GT(on.fp.uopsRetired, 0u);
}

TEST(Superblock, RsaStealthBitIdentical)
{
    const CacheOnlyRecord on = runRsaStealth(true);
    const CacheOnlyRecord off = runRsaStealth(false);
    expectIdentical(on, off);
    EXPECT_GT(on.fp.entries, 0u);
}

TEST(Superblock, TriggerTogglingBitIdentical)
{
    const CacheOnlyRecord on = runTriggerToggling(true);
    const CacheOnlyRecord off = runTriggerToggling(false);
    expectIdentical(on, off);
    EXPECT_GT(on.fp.entries, 0u);
    // Blocks are keyed on the decode context: MSR writes, watchdog
    // retriggers and a devect toggle that touches no AES opcode drop
    // none of them ...
    EXPECT_EQ(on.fp.invalidated, 0u);
    EXPECT_EQ(on.fp.exits[static_cast<unsigned>(SbExit::ContextChange)],
              0u);
    // ... while timing noise and pending decoys leave blocks as
    // stability losses.
    EXPECT_GT(on.fp.exits[static_cast<unsigned>(SbExit::Unstable)], 0u);
}

// --- exit-protocol unit scenarios --------------------------------------

TEST(Superblock, ThresholdNotReachedNeverCompiles)
{
    std::array<std::uint8_t, 16> key{};
    const AesWorkload workload = AesWorkload::build(key);
    SimParams params;
    params.mode = SimMode::CacheOnly;
    Simulation sim(workload.program, params);
    sim.setSuperblockThreshold(100000);

    sim.runToHalt();
    sim.restart();
    sim.runToHalt();
    EXPECT_EQ(sim.fastPath().counters().built, 0u);
    EXPECT_EQ(sim.fastPath().counters().entries, 0u);
}

TEST(Superblock, BranchOutExitsBlock)
{
    // RSA's square-and-multiply loop takes real branches: a compiled
    // straight-line region is left by a taken branch mid-stream (the
    // loop back-edge), never by running past it into wrong code.
    const RsaWorkload workload = RsaWorkload::build(
        {0x12345678u, 0x9abcdef0u}, {0xfffffff1u, 0xdeadbeefu},
        0xb1e5, 16);
    SimParams params;
    params.mode = SimMode::CacheOnly;
    Simulation sim(workload.program, params);
    sim.setSuperblockThreshold(1);

    for (int i = 0; i < 2; ++i) {
        sim.restart();
        sim.runToHalt();
    }
    const FastPath::Counters &fp = sim.fastPath().counters();
    EXPECT_GT(fp.entries, 0u);
    EXPECT_GT(fp.exits[static_cast<unsigned>(SbExit::Branch)], 0u);
    // The sum over all exit reasons must equal the number of entries:
    // every entered block leaves through exactly one recorded reason.
    std::uint64_t total = 0;
    for (unsigned i = 0; i < numSbExits; ++i)
        total += fp.exits[i];
    EXPECT_EQ(total, fp.entries);
}

/** What the tier had compiled when devectorization switched on. */
struct TogglePoint
{
    bool guardedMidBlock = false;  //!< a block's first guard is not at its head
    std::uint64_t built = 0;       //!< blocks compiled so far
};

/**
 * The vector loop under a CSD with no defense armed: two warm runs (the
 * tier compiles the loop body), then a third run sliced at
 * @p toggle_at instructions where selective devectorization switches
 * on, then two more runs. @p point (if given) receives the tier's state
 * at the toggle.
 */
CacheOnlyRecord
runVectorLoopDevectToggle(bool tier_on, std::uint64_t toggle_at,
                          TogglePoint *point = nullptr)
{
    const Program prog = testsupport::vectorLoopProgram();
    SimParams params;
    params.mode = SimMode::CacheOnly;
    Simulation sim(prog, params);
    sim.setSuperblockEnabled(tier_on);
    sim.setSuperblockThreshold(1);

    MsrFile msrs;
    ContextSensitiveDecoder csd(msrs, nullptr);
    sim.setCsd(&csd);

    for (int run = 0; run < 2; ++run) {
        sim.restart();
        sim.runToHalt();
    }
    sim.restart();
    sim.run(toggle_at);
    if (point) {
        *point = TogglePoint{};
        point->built = sim.fastPath().counters().built;
        const SuperblockCache &cache = sim.fastPath().cache();
        for (std::size_t slot = 0; slot < cache.slots(); ++slot) {
            const Superblock *block = cache.at(slot);
            if (!block || block->macros.front().ctxGuard)
                continue;
            for (const SbMacro &m : block->macros)
                point->guardedMidBlock |= m.ctxGuard;
        }
    }
    csd.setDevectorize(true);
    sim.runToHalt();
    for (int run = 0; run < 2; ++run) {
        sim.restart();
        sim.runToHalt();
    }
    return finishRecord(sim, &csd);
}

TEST(Superblock, ContextChangeMidBlockFallsBack)
{
    // Devectorization switches on partway through a run. The loop
    // block compiled under the native context starts with scalar ops,
    // so its guard fires mid-block, at the first vector op: the block
    // must hand the rest of the iteration to the interpreter, be
    // dropped, and recompile from the devectorized flows — with the
    // stats identical to the interpreter's wherever the toggle lands.
    for (const std::uint64_t toggle_at : {1u, 37u, 100u, 211u}) {
        SCOPED_TRACE("toggle at " + std::to_string(toggle_at));
        TogglePoint point;
        const CacheOnlyRecord on =
            runVectorLoopDevectToggle(true, toggle_at, &point);
        const CacheOnlyRecord off =
            runVectorLoopDevectToggle(false, toggle_at);
        expectIdentical(on, off);
        ASSERT_TRUE(point.guardedMidBlock);
        EXPECT_GT(on.fp.exits[static_cast<unsigned>(SbExit::ContextChange)],
                  0u);
        EXPECT_GT(on.fp.invalidated, 0u);
        // The dropped blocks recompile from the devectorized flows.
        EXPECT_GT(on.fp.built, point.built);
    }
}

TEST(Superblock, ExitNamesPinTheSidecarKeys)
{
    // bench_sim_throughput.cc emits one sidecar counter per exit
    // reason under "superblock.exit_<name>"; dashboards key on the
    // exact spellings, so renaming an enumerator is a breaking change
    // this test makes explicit.
    const std::array<const char *, numSbExits> names = {
        "end", "branch", "context_change", "unstable", "budget"};
    for (unsigned i = 0; i < numSbExits; ++i) {
        const SbExit exit = static_cast<SbExit>(i);
        EXPECT_STREQ(sbExitName(exit), names[i]);
        const std::string key =
            std::string("superblock.exit_") + sbExitName(exit);
        EXPECT_EQ(key, std::string("superblock.exit_") + names[i]);
    }
}

TEST(Superblock, DisablingDropsCompiledBlocks)
{
    std::array<std::uint8_t, 16> key{};
    const AesWorkload workload = AesWorkload::build(key);
    SimParams params;
    params.mode = SimMode::CacheOnly;
    Simulation sim(workload.program, params);
    sim.setSuperblockThreshold(1);

    // Two runs: the first fills the flow cache (a build at the entry
    // head can only stitch already-cached flows), the second compiles.
    sim.restart();
    sim.runToHalt();
    sim.restart();
    sim.runToHalt();
    ASSERT_GT(sim.fastPath().counters().built, 0u);
    ASSERT_GT(sim.fastPath().cache().size(), 0u);

    sim.setSuperblockEnabled(false);
    EXPECT_EQ(sim.fastPath().cache().size(), 0u);
    const std::uint64_t entries_before = sim.fastPath().counters().entries;
    sim.restart();
    sim.runToHalt();
    EXPECT_EQ(sim.fastPath().counters().entries, entries_before);
}

/**
 * Run the vector loop under a CSD with no defense armed: three runs
 * (the tier compiles blocks), then a change to what translations
 * produce — the devectorization switch, or a control-MSR write arming
 * timing noise — then three more runs.
 */
CacheOnlyRecord
runAcrossTranslationChange(bool tier_on, bool use_devect)
{
    const Program prog = testsupport::vectorLoopProgram();
    SimParams params;
    params.mode = SimMode::CacheOnly;
    Simulation sim(prog, params);
    sim.setSuperblockEnabled(tier_on);
    sim.setSuperblockThreshold(1);

    MsrFile msrs;
    ContextSensitiveDecoder csd(msrs, nullptr);
    sim.setCsd(&csd);

    for (int run = 0; run < 6; ++run) {
        if (run == 3 && use_devect) {
            csd.setDevectorize(true);
        } else if (run == 3) {
            csd.seedNoise(0x5eed);
            msrs.setControl(ctrlTimingNoise);
        }
        sim.restart();
        sim.runToHalt();
    }
    return finishRecord(sim, &csd);
}

TEST(Superblock, TranslationChangeInvalidatesBlocks)
{
    for (const bool use_devect : {true, false}) {
        SCOPED_TRACE(use_devect ? "setDevectorize" : "control MSR");
        const CacheOnlyRecord on =
            runAcrossTranslationChange(true, use_devect);
        const CacheOnlyRecord off =
            runAcrossTranslationChange(false, use_devect);
        expectIdentical(on, off);
        EXPECT_GT(on.fp.built, 0u);
        const auto exits = [&](SbExit exit) {
            return on.fp.exits[static_cast<unsigned>(exit)];
        };
        if (use_devect) {
            // The vector ops' context moved: their blocks are dropped.
            EXPECT_GT(on.fp.invalidated, 0u);
            EXPECT_GT(exits(SbExit::ContextChange), 0u);
        } else {
            // Timing noise changes no stable context — it makes every
            // translation unstable, so blocks are left, not dropped.
            EXPECT_EQ(on.fp.invalidated, 0u);
            EXPECT_GT(exits(SbExit::Unstable), 0u);
        }
    }
}

/** Everything architectural: registers, flags, PC, and data memory. */
std::vector<std::uint64_t>
archSnapshot(const ArchState &state, const Program &prog)
{
    std::vector<std::uint64_t> snap = {
        state.pc, state.halted, state.flags.zf, state.flags.sf,
        state.flags.cf, state.flags.of};
    for (unsigned i = 0; i < numIntUopRegs; ++i)
        snap.push_back(state.readInt(
            RegId(RegClass::Int, static_cast<std::uint8_t>(i))));
    for (unsigned i = 0; i < numVecUopRegs; ++i) {
        const Vec128 &vec = state.readVecReg(
            RegId(RegClass::Vec, static_cast<std::uint8_t>(i)));
        snap.push_back(vec.lane(8, 0));
        snap.push_back(vec.lane(8, 1));
    }
    for (const auto &[addr, bytes] : prog.data())
        for (Addr a = addr; a < addr + bytes.size(); ++a)
            snap.push_back(state.mem.read(a, 1));
    return snap;
}

TEST(Superblock, BudgetExitAtEveryChunkSizeBitIdentical)
{
    // run(n) stops the tier mid-block (SbExit::Budget) wherever the
    // chunk boundary falls. After every chunk the tier-on simulation
    // must be exactly where the interpreter is: same stats dump, same
    // architectural state. Chunk sizes cover every offset into the
    // compiled AES blocks up to the longest one.
    std::array<std::uint8_t, 16> key{};
    for (unsigned i = 0; i < 16; ++i)
        key[i] = static_cast<std::uint8_t>(0x70 + i);
    const AesWorkload workload = AesWorkload::build(key);
    SimParams params;
    params.mode = SimMode::CacheOnly;

    const auto warm = [&](Simulation &sim, bool tier_on) {
        sim.setSuperblockEnabled(tier_on);
        sim.setSuperblockThreshold(1);
        for (int run = 0; run < 2; ++run) {
            sim.restart();
            sim.runToHalt();
        }
        sim.restart();
    };

    std::size_t longest = 0;
    {
        Simulation probe(workload.program, params);
        warm(probe, true);
        ASSERT_GT(probe.fastPath().counters().built, 0u);
        const SuperblockCache &cache = probe.fastPath().cache();
        for (std::size_t slot = 0; slot < cache.slots(); ++slot)
            if (const Superblock *block = cache.at(slot))
                longest = std::max(longest, block->macros.size());
    }

    std::uint64_t budget_exits = 0;
    for (std::uint64_t chunk = 1; chunk <= longest + 1; ++chunk) {
        SCOPED_TRACE("chunk " + std::to_string(chunk));
        Simulation on(workload.program, params);
        Simulation off(workload.program, params);
        warm(on, true);
        warm(off, false);
        while (!on.halted()) {
            ASSERT_EQ(on.run(chunk), off.run(chunk));
            std::ostringstream on_os;
            std::ostringstream off_os;
            on.dumpStatsJson(on_os);
            off.dumpStatsJson(off_os);
            ASSERT_EQ(scrubPhases(on_os.str()), scrubPhases(off_os.str()));
            ASSERT_EQ(archSnapshot(on.state(), workload.program),
                      archSnapshot(off.state(), workload.program));
        }
        ASSERT_TRUE(off.halted());
        budget_exits += on.fastPath().counters()
                            .exits[static_cast<unsigned>(SbExit::Budget)];
    }
    EXPECT_GT(budget_exits, 0u);
}

/**
 * Generated-program differential test, after the generated-test-program
 * method of "Systematic Assessment of Cache Timing Vulnerabilities on
 * RISC-V": every program runs cache-only with the tier on and off, and
 * the stats dumps must be byte-identical — under the native translator
 * and under a stealth-mode CSD whose watchdog period is drawn from the
 * seed, so blocks meet stability loss (decoys pending after each
 * retrigger) at arbitrary points.
 */
CacheOnlyRecord
runGenerated(const testsupport::RandomProgram &gen, bool stealth,
             Tick watchdog, bool tier_on)
{
    SimParams params;
    params.mode = SimMode::CacheOnly;
    Simulation sim(gen.program, params);
    sim.setSuperblockEnabled(tier_on);
    sim.setSuperblockThreshold(1);

    MsrFile msrs;
    TaintTracker taint;
    ContextSensitiveDecoder csd(msrs, &taint);
    if (stealth) {
        // Every loaded value is tainted, so stores of loaded registers
        // and branches on them take decoys; the decoy range lies just
        // past the data buffer.
        taint.addTaintSource(gen.data);
        msrs.setWatchdogPeriod(watchdog);
        msrs.setDecoyDRange(0, AddrRange(gen.data.end, gen.data.end + 512));
        msrs.setControl(ctrlStealthEnable | ctrlDiftTrigger);
        sim.setTaintTracker(&taint);
        sim.setCsd(&csd);
    }
    for (int run = 0; run < 4; ++run) {
        sim.restart();
        sim.runToHalt();
    }
    return finishRecord(sim, stealth ? &csd : nullptr);
}

TEST(SuperblockDifferential, GeneratedProgramsBitIdentical)
{
    constexpr unsigned numPrograms = 120;
    Random rng(0x243f6a8885a308d3ull);
    unsigned built[2] = {0, 0};  // [native, stealth]
    unsigned left_mid_block = 0; // context-change/unstable exits
    for (unsigned pi = 0; pi < numPrograms; ++pi) {
        const testsupport::RandomProgram gen =
            testsupport::randomProgram(rng);
        const Tick watchdog = 16 + rng.below(400);
        for (const bool stealth : {false, true}) {
            SCOPED_TRACE("program " + std::to_string(pi) +
                         (stealth ? " stealth" : " native"));
            const CacheOnlyRecord on =
                runGenerated(gen, stealth, watchdog, true);
            const CacheOnlyRecord off =
                runGenerated(gen, stealth, watchdog, false);
            expectIdentical(on, off);
            if (on.fp.built > 0)
                ++built[stealth ? 1 : 0];
            const auto exits = [&](SbExit exit) {
                return on.fp.exits[static_cast<unsigned>(exit)];
            };
            if (exits(SbExit::ContextChange) + exits(SbExit::Unstable) > 0)
                ++left_mid_block;
        }
        if (HasFailure())
            return;
    }
    // The corpus must genuinely exercise the tier; a generator drift
    // that stops producing compilable regions would pass vacuously.
    EXPECT_GT(built[0], numPrograms * 3 / 4);
    EXPECT_GT(built[1], numPrograms * 3 / 4);
    EXPECT_GT(left_mid_block, numPrograms / 10);
}

} // namespace
} // namespace csd
