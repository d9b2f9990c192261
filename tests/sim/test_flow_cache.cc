#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>

#include "csd/csd.hh"
#include "sim/simulation.hh"
#include "tests/support/random_program.hh"
#include "workloads/aes.hh"
#include "workloads/rsa.hh"

namespace csd
{
namespace
{

/**
 * The predecoded-flow cache (decode/flow_cache.hh) is a host-side
 * memoization: with it on or off, the *simulated* machine must be
 * bit-identical — cycles, uop-cache hit rates, CPI-stack buckets, and
 * in fact the whole stat tree (the flow-cache's own hit/miss counters
 * live outside the tree precisely so this holds). These tests run the
 * paper's crypto victims and a CSD-trigger-toggling program both ways
 * and diff everything.
 */

struct RunRecord
{
    Tick cycles = 0;
    std::uint64_t uops = 0;
    double uopCacheHitRate = 0;
    std::array<Cycles, numCpiBuckets> cpi{};
    std::string simStats;   //!< full dumpStatsJson text
    std::string csdStats;   //!< the CSD's own stat tree
    std::uint64_t fcHits = 0;
    std::uint64_t fcMisses = 0;
    std::uint64_t fcBypasses = 0;
    std::uint64_t fcInvalidations = 0;
    std::uint64_t fcCtxInvalidations = 0;
    double fcWarmHitRate = 0;  //!< hit rate after warm-up (toggling runs)
};


void
expectIdentical(const RunRecord &on, const RunRecord &off)
{
    EXPECT_EQ(on.cycles, off.cycles);
    EXPECT_EQ(on.uops, off.uops);
    EXPECT_DOUBLE_EQ(on.uopCacheHitRate, off.uopCacheHitRate);
    for (unsigned i = 0; i < numCpiBuckets; ++i)
        EXPECT_EQ(on.cpi[i], off.cpi[i])
            << "bucket " << cpiBucketName(static_cast<CpiBucket>(i));
    EXPECT_EQ(on.simStats, off.simStats);
    EXPECT_EQ(on.csdStats, off.csdStats);
    // The disabled run must have taken the uncached path throughout.
    EXPECT_EQ(off.fcHits, 0u);
    EXPECT_GT(off.fcBypasses, 0u);
}

/**
 * Blank the manifest's host wall-time phases — the one legitimately
 * nondeterministic line in a stats dump (the same subtree
 * scripts/check_sidecar_determinism.py normalizes).
 */
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

RunRecord
finishRecord(Simulation &sim, ContextSensitiveDecoder &csd)
{
    RunRecord rec;
    rec.cycles = sim.cycles();
    rec.uops = sim.uopsExecuted();
    rec.uopCacheHitRate = sim.frontend().uopCache().hitRate();
    if (const CpiStack *cpi = sim.cpiStack())
        rec.cpi = cpi->buckets();
    std::ostringstream sim_os, csd_os;
    sim.dumpStatsJson(sim_os);
    csd.stats().dumpJson(csd_os);
    rec.simStats = scrubPhases(sim_os.str());
    rec.csdStats = csd_os.str();
    rec.fcHits = sim.flowCache().hits;
    rec.fcMisses = sim.flowCache().misses;
    rec.fcBypasses = sim.flowCache().bypasses;
    rec.fcInvalidations = sim.flowCache().invalidations;
    rec.fcCtxInvalidations = sim.flowCache().ctx_invalidations;
    return rec;
}

RunRecord
runAesStealth(bool cache_on)
{
    std::array<std::uint8_t, 16> key{};
    for (unsigned i = 0; i < 16; ++i)
        key[i] = static_cast<std::uint8_t>(0x20 + i);
    const AesWorkload workload = AesWorkload::build(key);

    SimParams params;
    params.mem.extraL2Latency = 4;
    Simulation sim(workload.program, params);
    sim.setFlowCacheEnabled(cache_on);
    sim.enableCpiStack();

    MsrFile msrs;
    TaintTracker taint;
    ContextSensitiveDecoder csd(msrs, &taint);
    taint.addTaintSource(workload.keyRange);
    // A watchdog period longer than one ~3200-cycle AES block. The
    // retriggers flush nothing (flows are keyed on the context), so it
    // only shapes the decoy schedule.
    msrs.setWatchdogPeriod(5000);
    msrs.setDecoyDRange(0, workload.tTableRange);
    msrs.setControl(ctrlStealthEnable | ctrlDiftTrigger);
    sim.setTaintTracker(&taint);
    sim.setCsd(&csd);

    for (int block = 0; block < 6; ++block) {
        AesReference::Block plain{};
        for (unsigned i = 0; i < 16; ++i)
            plain[i] = static_cast<std::uint8_t>(block * 16 + i);
        workload.setInput(sim.state().mem, plain);
        sim.restart();
        sim.runToHalt();
    }
    return finishRecord(sim, csd);
}

RunRecord
runRsaStealth(bool cache_on)
{
    const RsaWorkload workload = RsaWorkload::build(
        {0x12345678u, 0x9abcdef0u}, {0xfffffff1u, 0xdeadbeefu},
        0xb1e5, 16);

    Simulation sim(workload.program);
    sim.setFlowCacheEnabled(cache_on);
    sim.enableCpiStack();

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
    return finishRecord(sim, csd);
}

/**
 * The adversarial case for memoization: CSD trigger state toggles
 * between (and during) invocations — stealth off/on, devectorization
 * off/on, timing noise off/on — and the watchdog retriggers stealth
 * every 700 cycles. Cached flows are keyed on the decode context, and
 * none of these triggers changes the context of an AES op (the victim
 * has no devectorizable opcode), so no entry ever goes stale.
 */
RunRecord
runTriggerToggling(bool cache_on)
{
    std::array<std::uint8_t, 16> key{};
    for (unsigned i = 0; i < 16; ++i)
        key[i] = static_cast<std::uint8_t>(0x40 + i);
    const AesWorkload workload = AesWorkload::build(key);

    Simulation sim(workload.program);
    sim.setFlowCacheEnabled(cache_on);
    sim.enableCpiStack();

    MsrFile msrs;
    TaintTracker taint;
    ContextSensitiveDecoder csd(msrs, &taint);
    taint.addTaintSource(workload.keyRange);
    msrs.setWatchdogPeriod(700);
    msrs.setDecoyDRange(0, workload.tTableRange);
    sim.setTaintTracker(&taint);
    sim.setCsd(&csd);

    // Three blocks per phase, the MSR writes at each phase entry.
    // Lookups after the first invocation (which touches every slot
    // while no trigger is armed) are all warm.
    std::uint64_t warm_hits = 0;
    std::uint64_t warm_lookups = 0;
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
        if (block == 0) {
            warm_hits = sim.flowCache().hits;
            warm_lookups = sim.flowCache().lookups();
        }
    }
    RunRecord rec = finishRecord(sim, csd);
    const std::uint64_t later = sim.flowCache().lookups() - warm_lookups;
    if (later > 0)
        rec.fcWarmHitRate =
            static_cast<double>(sim.flowCache().hits - warm_hits) /
            static_cast<double>(later);
    return rec;
}

TEST(FlowCache, AesStealthBitIdentical)
{
    const RunRecord on = runAesStealth(true);
    expectIdentical(on, runAesStealth(false));
    EXPECT_GT(on.fcHits, 0u);
}

TEST(FlowCache, RsaStealthBitIdentical)
{
    const RunRecord on = runRsaStealth(true);
    expectIdentical(on, runRsaStealth(false));
    EXPECT_GT(on.fcHits, 0u);
}

TEST(FlowCache, TriggerTogglingBitIdentical)
{
    const RunRecord on = runTriggerToggling(true);
    const RunRecord off = runTriggerToggling(false);
    expectIdentical(on, off);
    // MSR writes, watchdog retriggers and a devect toggle that touches
    // no AES opcode invalidate nothing: once the first invocation has
    // touched every slot, stable lookups hit ...
    EXPECT_EQ(on.fcInvalidations, 0u);
    EXPECT_EQ(on.fcCtxInvalidations, 0u);
    EXPECT_GE(on.fcWarmHitRate, 0.99);
    // ... and timing-noise phases force the uncached path throughout.
    EXPECT_GT(on.fcBypasses, 0u);
}

TEST(FlowCache, NativeRunsAreFullyCachedAfterWarmup)
{
    std::array<std::uint8_t, 16> key{};
    const AesWorkload workload = AesWorkload::build(key);
    Simulation sim(workload.program);
    ASSERT_TRUE(sim.flowCacheEnabled());

    sim.runToHalt();
    const std::uint64_t misses_first = sim.flowCache().misses;
    EXPECT_GT(misses_first, 0u);
    EXPECT_EQ(sim.flowCache().bypasses, 0u);

    // restart() keeps the cache: the second invocation of the same
    // (static) program misses nothing.
    sim.restart();
    sim.runToHalt();
    EXPECT_EQ(sim.flowCache().misses, misses_first);
    EXPECT_GT(sim.flowCache().hits, 0u);
    EXPECT_EQ(sim.flowCache().invalidations, 0u);
}

TEST(FlowCache, LookupRejectsOtherContextsEntry)
{
    // Regression: Entry::ctx used to be stored by insert() but never
    // compared on lookup, so a translator that switched decode context
    // without bumping the epoch (the normal case: the context is the
    // cache key) would be served another context's flow. lookup() must treat the
    // mismatch as a distinct ctx invalidation and force re-translation.
    FlowCache cache;
    cache.reset(4);

    cache.insert(/*slot=*/1, /*epoch=*/7, /*ctx=*/ctxNative, UopFlow{});
    EXPECT_NE(cache.lookup(1, 7, ctxNative), nullptr);
    EXPECT_EQ(cache.hits, 1u);

    // Same slot, same epoch, different expected context: a miss that
    // is counted as a ctx invalidation, not a plain miss or an epoch
    // invalidation.
    EXPECT_EQ(cache.lookup(1, 7, ctxDevect), nullptr);
    EXPECT_EQ(cache.ctx_invalidations, 1u);
    EXPECT_EQ(cache.misses, 0u);
    EXPECT_EQ(cache.invalidations, 0u);

    // The re-translation overwrites the entry under the new context;
    // the old context then misses the same way.
    cache.insert(1, 7, ctxDevect, UopFlow{});
    EXPECT_NE(cache.lookup(1, 7, ctxDevect), nullptr);
    EXPECT_EQ(cache.lookup(1, 7, ctxNative), nullptr);
    EXPECT_EQ(cache.ctx_invalidations, 2u);

    // Epoch staleness still takes precedence in accounting: an entry
    // that is both stale and from another context counts as an epoch
    // invalidation (the epoch compare runs first).
    EXPECT_EQ(cache.lookup(1, 8, ctxNative), nullptr);
    EXPECT_EQ(cache.invalidations, 1u);
    EXPECT_EQ(cache.ctx_invalidations, 2u);

    // peek() applies the same ctx filter without touching counters.
    const std::uint64_t hits = cache.hits;
    EXPECT_NE(cache.peek(1, 7, ctxDevect), nullptr);
    EXPECT_EQ(cache.peek(1, 7, ctxNative), nullptr);
    EXPECT_EQ(cache.hits, hits);
}

TEST(FlowCache, DevectorizationTogglesUseCtxPath)
{
    // End-to-end: toggling selective devectorization swaps the stable
    // context of vector ops (ctxNative <-> ctxDevect). Only those
    // slots' entries go stale, each once per toggle, as ctx
    // invalidations; nothing is flushed, and the stats stay identical
    // with the cache on or off.
    const Program prog = testsupport::vectorLoopProgram();
    std::uint64_t devect_slots = 0;
    for (const MacroOp &op : prog.code())
        devect_slots += devectorizable(op.opcode);
    ASSERT_GT(devect_slots, 0u);

    auto run = [&](bool cache_on) {
        Simulation sim(prog);
        sim.setFlowCacheEnabled(cache_on);
        sim.enableCpiStack();
        MsrFile msrs;
        ContextSensitiveDecoder csd(msrs, nullptr);
        sim.setCsd(&csd);
        // Pairs of runs per setting: off, on, off, on — three toggles.
        for (int block = 0; block < 8; ++block) {
            csd.setDevectorize((block / 2) % 2 == 1);
            sim.restart();
            sim.runToHalt();
        }
        return finishRecord(sim, csd);
    };

    const RunRecord on = run(true);
    const RunRecord off = run(false);
    expectIdentical(on, off);
    EXPECT_GT(on.fcHits, 0u);
    EXPECT_EQ(on.fcInvalidations, 0u);
    EXPECT_EQ(on.fcCtxInvalidations, 3 * devect_slots);
}

TEST(FlowCache, DisablingClearsAndBypasses)
{
    std::array<std::uint8_t, 16> key{};
    const AesWorkload workload = AesWorkload::build(key);
    Simulation sim(workload.program);
    sim.runToHalt();
    EXPECT_GT(sim.flowCache().size(), 0u);

    sim.setFlowCacheEnabled(false);
    EXPECT_EQ(sim.flowCache().size(), 0u);
    sim.restart();
    sim.runToHalt();
    EXPECT_GT(sim.flowCache().bypasses, 0u);
    EXPECT_EQ(sim.flowCache().size(), 0u);
}

} // namespace
} // namespace csd
