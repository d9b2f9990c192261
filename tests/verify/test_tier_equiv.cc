/**
 * @file
 * Tests for the static tier prover (verify/tier_equiv.hh): clean
 * proofs on real builds, and every remaining check family fired on a
 * directly corrupted copy of a real block, pinned to its tier.* id.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "decode/flow_cache.hh"
#include "decode/superblock.hh"
#include "decode/translator.hh"
#include "isa/program.hh"
#include "power/energy.hh"
#include "verify/tier_equiv.hh"
#include "workloads/aes.hh"
#include "workloads/rsa.hh"

namespace csd
{
namespace
{

/**
 * A straight-line fixture covering what the builder resolves: plain
 * ALU, memory effects, stack ops the SP tracker eliminates, and a
 * microsequenced rep-stos whose flow carries a micro-loop the builder
 * unrolls.
 */
Program
fixtureProgram()
{
    ProgramBuilder b;
    const Addr buf = b.reserveData("buf", 4096);
    b.beginSymbol("tier_fixture");
    b.markEntry();
    b.movri(Gpr::Rax, 5);
    b.load(Gpr::Rcx, memAbs(buf + 8));
    b.addi(Gpr::Rcx, 3);
    b.store(memAbs(buf + 16), Gpr::Rcx);
    b.push(Gpr::Rax);
    b.pop(Gpr::Rdx);
    b.repStos(buf + 1024, 4);
    b.nop();
    b.halt();
    b.endSymbol("tier_fixture");
    return b.build();
}

/** One consistent build world plus the block compiled at entry. */
struct TierFixture
{
    Program prog;
    NativeTranslator translator;
    FlowCache fc;
    EnergyModel energy;
    std::unique_ptr<Superblock> block;

    explicit TierFixture(Program p = fixtureProgram()) : prog(std::move(p))
    {
        populateFlowCache(prog, translator, fc);
        block = SuperblockBuilder(prog, fc, translator, energy)
                    .build(prog.entry());
    }

    VerifyReport
    check(const Superblock &b) const
    {
        VerifyReport report;
        checkSuperblock(b, prog, fc, translator, report);
        return report;
    }
};

/** Every finding must carry @p check and sit at @p pc. */
void
expectAllPinned(const VerifyReport &report, const std::string &check,
                Addr pc)
{
    ASSERT_FALSE(report.empty()) << "defect did not fire";
    for (const Finding &finding : report.findings()) {
        EXPECT_EQ(finding.checkId, check) << report.text();
        EXPECT_EQ(finding.pc, pc) << report.text();
    }
}

// ---------------------------------------------------------------------
// Clean proofs
// ---------------------------------------------------------------------

TEST(TierEquiv, FixtureBlockProvesClean)
{
    const TierFixture f;
    ASSERT_NE(f.block, nullptr);
    const VerifyReport report = f.check(*f.block);
    EXPECT_TRUE(report.empty()) << report.text();

    // The fixture must actually exercise the features the builder
    // resolves; a degenerate block would prove nothing.
    const auto has_handler = [&](UopHandler handler) {
        return std::any_of(
            f.block->uops.begin(), f.block->uops.end(),
            [&](const SbOp &op) { return op.handler == handler; });
    };
    EXPECT_TRUE(has_handler(UopHandler::Load));
    EXPECT_TRUE(has_handler(UopHandler::Store));
    const bool has_unroll = std::any_of(
        f.block->macros.begin(), f.block->macros.end(),
        [](const SbMacro &m) { return m.flow->loop.has_value(); });
    EXPECT_TRUE(has_unroll) << "rep-stos micro-loop was not unrolled";
    const bool has_eliminated = std::any_of(
        f.block->uops.begin(), f.block->uops.end(),
        [](const SbOp &op) { return !op.counted; });
    EXPECT_TRUE(has_eliminated)
        << "SP tracking eliminated no stack uops";
    for (const SbMacro &m : f.block->macros) {
        EXPECT_EQ(m.uopEnd - m.uopBegin, m.flow->expandedCount());
        EXPECT_EQ(m.dynCount, m.flow->expandedCount());
    }
}

TEST(TierEquiv, VictimProgramsAuditClean)
{
    const AesWorkload aes = AesWorkload::build(
        {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7,
         0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c});
    const RsaWorkload rsa = RsaWorkload::build(
        {0x12345678u, 0x9abcdef0u}, {0xfffffff1u, 0xdeadbeefu},
        0xb1e55ed, 24);
    for (const Program *prog : {&aes.program, &rsa.program}) {
        NativeTranslator translator;
        VerifyReport report;
        const TierAudit audit =
            auditProgramTiers(*prog, translator, report);
        EXPECT_TRUE(report.empty()) << report.text();
        EXPECT_GT(audit.blocks, 0u);
        EXPECT_GT(audit.uops, 0u);
    }
}

// ---------------------------------------------------------------------
// Structural corruption of a (copied) block
// ---------------------------------------------------------------------

TEST(TierEquiv, TornUopRangeIsPartialFlush)
{
    const TierFixture f;
    ASSERT_NE(f.block, nullptr);
    ASSERT_GE(f.block->macros.size(), 2u);
    Superblock torn = *f.block;
    torn.macros[1].uopBegin += 1;

    const VerifyReport report = f.check(torn);
    EXPECT_TRUE(report.hasCheck("tier.partial-flush")) << report.text();
}

TEST(TierEquiv, StaleFlowProvenanceIsAccountingSkew)
{
    const TierFixture f;
    ASSERT_NE(f.block, nullptr);
    ASSERT_GE(f.block->macros.size(), 2u);
    Superblock stale = *f.block;
    // Macro 1 claims macro 0's flow-cache entry: the interpreter
    // resuming at macro 1 would fetch a different flow.
    stale.macros[1].flow = stale.macros[0].flow;

    VerifyReport report = f.check(stale);
    expectAllPinned(report, "tier.accounting-skew", stale.macros[1].op->pc);
    EXPECT_EQ(report.findings().size(), 1u) << report.text();

    stale = *f.block;
    stale.macros[1].ctx += 1;
    report = f.check(stale);
    expectAllPinned(report, "tier.accounting-skew", stale.macros[1].op->pc);
}

TEST(TierEquiv, DivergedFallThroughIsPartialFlush)
{
    const TierFixture f;
    ASSERT_NE(f.block, nullptr);
    Superblock diverged = *f.block;
    diverged.macros.front().fallThrough += 2;

    const VerifyReport report = f.check(diverged);
    EXPECT_TRUE(report.hasCheck("tier.partial-flush")) << report.text();
}

TEST(TierEquiv, EmptyBlockIsPartialFlush)
{
    const TierFixture f;
    Superblock empty;
    empty.entryPc = f.prog.entry();

    const VerifyReport report = f.check(empty);
    EXPECT_TRUE(report.hasCheck("tier.partial-flush")) << report.text();
}

// ---------------------------------------------------------------------
// Offline driver plumbing
// ---------------------------------------------------------------------

TEST(TierEquiv, RegionHeadsCoverEntryAndBranchTargets)
{
    ProgramBuilder b;
    b.markEntry();
    b.movri(Gpr::Rax, 1);
    ProgramBuilder::Label target = b.newLabel();
    b.cmpi(Gpr::Rax, 0);
    b.jcc(Cond::Ne, target);
    b.nop();
    b.bind(target);
    b.nop();
    b.halt();
    const Program prog = b.build();

    const std::vector<Addr> heads = regionHeads(prog);
    EXPECT_NE(std::find(heads.begin(), heads.end(), prog.entry()),
              heads.end());
    // The Jcc target must be enumerated as a head.
    bool found_target = false;
    for (const MacroOp &op : prog.code())
        if (op.opcode == MacroOpcode::Jcc)
            found_target =
                std::find(heads.begin(), heads.end(), op.target) !=
                heads.end();
    EXPECT_TRUE(found_target);
    EXPECT_TRUE(std::is_sorted(heads.begin(), heads.end()));
}

TEST(TierEquiv, PopulateFlowCacheMatchesSimulatorProtocol)
{
    const TierFixture f;
    // Every stable, cacheable op must be present under the recorded
    // epoch and the translator's context.
    NativeTranslator translator;
    FlowCache fc;
    const std::uint64_t epoch =
        populateFlowCache(f.prog, translator, fc);
    EXPECT_EQ(epoch, translator.translationEpoch());
    std::size_t cached = 0;
    for (std::size_t slot = 0; slot < f.prog.code().size(); ++slot)
        if (fc.peek(slot, epoch,
                    translator.stableContext(f.prog.code()[slot])))
            ++cached;
    EXPECT_GT(cached, 0u);
}

} // namespace
} // namespace csd
