#include <gtest/gtest.h>

#include "cpu/executor.hh"
#include "isa/program.hh"
#include "uop/translate.hh"

namespace csd
{
namespace
{

/** Run a whole program functionally with the native translation. */
ArchState
runProgram(const Program &prog, std::uint64_t max_steps = 1000000)
{
    ArchState state;
    state.loadProgram(prog);
    FunctionalExecutor exec(state);
    std::uint64_t steps = 0;
    while (!state.halted) {
        const MacroOp *op = prog.at(state.pc);
        if (!op)
            ADD_FAILURE() << "fell off the program at pc " << std::hex
                          << state.pc;
        if (!op)
            break;
        exec.execute(*op, translateNative(*op));
        if (++steps > max_steps) {
            ADD_FAILURE() << "program did not halt";
            break;
        }
    }
    return state;
}

TEST(Executor, MovAndArithmetic)
{
    ProgramBuilder b;
    b.movri(Gpr::Rax, 10);
    b.movri(Gpr::Rbx, 32);
    b.add(Gpr::Rax, Gpr::Rbx);
    b.movrr(Gpr::Rcx, Gpr::Rax);
    b.subi(Gpr::Rcx, 2);
    b.halt();
    auto state = runProgram(b.build());
    EXPECT_EQ(state.gpr(Gpr::Rax), 42u);
    EXPECT_EQ(state.gpr(Gpr::Rcx), 40u);
}

TEST(Executor, Width32ZeroExtends)
{
    ProgramBuilder b;
    b.movri(Gpr::Rax, 0xffffffffffffffff);
    b.aluImm(MacroOpcode::AddI, Gpr::Rax, 1, OpWidth::W32);
    b.halt();
    auto state = runProgram(b.build());
    EXPECT_EQ(state.gpr(Gpr::Rax), 0u);  // 32-bit wrap, zero-extended
}

TEST(Executor, LoadStoreRoundTrip)
{
    ProgramBuilder b;
    const Addr buf = b.reserveData("buf", 64);
    b.movri(Gpr::Rax, 0x1122334455667788);
    b.movri(Gpr::Rbx, static_cast<std::int64_t>(buf));
    b.store(memAt(Gpr::Rbx), Gpr::Rax);
    b.load(Gpr::Rcx, memAt(Gpr::Rbx));
    b.load(Gpr::Rdx, memAt(Gpr::Rbx, 0, MemSize::B1));
    b.halt();
    auto state = runProgram(b.build());
    EXPECT_EQ(state.gpr(Gpr::Rcx), 0x1122334455667788u);
    EXPECT_EQ(state.gpr(Gpr::Rdx), 0x88u);  // byte load zero-extends
}

TEST(Executor, IndexedAddressing)
{
    ProgramBuilder b;
    const Addr table = b.defineDataWords("table", {10, 20, 30, 40});
    b.movri(Gpr::Rbx, static_cast<std::int64_t>(table));
    b.movri(Gpr::Rcx, 2);
    b.load(Gpr::Rax, memIdx(Gpr::Rbx, Gpr::Rcx, 4, 0, MemSize::B4));
    b.halt();
    auto state = runProgram(b.build());
    EXPECT_EQ(state.gpr(Gpr::Rax), 30u);
}

TEST(Executor, ConditionalLoop)
{
    // Sum 1..10 with a loop.
    ProgramBuilder b;
    auto top = b.newLabel();
    b.movri(Gpr::Rax, 0);
    b.movri(Gpr::Rcx, 10);
    b.bind(top);
    b.add(Gpr::Rax, Gpr::Rcx);
    b.subi(Gpr::Rcx, 1);
    b.jcc(Cond::Ne, top);
    b.halt();
    auto state = runProgram(b.build());
    EXPECT_EQ(state.gpr(Gpr::Rax), 55u);
}

TEST(Executor, CallRetStackDiscipline)
{
    ProgramBuilder b;
    auto fn = b.newLabel();
    auto after = b.newLabel();
    b.movri(Gpr::Rax, 1);
    b.call(fn);
    b.bind(after);
    b.addi(Gpr::Rax, 100);
    b.halt();
    b.bind(fn);
    b.addi(Gpr::Rax, 10);
    b.ret();
    auto state = runProgram(b.build());
    EXPECT_EQ(state.gpr(Gpr::Rax), 111u);
}

TEST(Executor, PushPopPreservesRsp)
{
    ProgramBuilder b;
    b.movri(Gpr::Rax, 77);
    b.push(Gpr::Rax);
    b.movri(Gpr::Rax, 0);
    b.pop(Gpr::Rbx);
    b.halt();
    ArchState init;
    const auto rsp_before = init.gpr(Gpr::Rsp);
    auto state = runProgram(b.build());
    EXPECT_EQ(state.gpr(Gpr::Rbx), 77u);
    EXPECT_EQ(state.gpr(Gpr::Rsp), rsp_before);
}

TEST(Executor, AdcChainPropagatesCarry)
{
    // 64-bit add of 0xffffffffffffffff + 1 sets CF; adc consumes it.
    ProgramBuilder b;
    b.movri(Gpr::Rax, -1);
    b.movri(Gpr::Rbx, 1);
    b.add(Gpr::Rax, Gpr::Rbx);          // rax = 0, CF = 1
    b.movri(Gpr::Rcx, 5);
    b.aluImm(MacroOpcode::AdcI, Gpr::Rcx, 0);  // rcx = 5 + 0 + CF = 6
    b.halt();
    auto state = runProgram(b.build());
    EXPECT_EQ(state.gpr(Gpr::Rax), 0u);
    EXPECT_EQ(state.gpr(Gpr::Rcx), 6u);
}

TEST(Executor, SbbBorrows)
{
    ProgramBuilder b;
    b.movri(Gpr::Rax, 0);
    b.movri(Gpr::Rbx, 1);
    b.sub(Gpr::Rax, Gpr::Rbx);          // rax = -1, CF = 1 (borrow)
    b.movri(Gpr::Rcx, 10);
    b.aluImm(MacroOpcode::SbbI, Gpr::Rcx, 3);  // 10 - 3 - 1 = 6
    b.halt();
    auto state = runProgram(b.build());
    EXPECT_EQ(state.gpr(Gpr::Rcx), 6u);
}

TEST(Executor, UnsignedComparisons)
{
    ProgramBuilder b;
    auto below = b.newLabel();
    b.movri(Gpr::Rax, 1);
    b.movri(Gpr::Rbx, -1);  // large unsigned
    b.cmp(Gpr::Rax, Gpr::Rbx);
    b.jcc(Cond::Ult, below);
    b.movri(Gpr::Rcx, 111);  // skipped: 1 < 0xfff... unsigned
    b.bind(below);
    b.halt();
    auto state = runProgram(b.build());
    EXPECT_EQ(state.gpr(Gpr::Rcx), 0u);
}

TEST(Executor, SignedComparisons)
{
    ProgramBuilder b;
    auto less = b.newLabel();
    b.movri(Gpr::Rax, -5);
    b.movri(Gpr::Rbx, 3);
    b.cmp(Gpr::Rax, Gpr::Rbx);
    b.jcc(Cond::Lt, less);
    b.movri(Gpr::Rcx, 1);    // skipped: -5 < 3 signed
    b.bind(less);
    b.halt();
    auto state = runProgram(b.build());
    EXPECT_EQ(state.gpr(Gpr::Rcx), 0u);
}

TEST(Executor, ShiftsAndRotates)
{
    ProgramBuilder b;
    b.movri(Gpr::Rax, 1);
    b.shli(Gpr::Rax, 12);
    b.movri(Gpr::Rbx, 0x8000000000000000);
    b.shri(Gpr::Rbx, 63);
    b.movri(Gpr::Rcx, -8);
    b.aluImm(MacroOpcode::SarI, Gpr::Rcx, 2);
    b.movri(Gpr::Rdx, 0x80000001);
    b.aluImm(MacroOpcode::RolI, Gpr::Rdx, 1, OpWidth::W32);
    b.halt();
    auto state = runProgram(b.build());
    EXPECT_EQ(state.gpr(Gpr::Rax), 0x1000u);
    EXPECT_EQ(state.gpr(Gpr::Rbx), 1u);
    EXPECT_EQ(state.gpr(Gpr::Rcx), static_cast<std::uint64_t>(-2));
    EXPECT_EQ(state.gpr(Gpr::Rdx), 3u);
}

TEST(Executor, MulAndWidth)
{
    ProgramBuilder b;
    b.movri(Gpr::Rax, 0x100000000);  // 2^32
    b.movri(Gpr::Rbx, 4);
    b.imul(Gpr::Rax, Gpr::Rbx);
    b.movri(Gpr::Rcx, 0xffffffff);
    b.movri(Gpr::Rdx, 0xffffffff);
    b.alu(MacroOpcode::Imul, Gpr::Rcx, Gpr::Rdx);  // full 64-bit product
    b.halt();
    auto state = runProgram(b.build());
    EXPECT_EQ(state.gpr(Gpr::Rax), 0x400000000ull);
    EXPECT_EQ(state.gpr(Gpr::Rcx), 0xfffffffe00000001ull);
}

TEST(Executor, LoadOpFusedForm)
{
    ProgramBuilder b;
    const Addr buf = b.defineDataWords("v", {100});
    b.movri(Gpr::Rbx, static_cast<std::int64_t>(buf));
    b.movri(Gpr::Rax, 11);
    b.aluMem(MacroOpcode::AddM, Gpr::Rax, memAt(Gpr::Rbx, 0, MemSize::B4));
    b.halt();
    auto state = runProgram(b.build());
    EXPECT_EQ(state.gpr(Gpr::Rax), 111u);
}

TEST(Executor, VectorIntegerLanes)
{
    ProgramBuilder b;
    std::vector<std::uint8_t> a_bytes(16), b_bytes(16);
    for (unsigned i = 0; i < 16; ++i) {
        a_bytes[i] = static_cast<std::uint8_t>(0xf0 + i);
        b_bytes[i] = static_cast<std::uint8_t>(0x20);
    }
    const Addr a = b.defineData("a", a_bytes, 16);
    const Addr bb = b.defineData("b", b_bytes, 16);
    b.movri(Gpr::Rsi, static_cast<std::int64_t>(a));
    b.movri(Gpr::Rdi, static_cast<std::int64_t>(bb));
    b.movdqaLoad(Xmm::Xmm0, memAt(Gpr::Rsi));
    b.movdqaLoad(Xmm::Xmm1, memAt(Gpr::Rdi));
    b.vecOp(MacroOpcode::Paddb, Xmm::Xmm0, Xmm::Xmm1);
    b.halt();
    auto state = runProgram(b.build());
    // Per-byte add wraps within the lane: 0xf0 + 0x20 = 0x10.
    EXPECT_EQ(state.xmm(Xmm::Xmm0).bytes[0], 0x10);
    EXPECT_EQ(state.xmm(Xmm::Xmm0).bytes[15], 0x1f);
}

TEST(Executor, VectorXorIsSelfInverse)
{
    ProgramBuilder b;
    std::vector<std::uint8_t> bytes(16);
    for (unsigned i = 0; i < 16; ++i)
        bytes[i] = static_cast<std::uint8_t>(37 * i + 5);
    const Addr data = b.defineData("d", bytes, 16);
    b.movri(Gpr::Rsi, static_cast<std::int64_t>(data));
    b.movdqaLoad(Xmm::Xmm0, memAt(Gpr::Rsi));
    b.movdqaRR(Xmm::Xmm1, Xmm::Xmm0);
    b.vecOp(MacroOpcode::Pxor, Xmm::Xmm0, Xmm::Xmm1);
    b.halt();
    auto state = runProgram(b.build());
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(state.xmm(Xmm::Xmm0).bytes[i], 0);
}

TEST(Executor, VectorFloatMath)
{
    ProgramBuilder b;
    std::vector<std::uint8_t> a_bytes(16), b_bytes(16);
    const float av[4] = {1.5f, -2.0f, 3.25f, 0.0f};
    const float bv[4] = {2.0f, 2.0f, 2.0f, 2.0f};
    std::memcpy(a_bytes.data(), av, 16);
    std::memcpy(b_bytes.data(), bv, 16);
    const Addr a = b.defineData("a", a_bytes, 16);
    const Addr bb = b.defineData("b", b_bytes, 16);
    b.movri(Gpr::Rsi, static_cast<std::int64_t>(a));
    b.movri(Gpr::Rdi, static_cast<std::int64_t>(bb));
    b.movdqaLoad(Xmm::Xmm0, memAt(Gpr::Rsi));
    b.movdqaLoad(Xmm::Xmm1, memAt(Gpr::Rdi));
    b.vecOp(MacroOpcode::Mulps, Xmm::Xmm0, Xmm::Xmm1);
    b.halt();
    auto state = runProgram(b.build());
    float out[4];
    std::memcpy(out, state.xmm(Xmm::Xmm0).bytes.data(), 16);
    EXPECT_FLOAT_EQ(out[0], 3.0f);
    EXPECT_FLOAT_EQ(out[1], -4.0f);
    EXPECT_FLOAT_EQ(out[2], 6.5f);
    EXPECT_FLOAT_EQ(out[3], 0.0f);
}

TEST(Executor, MovdqaStoreWritesMemory)
{
    ProgramBuilder b;
    std::vector<std::uint8_t> bytes(16, 0x5a);
    const Addr src = b.defineData("src", bytes, 16);
    const Addr dst = b.reserveData("dst", 16, 16);
    b.movri(Gpr::Rsi, static_cast<std::int64_t>(src));
    b.movri(Gpr::Rdi, static_cast<std::int64_t>(dst));
    b.movdqaLoad(Xmm::Xmm3, memAt(Gpr::Rsi));
    b.movdqaStore(memAt(Gpr::Rdi), Xmm::Xmm3);
    b.halt();
    auto state = runProgram(b.build());
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(state.mem.readByte(dst + i), 0x5au);
}

TEST(Executor, RepStosZeroesBlocks)
{
    ProgramBuilder b;
    const Addr buf = b.reserveData("buf", 256, 64);
    b.movri(Gpr::Rax, 0x1234);
    b.store(memAt(Gpr::Rax), Gpr::Rax);  // dirty something unrelated
    b.repStos(buf, 4);
    b.halt();
    Program prog = b.build();

    ArchState state;
    state.loadProgram(prog);
    // Pre-fill the buffer with junk so we can observe the stores.
    for (unsigned i = 0; i < 256; ++i)
        state.mem.writeByte(buf + i, 0xff);
    FunctionalExecutor exec(state);
    while (!state.halted) {
        const MacroOp *op = prog.at(state.pc);
        ASSERT_NE(op, nullptr);
        exec.execute(*op, translateNative(*op));
    }
    // One 8-byte store lands at the base of each of the 4 blocks.
    for (unsigned blk = 0; blk < 4; ++blk)
        EXPECT_EQ(state.mem.read(buf + blk * 64, 8), 0u);
}

TEST(Executor, DynUopsRecordEffectiveAddresses)
{
    ProgramBuilder b;
    const Addr buf = b.reserveData("buf", 8);
    b.movri(Gpr::Rbx, static_cast<std::int64_t>(buf));
    b.load(Gpr::Rax, memAt(Gpr::Rbx, 4));
    b.halt();
    Program prog = b.build();
    ArchState state;
    state.loadProgram(prog);
    FunctionalExecutor exec(state);

    const MacroOp *mov = prog.at(state.pc);
    exec.execute(*mov, translateNative(*mov));
    const MacroOp *load = prog.at(state.pc);
    auto result = exec.execute(*load, translateNative(*load));
    ASSERT_EQ(result.dynUops.size(), 1u);
    EXPECT_EQ(result.dynUops[0].effAddr, buf + 4);
}

TEST(Executor, BranchResultReportsTakenness)
{
    ProgramBuilder b;
    auto target = b.newLabel();
    b.cmpi(Gpr::Rax, 0);   // rax == 0 initially
    b.jcc(Cond::Eq, target);
    b.nop();
    b.bind(target);
    b.halt();
    Program prog = b.build();
    ArchState state;
    state.loadProgram(prog);
    FunctionalExecutor exec(state);

    const MacroOp *cmp = prog.at(state.pc);
    exec.execute(*cmp, translateNative(*cmp));
    const MacroOp *jcc = prog.at(state.pc);
    auto result = exec.execute(*jcc, translateNative(*jcc));
    EXPECT_TRUE(result.tookBranch);
    EXPECT_EQ(result.nextPc, jcc->target);
    EXPECT_EQ(state.pc, jcc->target);
}

TEST(Executor, HaltStopsMidFlow)
{
    MacroOp op;
    op.opcode = MacroOpcode::Halt;
    op.pc = 0x100;
    op.length = 1;
    UopFlow flow = translateNative(op);
    ArchState state;
    FunctionalExecutor exec(state);
    auto result = exec.execute(op, flow);
    EXPECT_TRUE(result.halted);
    EXPECT_TRUE(state.halted);
}

TEST(Executor, ExpandedCountMatchesExecutedUops)
{
    // expandedCount() sizes buffers and feeds the profiler's uop count
    // and the superblock size cap: it must be exactly what executing
    // the flow produces, including a micro-loop that never iterates.
    for (const std::uint32_t trips : {0u, 1u, 10u}) {
        SCOPED_TRACE(trips);
        ProgramBuilder b;
        b.repStos(0x8000, trips);
        const MacroOp op = b.build().code()[0];
        const UopFlow flow = translateNative(op);
        ASSERT_TRUE(flow.loop.has_value());
        ArchState state;
        FunctionalExecutor exec(state);
        EXPECT_EQ(flow.expandedCount(),
                  exec.execute(op, flow).dynUops.size());
    }
}

} // namespace
} // namespace csd
