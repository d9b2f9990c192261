/**
 * @file
 * Seeded generator of small well-formed programs for differential
 * tests of the execution tiers.
 *
 * Each program is a counted loop (2-9 trips) around a random
 * straight-line body: ALU ops, loads and stores into one data buffer,
 * push/pop pairs (uops the SP tracker eliminates), rep-stos
 * micro-loops, vector loads and ALU ops, multiplies, and optionally a
 * forward conditional branch. The loop back-edge and the branch target
 * are region heads, so the superblock tier compiles, chains and exits
 * blocks within one run. Every program passes ProgramBuilder's
 * structural verifier.
 */

#ifndef CSD_TESTS_SUPPORT_RANDOM_PROGRAM_HH
#define CSD_TESTS_SUPPORT_RANDOM_PROGRAM_HH

#include "common/addr_range.hh"
#include "common/random.hh"
#include "isa/program.hh"

namespace csd::testsupport
{

/** A generated program and the data buffer its memory ops touch. */
struct RandomProgram
{
    Program program;
    AddrRange data;
};

inline Gpr
randomGpr(Random &rng)
{
    // Rsp is excluded so push/pop keep a sane stack pointer, and R15
    // is the loop counter.
    static const Gpr regs[] = {Gpr::Rax, Gpr::Rbx, Gpr::Rcx, Gpr::Rdx,
                               Gpr::Rsi, Gpr::Rdi, Gpr::R8,  Gpr::R9,
                               Gpr::R10, Gpr::R11};
    return regs[rng.below(10)];
}

inline RandomProgram
randomProgram(Random &rng)
{
    constexpr Addr bufSize = 8192;
    ProgramBuilder b;
    const Addr buf = b.reserveData("buf", bufSize);
    b.markEntry();
    b.movri(Gpr::R15, static_cast<std::int64_t>(2 + rng.below(8)));
    const ProgramBuilder::Label top = b.newLabel();
    b.bind(top);
    const unsigned len = 6 + static_cast<unsigned>(rng.below(20));
    for (unsigned i = 0; i < len; ++i) {
        switch (rng.below(12)) {
          case 0:
            b.movri(randomGpr(rng),
                    static_cast<std::int64_t>(rng.below(1000)));
            break;
          case 1:
            b.addi(randomGpr(rng), static_cast<std::int64_t>(rng.below(64)));
            break;
          case 2:
            b.load(randomGpr(rng), memAbs(buf + 8 * rng.below(512)));
            break;
          case 3:
            b.store(memAbs(buf + 8 * rng.below(512)), randomGpr(rng));
            break;
          case 4:
            b.xor_(randomGpr(rng), randomGpr(rng));
            break;
          case 5:
            b.nop();
            break;
          case 6: {
            const Gpr reg = randomGpr(rng);
            b.push(reg);
            b.pop(reg);
            break;
          }
          case 7:
            b.repStos(buf + 64 * rng.below(8),
                      1 + static_cast<std::uint32_t>(rng.below(4)));
            break;
          case 8:
            b.lea(randomGpr(rng), memAbs(buf + rng.below(4096)));
            break;
          case 9:
            b.movdqaLoad(Xmm::Xmm0, memAbs(buf + 16 * rng.below(256)));
            break;
          case 10:
            b.vecOp(MacroOpcode::Paddd, Xmm::Xmm0, Xmm::Xmm1);
            break;
          case 11:
            b.imul(randomGpr(rng), randomGpr(rng));
            break;
        }
    }
    if (rng.below(2) == 0) {
        // Stays mid-block and exits dynamically when taken.
        b.cmpi(Gpr::Rax, 3);
        const ProgramBuilder::Label skip = b.newLabel();
        b.jcc(Cond::Ne, skip);
        b.nop();
        b.bind(skip);
        b.nop();
    }
    b.subi(Gpr::R15, 1);
    b.jcc(Cond::Ne, top);
    b.halt();
    return {b.build(), AddrRange(buf, buf + bufSize)};
}

} // namespace csd::testsupport

#endif // CSD_TESTS_SUPPORT_RANDOM_PROGRAM_HH
